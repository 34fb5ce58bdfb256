package servepath

import (
	"testing"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/corridor"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

const (
	period   = time.Second
	deadline = 100 * time.Millisecond
	radius   = 60.0
)

// testField is a 1 km square with a node every 20 m, every node sampling
// once a second in phase.
func testField(t *testing.T) (*core.QueryEngine, core.Sampler) {
	t.Helper()
	eng, err := core.NewQueryEngineE(geom.Square(1000), radius, field.Uniform{Value: 20}, core.EngineConfig{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sampler := core.ScheduleSampler(time.Second, func(int32) sim.Time { return 0 })
	eng.SetSampler(sampler)
	id := 0
	for x := 10.0; x < 1000; x += 20 {
		for y := 10.0; y < 1000; y += 20 {
			eng.UpsertNode(radio.NodeID(id), geom.Pt(x, y))
			id++
		}
	}
	return eng, sampler
}

func testConfig(eng *core.QueryEngine, sampler core.Sampler, lookahead int) Config {
	return Config{
		Strategy:  prefetch.Strategy{Kind: prefetch.JIT},
		Lookahead: lookahead,
		Model:     corridor.ErrorModel{Base: 2},
		Radius:    radius,
		Period:    period,
		Deadline:  deadline,
		Fresh:     time.Second,
		Sleep:     time.Second,
		Sampler:   sampler,
		Grid:      eng.Index(),
	}
}

// TestMispredictIsCorrectedFromObservedMotion walks a JIT+corridor query
// along its prediction, then has the user leave the corridor at boundary 8:
// that period is served cold and counted late, After reports the mispredict
// and re-plans along the line through the last two observed positions, and
// the next boundary — staged on the corrected course — is served warm again.
func TestMispredictIsCorrectedFromObservedMotion(t *testing.T) {
	eng, sampler := testField(t)
	const turnAt = 8
	start := geom.Pt(200, 500)
	east, northEast := geom.V(10, 0), geom.V(10, 40)
	turn := start.Add(east.Scale((turnAt - 1) * period.Seconds()))
	actual := func(k int) geom.Point {
		if k < turnAt {
			return start.Add(east.Scale(float64(k) * period.Seconds()))
		}
		return turn.Add(northEast.Scale(float64(k-turnAt+1) * period.Seconds()))
	}

	q := new(core.Query)
	if err := eng.RegisterQuery(q, 1, radius, start, core.TemporalSpec{Period: period, Deadline: deadline, Fresh: time.Second}, 0, nil); err != nil {
		t.Fatal(err)
	}
	var p Path
	if err := p.Attach(q, testConfig(eng, sampler, 3), start, LinearProfile(start, east, 0, period), nil); err != nil {
		t.Fatal(err)
	}

	// step evaluates boundary k three tenths of a second after it came due —
	// past the deadline slack, so only a period the plan staged by its
	// boundary is on time.
	step := func(k int) (core.WindowResult, obs.Class, bool) {
		t.Helper()
		due := sim.Time(k) * period
		p.Before(due)
		q.Lock()
		wr, ok := q.EvaluateDueAt(actual(k), due+300*time.Millisecond, nil)
		q.Unlock()
		if !ok || wr.K != k {
			t.Fatalf("boundary %d: evaluated K=%d ok=%v", k, wr.K, ok)
		}
		class, mispredicted := p.After(&wr, actual(k))
		return wr, class, mispredicted
	}

	for k := 1; k < turnAt; k++ {
		wr, class, mispredicted := step(k)
		if mispredicted {
			t.Fatalf("boundary %d: mispredict on the predicted course", k)
		}
		if k == turnAt-1 && (class != obs.ClassCorridor || wr.Late || wr.Warmup || wr.Prefetched != wr.Data.Count) {
			t.Fatalf("boundary %d should be staged, warm and on time: class %v, %+v", k, class, wr)
		}
	}
	before, _ := p.Stats()

	wr, class, mispredicted := step(turnAt)
	if !mispredicted {
		t.Fatal("After did not report the mispredict")
	}
	if class != obs.ClassPlanned || wr.CorridorHit {
		t.Errorf("mispredicted period served as %v (corridor hit %v), want a cold planned serve", class, wr.CorridorHit)
	}
	if !wr.Late || wr.Lateness != 300*time.Millisecond || wr.EvaluatedAt != wr.Due+300*time.Millisecond {
		t.Errorf("mispredicted period kept a staging credit: late %v, lateness %v, evaluated at %v (due %v)", wr.Late, wr.Lateness, wr.EvaluatedAt, wr.Due)
	}
	if wr.Data.Count == 0 || wr.Prefetched >= wr.Data.Count {
		t.Errorf("mispredicted period: %d of %d readings prefetched; the pickup circle should have missed part of the area", wr.Prefetched, wr.Data.Count)
	}
	after, _ := p.Stats()
	if after.Replans != before.Replans+1 || after.CorridorMispredicts != before.CorridorMispredicts+1 {
		t.Errorf("replans %d -> %d, mispredicts %d -> %d; want one more of each", before.Replans, after.Replans, before.CorridorMispredicts, after.CorridorMispredicts)
	}
	if after.Epoch != wr.Due {
		t.Errorf("plan epoch %v, want the mispredicted boundary %v", after.Epoch, wr.Due)
	}
	// Both the plan and the corridor now follow the observed motion: the
	// re-swept window starts at the next boundary, centred where the user
	// will actually be.
	next := sim.Time(turnAt+1) * period
	if e, ok := p.planner.EntryFor(next); !ok || e.Center.Dist(actual(turnAt+1)) > 1e-6 {
		t.Errorf("plan for boundary %d centred at %v, want %v", turnAt+1, e.Center, actual(turnAt+1))
	}
	if got := p.cache.StagedBoundaries(); len(got) != 3 || got[0] != turnAt+1 {
		t.Errorf("staged boundaries %v, want the three from %d", got, turnAt+1)
	}
	if after.CorridorStaged < before.CorridorStaged+3 {
		t.Errorf("corridor staged %d -> %d snapshots; a profile replacement re-sweeps the window", before.CorridorStaged, after.CorridorStaged)
	}

	wr, class, mispredicted = step(turnAt + 1)
	if mispredicted || class != obs.ClassCorridor || !wr.CorridorHit {
		t.Errorf("boundary after the correction: class %v, mispredicted %v; want a warm corridor serve", class, mispredicted)
	}
	if final, _ := p.Stats(); final.Replans != after.Replans {
		t.Errorf("replans rose to %d without a mispredict", final.Replans)
	}
}

// TestStreamProfileInstalledOnceBeforeItsBoundary feeds a path the way a
// ProfileSource does: one prediction delivered by the epoch, a second
// delivered between the second and third boundaries. Attach consumes the
// first; Before installs the second exactly once, ahead of the first
// boundary at or after its delivery.
func TestStreamProfileInstalledOnceBeforeItsBoundary(t *testing.T) {
	eng, sampler := testField(t)
	start := geom.Pt(300, 300)
	first := LinearProfile(start, geom.V(5, 0), 0, period)
	deliverAt := 2*period + period/2
	second := LinearProfile(geom.Pt(320, 330), geom.V(0, 5), deliverAt, period)
	stream := []mobility.TimedProfile{{Deliver: 0, Profile: first}, {Deliver: deliverAt, Profile: second}}

	q := new(core.Query)
	if err := eng.RegisterQuery(q, 1, radius, start, core.TemporalSpec{Period: period, Deadline: deadline, Fresh: time.Second}, 0, nil); err != nil {
		t.Fatal(err)
	}
	var p Path
	bootstrap := mobility.Profile{Path: mobility.Stationary(start, 0)}
	if err := p.Attach(q, testConfig(eng, sampler, 0), start, bootstrap, stream); err != nil {
		t.Fatal(err)
	}
	centre := func(k int) geom.Point {
		t.Helper()
		e, ok := p.planner.EntryFor(sim.Time(k) * period)
		if !ok {
			t.Fatalf("no plan entry for boundary %d", k)
		}
		return e.Center
	}
	if st, _ := p.Stats(); st.Replans != 0 {
		t.Fatalf("Attach counted %d replans", st.Replans)
	}
	if got, want := centre(4), first.PredictAt(4*period); got != want {
		t.Fatalf("plan starts from %v at boundary 4, want the delivered prediction's %v, not the bootstrap", got, want)
	}

	for k := 1; k <= 4; k++ {
		wantReplans := 0
		if k >= 3 {
			wantReplans = 1
		}
		due := sim.Time(k) * period
		p.Before(due)
		p.Before(due) // a driver retrying a boundary installs nothing twice
		st, _ := p.Stats()
		if st.Replans != wantReplans {
			t.Fatalf("after Before(boundary %d): %d replans, want %d", k, st.Replans, wantReplans)
		}
		if wantReplans == 1 && st.Epoch != deliverAt {
			t.Errorf("boundary %d: plan epoch %v, want the delivery instant %v", k, st.Epoch, deliverAt)
		}
		pos := start
		q.Lock()
		wr, ok := q.EvaluateDueAt(pos, due, nil)
		q.Unlock()
		if !ok {
			t.Fatalf("boundary %d not due", k)
		}
		p.After(&wr, pos)
	}
	if got, want := centre(5), second.PredictAt(5*period); got != want {
		t.Errorf("plan centred at %v for boundary 5, want the second prediction's %v", got, want)
	}
}

// TestUnplannedPathIsInert pins the zero-cost shape the session relies on: an
// on-demand query attaches nothing, classifies cold, and ignores re-plans.
func TestUnplannedPathIsInert(t *testing.T) {
	eng, sampler := testField(t)
	start := geom.Pt(500, 500)
	q := new(core.Query)
	if err := eng.RegisterQuery(q, 1, radius, start, core.TemporalSpec{Period: period, Deadline: deadline, Fresh: time.Second}, 0, nil); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(eng, sampler, 0)
	cfg.Strategy = prefetch.Strategy{}
	var p Path
	if allocs := testing.AllocsPerRun(10, func() {
		if err := p.Attach(q, cfg, start, mobility.Profile{}, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("attaching an on-demand path allocated %v times", allocs)
	}
	if p.Planned() {
		t.Fatal("on-demand path reports a planner")
	}
	if _, ok := p.Stats(); ok {
		t.Error("on-demand path has prefetch stats")
	}
	p.Replan(LinearProfile(start, geom.V(1, 0), 0, period), 0)
	p.Before(period)
	q.Lock()
	wr, ok := q.EvaluateDueAt(start, period, nil)
	q.Unlock()
	if !ok {
		t.Fatal("boundary 1 not due")
	}
	if class, mispredicted := p.After(&wr, start); class != obs.ClassCold || mispredicted {
		t.Errorf("on-demand serve classified %v, mispredicted %v", class, mispredicted)
	}
}
