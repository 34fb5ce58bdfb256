package mobiquery

// Tests of a subscription's serve machinery, driven through Subscribe and
// Advance: the mispredict correction, the install-once rule for a predicted
// profile stream, and the inert on-demand path.

import (
	"context"
	"testing"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
)

const (
	pathPeriod   = time.Second
	pathDeadline = 100 * time.Millisecond
	pathRadius   = 60.0
)

// pathService is a 1 km square of 2500 nodes, every node sampling once a
// second in phase, on a manual clock.
func pathService(t *testing.T) *Service {
	t.Helper()
	nc := NetworkConfig{
		Seed:         1,
		Nodes:        2500,
		RegionSide:   1000,
		SamplePeriod: time.Second,
		Service:      ServiceConfig{Shards: 4, Workers: 2},
	}
	svc, err := Open(context.Background(), nc, WithAlignedSampling())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// pathSpec is the shared contract: strategy s, and a corridor staging
// lookahead boundaries ahead (none at 0) under a 2 m error bound.
func pathSpec(s Strategy, lookahead int) QuerySpec {
	return QuerySpec{
		Radius:    pathRadius,
		Period:    pathPeriod,
		Deadline:  pathDeadline,
		Freshness: time.Second,
		Strategy:  s,
		Corridor:  CorridorSpec{Lookahead: lookahead, ErrorModel: ErrorModel{Base: 2}},
	}
}

// scriptedMotion is a ProfileSource with a hand-written ground truth and
// prediction stream.
type scriptedMotion struct {
	pos      func(t time.Duration) Point
	profiles []mobility.TimedProfile
}

func (m scriptedMotion) PositionAt(t time.Duration) Point { return m.pos(t) }

func (m scriptedMotion) predictedProfiles() []mobility.TimedProfile { return m.profiles }

// served takes the one result the last Advance delivered to sub, and the
// serve class its span recorded.
func served(t *testing.T, sub *Subscription) (QueryResult, obs.Class) {
	t.Helper()
	got, _ := buffered(sub)
	if len(got) != 1 {
		t.Fatalf("step delivered %d results, want 1", len(got))
	}
	spans := sub.TraceSpans(nil)
	return got[0], spans[len(spans)-1].Class
}

// TestMispredictIsCorrectedFromObservedMotion walks a JIT+corridor
// subscription along its prediction, then has the user leave the corridor at
// boundary 8: that period is served cold and counted late, the mispredict
// re-plans along the line through the last two observed positions, and the
// next boundary — staged on the corrected course — is served warm again.
func TestMispredictIsCorrectedFromObservedMotion(t *testing.T) {
	svc := pathService(t)
	const turnAt = 8
	start := geom.Pt(200, 500)
	east, northEast := geom.V(10, 0), geom.V(10, 40)
	turnT := (turnAt - 1) * pathPeriod
	turn := start.Add(east.Scale(turnT.Seconds()))
	actual := func(t time.Duration) Point {
		if t <= turnT {
			return start.Add(east.Scale(t.Seconds()))
		}
		return turn.Add(northEast.Scale((t - turnT).Seconds()))
	}
	src := scriptedMotion{pos: actual, profiles: []mobility.TimedProfile{{Profile: lineProfile(start, east, 0, pathPeriod)}}}
	sub, err := svc.Subscribe(context.Background(), pathSpec(JITStrategy(), 3), src)
	if err != nil {
		t.Fatal(err)
	}

	// step evaluates boundary k three tenths of a second after it came due —
	// past the deadline slack, so only a period the plan staged by its
	// boundary is on time.
	step := func(k int) (QueryResult, obs.Class) {
		t.Helper()
		d := pathPeriod
		if k == 1 {
			d += 300 * time.Millisecond
		}
		if err := svc.Advance(d); err != nil {
			t.Fatal(err)
		}
		r, class := served(t, sub)
		if r.K != k {
			t.Fatalf("boundary %d: evaluated K=%d", k, r.K)
		}
		return r, class
	}
	stats := func() PrefetchStats {
		t.Helper()
		st, ok := sub.PrefetchStats()
		if !ok {
			t.Fatal("JIT subscription has no prefetch stats")
		}
		return st
	}

	for k := 1; k < turnAt; k++ {
		r, class := step(k)
		if stats().CorridorMispredicts != 0 {
			t.Fatalf("boundary %d: mispredict on the predicted course", k)
		}
		if k == turnAt-1 && (class != obs.ClassCorridor || !r.OnTime || r.Warmup || r.PrefetchedNodes != r.Contributors) {
			t.Fatalf("boundary %d should be staged, warm and on time: class %v, %+v", k, class, r)
		}
	}
	before := stats()

	r, class := step(turnAt)
	after := stats()
	if after.CorridorMispredicts != before.CorridorMispredicts+1 || after.Replans != before.Replans+1 {
		t.Errorf("replans %d -> %d, mispredicts %d -> %d; want one more of each", before.Replans, after.Replans, before.CorridorMispredicts, after.CorridorMispredicts)
	}
	if class != obs.ClassPlanned || r.CorridorHit {
		t.Errorf("mispredicted period served as %v (corridor hit %v), want a cold planned serve", class, r.CorridorHit)
	}
	if r.OnTime || r.Lateness != 300*time.Millisecond || r.EvaluatedAt != r.Deadline+300*time.Millisecond {
		t.Errorf("mispredicted period kept a staging credit: on time %v, lateness %v, evaluated at %v (due %v)", r.OnTime, r.Lateness, r.EvaluatedAt, r.Deadline)
	}
	if r.Contributors == 0 || r.PrefetchedNodes >= r.Contributors {
		t.Errorf("mispredicted period: %d of %d readings prefetched; the pickup circle should have missed part of the area", r.PrefetchedNodes, r.Contributors)
	}
	if after.Epoch != r.Deadline {
		t.Errorf("plan epoch %v, want the mispredicted boundary %v", after.Epoch, r.Deadline)
	}
	// Both the plan and the corridor now follow the observed motion: the
	// re-swept window starts at the next boundary, centred where the user
	// will actually be.
	next := (turnAt + 1) * pathPeriod
	if e, ok := sub.planner.EntryFor(next); !ok || e.Center.Dist(actual(next)) > 1e-6 {
		t.Errorf("plan for boundary %d centred at %v, want %v", turnAt+1, e.Center, actual(next))
	}
	if got := sub.cache.StagedBoundaries(); len(got) != 3 || got[0] != turnAt+1 {
		t.Errorf("staged boundaries %v, want the three from %d", got, turnAt+1)
	}
	if after.CorridorStaged < before.CorridorStaged+3 {
		t.Errorf("corridor staged %d -> %d snapshots; a profile replacement re-sweeps the window", before.CorridorStaged, after.CorridorStaged)
	}

	r, class = step(turnAt + 1)
	final := stats()
	if final.CorridorMispredicts != after.CorridorMispredicts || class != obs.ClassCorridor || !r.CorridorHit {
		t.Errorf("boundary after the correction: class %v, mispredicts %d -> %d; want a warm corridor serve", class, after.CorridorMispredicts, final.CorridorMispredicts)
	}
	if final.Replans != after.Replans {
		t.Errorf("replans rose to %d without a mispredict", final.Replans)
	}
}

// TestStreamProfileInstalledOnceBeforeItsBoundary subscribes a
// ProfileSource with one prediction delivered by the epoch and a second
// delivered between the second and third boundaries. Subscribe plans from
// the first; the second is installed exactly once, ahead of the first
// boundary at or after its delivery.
func TestStreamProfileInstalledOnceBeforeItsBoundary(t *testing.T) {
	svc := pathService(t)
	start := geom.Pt(300, 300)
	first := lineProfile(start, geom.V(5, 0), 0, pathPeriod)
	deliverAt := 2*pathPeriod + pathPeriod/2
	second := lineProfile(geom.Pt(320, 330), geom.V(0, 5), deliverAt, pathPeriod)
	src := scriptedMotion{
		pos:      func(time.Duration) Point { return start },
		profiles: []mobility.TimedProfile{{Deliver: 0, Profile: first}, {Deliver: deliverAt, Profile: second}},
	}
	sub, err := svc.Subscribe(context.Background(), pathSpec(JITStrategy(), 0), src)
	if err != nil {
		t.Fatal(err)
	}
	centre := func(k int) geom.Point {
		t.Helper()
		e, ok := sub.planner.EntryFor(time.Duration(k) * pathPeriod)
		if !ok {
			t.Fatalf("no plan entry for boundary %d", k)
		}
		return e.Center
	}
	if st, _ := sub.PrefetchStats(); st.Replans != 0 {
		t.Fatalf("Subscribe counted %d replans", st.Replans)
	}
	if got, want := centre(4), first.PredictAt(4*pathPeriod); got != want {
		t.Fatalf("plan starts from %v at boundary 4, want the delivered prediction's %v, not the bootstrap", got, want)
	}

	for k := 1; k <= 4; k++ {
		wantReplans := 0
		if k >= 3 {
			wantReplans = 1 // boundary 4 follows the delivery too, and installs nothing twice
		}
		if err := svc.Advance(pathPeriod); err != nil {
			t.Fatal(err)
		}
		if r, _ := served(t, sub); r.K != k {
			t.Fatalf("boundary %d: evaluated K=%d", k, r.K)
		}
		st, _ := sub.PrefetchStats()
		if st.Replans != wantReplans {
			t.Fatalf("after boundary %d: %d replans, want %d", k, st.Replans, wantReplans)
		}
		if wantReplans == 1 && st.Epoch != deliverAt {
			t.Errorf("boundary %d: plan epoch %v, want the delivery instant %v", k, st.Epoch, deliverAt)
		}
	}
	if got, want := centre(5), second.PredictAt(5*pathPeriod); got != want {
		t.Errorf("plan centred at %v for boundary 5, want the second prediction's %v", got, want)
	}
}

// TestUnplannedPathIsInert pins the shape an on-demand subscription relies
// on: it attaches nothing, has no prefetch ledger, ignores re-plans and
// classifies its serves cold. That attaching it allocates nothing is
// TestSubscribeAllocations'.
func TestUnplannedPathIsInert(t *testing.T) {
	svc := pathService(t)
	start := geom.Pt(500, 500)
	sub, err := svc.Subscribe(context.Background(), pathSpec(OnDemandStrategy(), 0), StaticPosition(start))
	if err != nil {
		t.Fatal(err)
	}
	if sub.planner != nil || sub.cache != nil || sub.pyramid != nil {
		t.Fatal("on-demand subscription attached serve machinery")
	}
	if _, ok := sub.PrefetchStats(); ok {
		t.Error("on-demand subscription has prefetch stats")
	}
	if err := sub.UpdateWaypoint(start); err != nil {
		t.Fatal(err)
	}
	if err := svc.Advance(pathPeriod); err != nil {
		t.Fatal(err)
	}
	if _, class := served(t, sub); class != obs.ClassCold {
		t.Errorf("on-demand serve classified %v", class)
	}
}
