package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

func TestTemporalSpecValidate(t *testing.T) {
	good := TemporalSpec{Period: time.Second, Deadline: 100 * time.Millisecond, Fresh: time.Second}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []TemporalSpec{
		{Period: 0},
		{Period: -time.Second},
		{Period: time.Second, Deadline: -1},
		{Period: time.Second, Fresh: -1},
	}
	for i, ts := range bad {
		if ts.Validate() == nil {
			t.Errorf("spec %d (%+v): expected validation error", i, ts)
		}
	}
}

// TestScheduleSamplerRejectsNonPositivePeriod pins the constructor's panic:
// a zero period would otherwise divide by zero in the first evaluation, on
// a pool worker (or inside PopDue's column build), far from its cause.
func TestScheduleSamplerRejectsNonPositivePeriod(t *testing.T) {
	for _, period := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, period.String()) {
					t.Errorf("ScheduleSampler(%v): panic %q does not name the period", period, msg)
				}
			}()
			ScheduleSampler(period, func(int32) sim.Time { return 0 })
		}()
	}
}

func TestNewQueryEngineEAndRegisterE(t *testing.T) {
	if _, err := NewQueryEngineE(geom.Square(100), 10, nil, EngineConfig{}); err == nil {
		t.Error("nil field should be an error")
	}
	if _, err := NewQueryEngineE(geom.Square(100), 10, field.Uniform{Value: 1}, EngineConfig{Workers: -1}); err == nil {
		t.Error("negative workers should be an error")
	}
	e := testEngine(EngineConfig{})
	spec := TemporalSpec{Period: time.Second}
	if err := e.RegisterTemporalE(0, 10, geom.Pt(0, 0), spec, 0); err == nil {
		t.Error("zero id should be an error")
	}
	if err := e.RegisterTemporalE(1, 0, geom.Pt(0, 0), spec, 0); err == nil {
		t.Error("zero radius should be an error")
	}
	if err := e.RegisterTemporalE(1, 10, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatalf("RegisterTemporalE: %v", err)
	}
	if err := e.RegisterTemporalE(1, 10, geom.Pt(0, 0), spec, 0); err == nil {
		t.Error("duplicate id should be an error")
	}
	// A deregistered id is free for re-registration.
	e.Deregister(1)
	if err := e.RegisterTemporalE(1, 20, geom.Pt(5, 5), spec, 0); err != nil {
		t.Fatalf("re-register after deregister: %v", err)
	}
}

// temporalEngine builds a three-node engine with a fixed sampling history:
// node 0 sampled at 1.5 s, node 1 at 200 ms, node 2 never.
func temporalEngine(t *testing.T) *QueryEngine {
	t.Helper()
	e := NewQueryEngine(geom.Square(1000), 100, field.Gradient{Base: 10, Slope: geom.V(1, 0)}, EngineConfig{})
	samples := map[int32]sim.Time{0: 1500 * time.Millisecond, 1: 200 * time.Millisecond}
	e.SetSampler(func(id int32, at sim.Time) (sim.Time, bool) {
		s, ok := samples[id]
		if !ok || s > at {
			return 0, false
		}
		return s, true
	})
	e.UpsertNode(0, geom.Pt(10, 0))
	e.UpsertNode(1, geom.Pt(20, 0))
	e.UpsertNode(2, geom.Pt(30, 0))
	return e
}

func TestEvaluateDueFreshnessWindow(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Fresh: time.Second}
	if err := e.RegisterTemporalE(7, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatalf("RegisterTemporalE: %v", err)
	}

	// Not yet due before the first period boundary.
	if _, ok := e.EvaluateDueBatch(7, 1999*time.Millisecond, nil); ok {
		t.Fatal("EvaluateDue before the boundary should not fire")
	}
	k, due, ok := e.NextDue(7)
	if !ok || k != 1 || due != 2*time.Second {
		t.Fatalf("NextDue = (%d, %v, %v), want (1, 2s, true)", k, due, ok)
	}

	// At the boundary: node 0 (age 500 ms) is fresh; node 1 (age 1.8 s)
	// and node 2 (never sampled) are stale.
	res, ok := e.EvaluateDueBatch(7, 2*time.Second, nil)
	if !ok {
		t.Fatal("EvaluateDue at the boundary should fire")
	}
	if res.K != 1 || res.Due != 2*time.Second || res.EvaluatedAt != 2*time.Second {
		t.Errorf("period header = %d/%v/%v", res.K, res.Due, res.EvaluatedAt)
	}
	if res.Late || res.Lateness != 0 {
		t.Errorf("on-time evaluation marked late (%v)", res.Lateness)
	}
	if res.AreaNodes != 3 || res.StaleNodes != 2 || res.Data.Count != 1 {
		t.Errorf("area %d stale %d count %d, want 3/2/1", res.AreaNodes, res.StaleNodes, res.Data.Count)
	}
	if res.MaxStaleness != 500*time.Millisecond {
		t.Errorf("MaxStaleness = %v, want 500ms", res.MaxStaleness)
	}
	// Node 0 sits at x=10 under the gradient: reading 10 + 10*1 = 20.
	if v := res.Data.Value(AggAvg); v != 20 {
		t.Errorf("aggregate = %v, want 20", v)
	}

	// Exactly one period was consumed: the next one is period 2, and it does
	// not fire a second time at the same instant.
	if k, due, ok := e.NextDue(7); !ok || k != 2 || due != 4*time.Second {
		t.Errorf("NextDue after one evaluation = (%d, %v, %v), want (2, 4s, true)", k, due, ok)
	}
	if _, ok := e.EvaluateDueBatch(7, 2*time.Second, nil); ok {
		t.Error("the evaluated period fired again")
	}
}

func TestEvaluateDueZeroFreshAcceptsAnyReading(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second} // Fresh 0: unbounded window
	if err := e.RegisterTemporalE(9, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatal(err)
	}
	res, ok := e.EvaluateDueBatch(9, 2*time.Second, nil)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	// Both sampled nodes contribute however old; the never-sampled node
	// still cannot.
	if res.Data.Count != 2 || res.StaleNodes != 1 {
		t.Fatalf("count %d stale %d, want 2 / 1", res.Data.Count, res.StaleNodes)
	}
	if res.MaxStaleness != 1800*time.Millisecond {
		t.Errorf("MaxStaleness = %v, want 1.8s", res.MaxStaleness)
	}
}

func TestEvaluateDueDeadlineAccounting(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Deadline: 100 * time.Millisecond, Fresh: time.Second}
	if err := e.RegisterTemporalE(3, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatal(err)
	}
	// Jump straight to 6.05 s: periods 1 (due 2 s) and 2 (due 4 s) are
	// past the slack and late; period 3 (due 6 s) is within it.
	now := 6050 * time.Millisecond
	var got []WindowResult
	for {
		res, ok := e.EvaluateDueBatch(3, now, nil)
		if !ok {
			break
		}
		got = append(got, res)
	}
	if len(got) != 3 {
		t.Fatalf("evaluated %d periods, want 3", len(got))
	}
	wantLate := []struct {
		late     bool
		lateness time.Duration
	}{
		{true, 4050 * time.Millisecond},
		{true, 2050 * time.Millisecond},
		{false, 0},
	}
	for i, res := range got {
		if res.K != i+1 || res.Due != time.Duration(i+1)*2*time.Second {
			t.Errorf("period %d header = %d/%v", i, res.K, res.Due)
		}
		if res.Late != wantLate[i].late || res.Lateness != wantLate[i].lateness {
			t.Errorf("period %d late = %v/%v, want %v/%v",
				i, res.Late, res.Lateness, wantLate[i].late, wantLate[i].lateness)
		}
	}
	if k, due, _ := e.NextDue(3); k != 4 || due != 8*time.Second {
		t.Errorf("NextDue after the drain = (%d, %v), want (4, 8s)", k, due)
	}
}

// TestEvaluateDueNonTemporalAndUnknown pins what has no period to evaluate: an
// unknown id answers nothing, and a query without a period is refused at
// registration.
func TestEvaluateDueNonTemporalAndUnknown(t *testing.T) {
	e := temporalEngine(t)
	if _, _, ok := e.NextDue(999); ok {
		t.Error("NextDue answered for an unknown query")
	}
	if _, ok := e.EvaluateDueBatch(999, time.Hour, nil); ok {
		t.Error("EvaluateDue fired for an unknown query")
	}
	if err := e.RegisterTemporalE(6, 100, geom.Pt(0, 0), TemporalSpec{}, 0); err == nil {
		t.Error("zero period should be rejected")
	}
}

// fakePlan is a scripted PrefetchPlan: boundaries in staged are ready at
// the boundary itself; boundaries before warmupUntil are warmup.
type fakePlan struct {
	staged      map[sim.Time]bool
	warmupUntil sim.Time
}

func (f fakePlan) PeriodStatus(due sim.Time) (sim.Time, bool, bool) {
	return due, f.staged[due], due < f.warmupUntil
}

// TestPerQuerySamplerOverridesGlobal pins the per-query sampler hook: a
// query with its own AreaSampler ignores the engine-global schedule, serves
// plan readings to the nodes the sampler marks, and counts them in
// Prefetched — while other queries keep the global schedule.
func TestPerQuerySamplerOverridesGlobal(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Fresh: time.Second}
	if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTemporalE(2, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatal(err)
	}
	// Query 1's sampler: nodes left of x=25 get a fresh prefetched reading
	// captured at the boundary; the rest are unsampled.
	ok := e.SetQuerySampler(1, func(id int32, pos geom.Point, at sim.Time) (sim.Time, bool, bool) {
		if pos.X < 25 {
			return at, true, true
		}
		return 0, false, false
	})
	if !ok {
		t.Fatal("SetQuerySampler rejected a registered query")
	}

	res, ok := e.EvaluateDueBatch(1, 2*time.Second, nil)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	// Nodes 0 (x=10) and 1 (x=20) prefetched fresh; node 2 (x=30) unsampled.
	if res.Prefetched != 2 || res.Data.Count != 2 || res.StaleNodes != 1 {
		t.Errorf("prefetched/count/stale = %d/%d/%d, want 2/2/1", res.Prefetched, res.Data.Count, res.StaleNodes)
	}
	if res.MaxStaleness != 0 {
		t.Errorf("boundary-captured readings should have zero staleness, got %v", res.MaxStaleness)
	}

	// Query 2 still sees the global schedule: only node 0 is fresh.
	res2, _ := e.EvaluateDueBatch(2, 2*time.Second, nil)
	if res2.Prefetched != 0 || res2.Data.Count != 1 || res2.StaleNodes != 2 {
		t.Errorf("global-sampler query: prefetched/count/stale = %d/%d/%d, want 0/1/2", res2.Prefetched, res2.Data.Count, res2.StaleNodes)
	}

	if e.SetQuerySampler(99, nil) || e.SetQueryPlan(99, nil) {
		t.Error("per-query hooks accepted an unknown query")
	}
}

// fakeWarmer is a scripted CorridorWarmer: it serves the fixed node list
// (filtered to the evaluated circle) for boundaries in staged, and refuses
// everything else.
type fakeWarmer struct {
	staged map[sim.Time]bool
	nodes  []struct {
		id  int32
		pos geom.Point
	}
	serves, refusals int
}

func (f *fakeWarmer) VisitStaged(due sim.Time, center geom.Point, radius float64, fn func(id int32, pos geom.Point)) bool {
	if !f.staged[due] {
		f.refusals++
		return false
	}
	for _, n := range f.nodes {
		if n.pos.Dist2(center) <= radius*radius {
			fn(n.id, n.pos)
		}
	}
	f.serves++
	return true
}

// TestCorridorWarmerServesStagedBoundaries pins the warmer hook: a staged
// boundary is enumerated from the warmer's buffer (CorridorHit true) with
// results identical to the cold scan, an unstaged boundary falls back to
// the cold scan, and a query without a warmer never sets CorridorHit.
func TestCorridorWarmerServesStagedBoundaries(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Fresh: 10 * time.Second}
	if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTemporalE(2, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatal(err)
	}
	// The warmer's snapshot is exactly the grid's nodes — the contract a
	// real corridor cache proves with coverage and version checks.
	w := &fakeWarmer{staged: map[sim.Time]bool{2 * time.Second: true}}
	for _, n := range []struct {
		id int32
		x  float64
	}{{0, 10}, {1, 20}, {2, 30}} {
		w.nodes = append(w.nodes, struct {
			id  int32
			pos geom.Point
		}{n.id, geom.Pt(n.x, 0)})
	}
	if !e.SetQueryWarmer(1, w) {
		t.Fatal("SetQueryWarmer rejected a registered query")
	}

	warm, ok := e.EvaluateDueBatch(1, 2*time.Second, nil)
	if !ok || !warm.CorridorHit {
		t.Fatalf("staged boundary not served warm (ok %v, hit %v)", ok, warm.CorridorHit)
	}
	cold, ok := e.EvaluateDueBatch(2, 2*time.Second, nil)
	if !ok || cold.CorridorHit {
		t.Fatalf("warmer-less query reported a corridor hit (ok %v)", ok)
	}
	if warm.AreaNodes != cold.AreaNodes || warm.StaleNodes != cold.StaleNodes ||
		warm.Data.Count != cold.Data.Count || warm.Data.Sum != cold.Data.Sum {
		t.Errorf("warm result diverged from cold: %+v vs %+v", warm, cold)
	}
	if w.serves != 1 {
		t.Errorf("warmer served %d boundaries, want 1", w.serves)
	}

	// Boundary 2 (due 4s) is not staged: cold fallback, no hit.
	fallback, ok := e.EvaluateDueBatch(1, 4*time.Second, nil)
	if !ok || fallback.CorridorHit {
		t.Fatalf("unstaged boundary reported a corridor hit (ok %v)", ok)
	}
	if w.refusals != 1 {
		t.Errorf("warmer refused %d boundaries, want 1", w.refusals)
	}

	if e.SetQueryWarmer(99, w) {
		t.Error("SetQueryWarmer accepted an unknown query")
	}
}

// TestEvaluateDueCreditsStagedPeriods pins the plan hook in the deadline
// ledger: a period the plan staged by its boundary is accounted as
// evaluated at the boundary even when the clock tick collecting it runs
// late, while unstaged (warmup) periods keep tick accounting.
func TestEvaluateDueCreditsStagedPeriods(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Deadline: 100 * time.Millisecond}
	if err := e.RegisterTemporalE(4, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatal(err)
	}
	plan := fakePlan{
		staged:      map[sim.Time]bool{4 * time.Second: true, 6 * time.Second: true},
		warmupUntil: 4 * time.Second,
	}
	if !e.SetQueryPlan(4, plan) {
		t.Fatal("SetQueryPlan rejected a registered query")
	}
	// The plan's chains cover the whole area: every reading is prefetched,
	// captured at the boundary (boundary credit requires actual coverage).
	e.SetQuerySampler(4, func(id int32, pos geom.Point, at sim.Time) (sim.Time, bool, bool) {
		return at, true, true
	})
	now := 6500 * time.Millisecond // all three periods collected in one step
	var got []WindowResult
	for {
		res, ok := e.EvaluateDueBatch(4, now, nil)
		if !ok {
			break
		}
		got = append(got, res)
	}
	if len(got) != 3 {
		t.Fatalf("evaluated %d periods, want 3", len(got))
	}
	// Period 1 (due 2s): unstaged warmup, evaluated at the tick, late.
	if !got[0].Late || got[0].EvaluatedAt != now || !got[0].Warmup {
		t.Errorf("warmup period = late %v / at %v / warmup %v, want late tick accounting", got[0].Late, got[0].EvaluatedAt, got[0].Warmup)
	}
	if got[0].Lateness != now-2*time.Second {
		t.Errorf("warmup lateness = %v, want %v", got[0].Lateness, now-2*time.Second)
	}
	// Periods 2 and 3 (due 4s, 6s): staged at their boundaries, on time.
	for i, res := range got[1:] {
		if res.Late || res.Lateness != 0 || res.Warmup {
			t.Errorf("staged period %d marked late (%v) or warmup (%v)", i+2, res.Lateness, res.Warmup)
		}
		if res.EvaluatedAt != res.Due {
			t.Errorf("staged period %d evaluated at %v, want its boundary %v", i+2, res.EvaluatedAt, res.Due)
		}
	}
	late := 0
	for _, res := range got {
		if res.Late {
			late++
		}
	}
	if late != 1 {
		t.Errorf("%d of the returned periods are late, want 1", late)
	}
}

// TestStagedCreditRequiresCoverage pins the prediction-miss rule: a plan
// that claims a period staged but whose chains served no reading to the
// actual (non-empty) query area gets no boundary credit — the answer was
// really assembled on demand at the tick, and the ledger says so.
func TestStagedCreditRequiresCoverage(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Deadline: 100 * time.Millisecond}
	if err := e.RegisterTemporalE(8, 100, geom.Pt(0, 0), spec, 0); err != nil {
		t.Fatal(err)
	}
	// Staged per the plan, but the per-query sampler never marks a reading
	// prefetched — the chains went to a mispredicted area.
	e.SetQueryPlan(8, fakePlan{staged: map[sim.Time]bool{2 * time.Second: true}})
	e.SetQuerySampler(8, func(id int32, pos geom.Point, at sim.Time) (sim.Time, bool, bool) {
		return at, true, false
	})
	now := 2500 * time.Millisecond
	res, ok := e.EvaluateDueBatch(8, now, nil)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	if res.Prefetched != 0 || res.AreaNodes == 0 {
		t.Fatalf("setup broken: prefetched %d over %d area nodes", res.Prefetched, res.AreaNodes)
	}
	if res.EvaluatedAt != now || !res.Late || res.Lateness != now-2*time.Second {
		t.Errorf("uncovered staged period credited: at %v late %v (%v), want tick accounting", res.EvaluatedAt, res.Late, res.Lateness)
	}
	// Over an empty area the staged empty answer is the answer: credit.
	if err := e.RegisterTemporalE(9, 50, geom.Pt(900, 900), spec, 0); err != nil {
		t.Fatal(err)
	}
	e.SetQueryPlan(9, fakePlan{staged: map[sim.Time]bool{2 * time.Second: true}})
	res, ok = e.EvaluateDueBatch(9, now, nil)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	if res.AreaNodes != 0 || res.Late || res.EvaluatedAt != 2*time.Second {
		t.Errorf("empty-area staged period = %d nodes / late %v / at %v, want boundary credit", res.AreaNodes, res.Late, res.EvaluatedAt)
	}
}

func TestEvaluateDueDefaultSamplerIsInstantaneous(t *testing.T) {
	// Without a sampler the windowed path degenerates to the oracle:
	// readings taken at the boundary itself, nothing stale.
	e := NewQueryEngine(geom.Square(1000), 100, field.Uniform{Value: 42}, EngineConfig{})
	e.UpsertNode(0, geom.Pt(10, 0))
	e.UpsertNode(1, geom.Pt(20, 0))
	if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), TemporalSpec{Period: time.Second, Fresh: time.Millisecond}, 0); err != nil {
		t.Fatal(err)
	}
	res, ok := e.EvaluateDueBatch(1, time.Second, nil)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	if res.Data.Count != 2 || res.StaleNodes != 0 || res.MaxStaleness != 0 {
		t.Errorf("instantaneous window = %d nodes / %d stale / %v staleness",
			res.Data.Count, res.StaleNodes, res.MaxStaleness)
	}
	if v := res.Data.Value(AggAvg); v != 42 {
		t.Errorf("aggregate = %v, want 42", v)
	}
	if math.IsNaN(res.Data.Value(AggMin)) {
		t.Error("min of populated window is NaN")
	}
}

// coldBenchEngine is the field both evaluation gates run over: 5000 nodes on
// a phased one-second sampling schedule, about 88 of them in a radius-150
// disk, half of those inside coldBenchSpec's freshness window.
func coldBenchEngine() (*QueryEngine, *rand.Rand) {
	region := geom.Square(2000)
	e := NewQueryEngine(region, 2000.0/32, field.Gradient{Base: 10, Slope: geom.V(0.01, 0.005)}, EngineConfig{})
	e.SetSampler(ScheduleSampler(time.Second, func(id int32) sim.Time {
		return sim.Time(uint64(id+1) * 2654435761 % uint64(time.Second))
	}))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		e.UpsertNode(radio.NodeID(i), region.UniformPoint(rng))
	}
	return e, rng
}

var coldBenchSpec = TemporalSpec{Period: time.Second, Fresh: 500 * time.Millisecond}

// BenchmarkEvaluateDueCold measures one steady-state cold evaluation — a
// radius-150 disk over a 5000-node field with a phased sampling schedule,
// about 88 nodes per area — and is its own gate: single-pass evaluation
// folds into the result as the grid is visited, so the timed loop must not
// allocate at all. It b.Fatals otherwise (make bench runs it), the same
// pattern as the idle arm of BenchmarkAdvance1M.
func BenchmarkEvaluateDueCold(b *testing.B) {
	b.ReportAllocs()
	e, _ := coldBenchEngine()
	spec := coldBenchSpec
	if err := e.RegisterTemporalE(1, 150, geom.Pt(1000, 1000), spec, 0); err != nil {
		b.Fatal(err)
	}
	// The first period arms the schedule entry and anything else lazy.
	if res, ok := e.EvaluateDueBatch(1, time.Second, nil); !ok || res.Data.Count == 0 || res.StaleNodes == 0 {
		b.Fatalf("warm-up period: ok %v, %d fresh / %d stale nodes; the disk must hold both", ok, res.Data.Count, res.StaleNodes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.EvaluateDueBatch(1, sim.Time(i+2)*time.Second, nil); !ok {
			b.Fatal("period not due at its boundary")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		b.Fatalf("cold EvaluateDue allocated %d times over %d evaluations; single-pass evaluation must not allocate", allocs, b.N)
	}
}

// BenchmarkEvaluateDueColumned is BenchmarkEvaluateDueCold's sibling through
// the batch path: 1000 such queries on one boundary, timed per boundary
// through PopDue — where the payoff rule builds the boundary's reading
// column across the worker pool — then every evaluation and the re-arm
// flush. The same gate, with one allowance: nothing of ours may allocate per
// boundary — the column build and its worker fan-out included — but the
// fan-out starts goroutines and parks on them, and the runtime allocates
// those and their wait records afresh whenever the per-P free list it looks
// in happens to be empty, a few times per hundred boundaries for as long as
// the lists take to level out. So the gate is one allocation per four
// boundaries, where anything per boundary reads as one or more. The
// evaluations run on this goroutine into one re-arm batch, as the
// repository benchmark's engine cycle does: fanned out, which worker takes
// which query varies from boundary to boundary, and a re-arm bucket may
// grow on any of them.
func BenchmarkEvaluateDueColumned(b *testing.B) {
	b.ReportAllocs()
	e, rng := coldBenchEngine()
	spec := coldBenchSpec
	const queries = 1000
	for i := 1; i <= queries; i++ {
		if err := e.RegisterTemporalE(uint32(i), 150, geom.Pt(500+1000*rng.Float64(), 500+1000*rng.Float64()), spec, 0); err != nil {
			b.Fatal(err)
		}
	}
	rb := e.NewRearmBatch()
	var batch []DueEntry
	now := sim.Time(0)
	boundary := func() {
		now += time.Second
		batch = e.PopDue(now, batch[:0])
		for i := range batch {
			batch[i].Query.EvaluateDue(now, rb)
		}
		e.FlushRearms(rb)
	}
	// The first boundaries grow the batch, the re-arm buckets and the column.
	const warm = 4
	for i := 0; i < warm; i++ {
		boundary()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boundary()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if st := e.ColumnStats(); st.Builds != uint64(b.N)+warm || st.Scans != queries*st.Builds {
		b.Fatalf("column stats %+v over %d boundaries of %d queries: every scan must fold through its boundary's column", st, b.N+warm, queries)
	}
	if allocs := after.Mallocs - before.Mallocs; 4*allocs > uint64(b.N)+16 {
		b.Fatalf("%d boundaries through PopDue, evaluation and FlushRearms allocated %d times; the column build and the fan-out must not allocate per boundary", b.N, allocs)
	}
}
