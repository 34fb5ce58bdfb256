package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mobiquery"
)

func smallChurn() scenario {
	sc := defaultChurn()
	sc.net.Nodes = 1500
	sc.net.RegionSide = 1000
	sc.users = 8
	sc.churners = 20
	sc.duration = 20 * time.Second
	return sc
}

func smallPrefetch() scenario {
	sc := defaultPrefetch()
	sc.net.Nodes = 1500
	sc.net.RegionSide = 1000
	sc.users = 10
	sc.duration = 20 * time.Second
	return sc
}

// smallPyramid keeps the disks large relative to the Service's index cells,
// so covered tiles actually form.
func smallPyramid() scenario {
	sc := defaultPyramid()
	sc.users = 8
	sc.net.Nodes = 1500
	sc.duration = 10 * time.Second
	return sc
}

func smallScale() scenario {
	sc := defaultScale()
	sc.net.Nodes = 3000
	sc.users = 400
	sc.net.RegionSide = 2000
	sc.duration = 3 * time.Second
	return sc
}

// rejects runs a figure once per mutation of its default scenario and
// requires each to fail.
func rejects(t *testing.T, def func() scenario, run func(scenario) (result, error), bad ...func(*scenario)) {
	t.Helper()
	for i, mutate := range bad {
		sc := def()
		mutate(&sc)
		if _, err := run(sc); err == nil {
			t.Errorf("mutation %d: expected a configuration error", i)
		}
	}
}

// common are the mutations every temporal figure must refuse: the Service's
// Open and Subscribe refuse the field and contract ones, the driver the
// clock ones.
var common = []func(*scenario){
	func(sc *scenario) { sc.net.Nodes = 0 },
	func(sc *scenario) { sc.users = 0 },
	func(sc *scenario) { sc.spec.Radius = 0 },
	func(sc *scenario) { sc.net.SamplePeriod = -1 },
	func(sc *scenario) { sc.spec.Period = 0 },
	func(sc *scenario) { sc.spec.Deadline = -1 },
	func(sc *scenario) { sc.tick = 0 },
	func(sc *scenario) { sc.duration = sc.spec.Period / 2 },
}

func TestChurnValidate(t *testing.T) {
	rejects(t, defaultChurn, runChurn, append(common, func(sc *scenario) { sc.churners = -1 })...)
}

func TestChurnRunsAndCounts(t *testing.T) {
	sc := smallChurn()
	res, err := runChurn(sc)
	if err != nil {
		t.Fatal(err)
	}
	out := res.arm(churnArm)
	// Static users stream for the whole run: duration/period results each.
	if static := sc.users * int(sc.duration/sc.spec.Period); out.periods < static {
		t.Errorf("evaluations = %d, want at least the static population's %d", out.periods, static)
	}
	if out.joins == 0 || out.leaves == 0 {
		t.Errorf("churn did not churn: %d joins, %d leaves", out.joins, out.leaves)
	}
	if out.joins < out.leaves {
		t.Errorf("more leaves (%d) than joins (%d)", out.leaves, out.joins)
	}
	if out.peakLive < sc.users || out.peakLive > sc.users+sc.churners {
		t.Errorf("peak live population %d outside [%d, %d]", out.peakLive, sc.users, sc.users+sc.churners)
	}
	// Period and tick are aligned, so nothing should be late; the 1 s
	// sampling against a 1 s freshness window keeps everything fresh.
	if out.late != 0 {
		t.Errorf("aligned ticks produced %d late results", out.late)
	}
	if out.meanFresh() <= 0 {
		t.Error("no sensor ever contributed; geometry or sampling is off")
	}
}

// TestChurnDoesNotPerturbStaticUsers pins the isolation property behind
// dynamic membership: the static users' full per-period outcome digest is
// identical whether or not a churning population shares the Service.
func TestChurnDoesNotPerturbStaticUsers(t *testing.T) {
	res, err := runChurn(smallChurn())
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.arm(churnArm), res.arm(staticArm)
	if a.digest != b.digest {
		t.Fatalf("churners changed the static users' results: digest %#x with churn, %#x without", a.digest, b.digest)
	}
	if a.joins == 0 {
		t.Error("the churn arm admitted no churner; the comparison is vacuous")
	}
	if b.joins != 0 || b.leaves != 0 {
		t.Errorf("churner-free arm reported churn: %d/%d", b.joins, b.leaves)
	}
	// Leaving the churners out of the configuration is the same experiment.
	alone := smallChurn()
	alone.churners = 0
	res, err = runChurn(alone)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.arm(churnArm); c.digest != a.digest || c.joins != 0 {
		t.Errorf("churners=0 run: digest %#x (want %#x), %d joins", c.digest, a.digest, c.joins)
	}
}

// TestChurnCoarseTicksGoLate pins the deadline ledger: when the clock
// advances in steps coarser than the deadline slack allows, periods come
// due mid-step and their results are marked late.
func TestChurnCoarseTicksGoLate(t *testing.T) {
	sc := smallChurn()
	sc.churners = 0
	sc.spec.Period = time.Second
	sc.tick = 300 * time.Millisecond // does not divide the period
	res, err := runChurn(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.arm(churnArm).late == 0 {
		t.Fatal("misaligned ticks produced no late results; deadline accounting is dead")
	}
	// A generous slack forgives the misalignment entirely.
	sc.spec.Deadline = sc.tick
	if res, err = runChurn(sc); err != nil {
		t.Fatal(err)
	}
	if late := res.arm(churnArm).late; late != 0 {
		t.Fatalf("slack of one tick still left %d late results", late)
	}
}

func TestChurnStaleExclusions(t *testing.T) {
	sc := smallChurn()
	sc.churners = 0
	sc.net.SamplePeriod = 1500 * time.Millisecond // slower than the window
	sc.spec.Freshness = 500 * time.Millisecond
	sc.net.Field = mobiquery.UniformField(7)
	res, err := runChurn(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.arm(churnArm).stale == 0 {
		t.Fatal("sampling slower than the freshness window excluded nothing; the window is dead")
	}
}

func TestPrefetchValidate(t *testing.T) {
	rejects(t, defaultPrefetch, runPrefetch, append(common, func(sc *scenario) { sc.lookahead = -1 })...)
}

// TestPrefetchBeatsOnDemand pins the figure's headline claim: both
// prefetching strategies deliver fewer late periods and fewer stale
// exclusions than on-demand collection over the identical workload, with
// prefetched readings actually doing the work.
func TestPrefetchBeatsOnDemand(t *testing.T) {
	sc := smallPrefetch()
	res, err := runPrefetch(sc)
	if err != nil {
		t.Fatal(err)
	}
	od, jit, gp := res.arm("on-demand"), res.arm("jit"), res.arm("greedy")
	// Users × the periods the tick grid reaches (the last tick lands at
	// 19.8 s, short of the period-20 boundary).
	lastTick := sc.duration / sc.tick * sc.tick
	wantEvals := sc.users * int(lastTick/sc.spec.Period)
	for _, out := range []outcome{od, jit, gp} {
		if out.periods != wantEvals {
			t.Errorf("%v: %d evaluations, want %d", out.strategy, out.periods, wantEvals)
		}
	}
	if od.late == 0 || od.stale == 0 {
		t.Fatalf("on-demand baseline shows no pain (late %d, stale %d); the comparison is vacuous", od.late, od.stale)
	}
	if jit.late >= od.late || gp.late >= od.late {
		t.Errorf("late periods: on-demand %d, jit %d, greedy %d — prefetching should win", od.late, jit.late, gp.late)
	}
	if jit.stale >= od.stale || gp.stale >= od.stale {
		t.Errorf("stale exclusions: on-demand %d, jit %d, greedy %d — prefetching should win", od.stale, jit.stale, gp.stale)
	}
	if jit.prefetched == 0 || gp.prefetched == 0 {
		t.Error("prefetching strategies served no prefetched readings")
	}
	if od.prefetched != 0 || od.warmup != 0 || od.storage != 0 {
		t.Errorf("on-demand pass carries prefetch artifacts: %+v", od)
	}
	if jit.warmup == 0 {
		t.Error("zero-advance profiles should cost warmup periods (equation 16)")
	}
	// JIT readings are captured at the boundary; greedy holds them from the
	// window opening, so its contributors run staler.
	if jit.meanStaleness() >= gp.meanStaleness() {
		t.Errorf("mean staleness: jit %v should be below greedy %v", jit.meanStaleness(), gp.meanStaleness())
	}
}

// TestPrefetchStorageMatchesAnalysis pins the live storage ledger to the
// Section 5.2 closed forms: JIT's outstanding chains sit at the equation-12
// constant while Greedy holds its full lookahead window.
func TestPrefetchStorageMatchesAnalysis(t *testing.T) {
	sc := smallPrefetch()
	res, err := runPrefetch(sc)
	if err != nil {
		t.Fatal(err)
	}
	jit, greedy := res.arm("jit"), res.arm("greedy")
	if want := mobiquery.JITStorageBound(sc.net.SamplePeriod, sc.spec.Freshness, sc.spec.Period); jit.storage != want {
		t.Errorf("JIT outstanding = %d, want the equation-12 constant %d", jit.storage, want)
	}
	if greedy.storage != sc.lookahead {
		t.Errorf("Greedy outstanding = %d, want the lookahead %d", greedy.storage, sc.lookahead)
	}
	if greedy.storage <= jit.storage {
		t.Error("greedy should store more chains ahead than JIT (equations 11 vs 12)")
	}
	if greedy.strategy.Lookahead != sc.lookahead {
		t.Errorf("resolved greedy strategy = %+v", greedy.strategy)
	}
}

// TestGreedyShortLookaheadStaysLate pins the equation-10 failure mode: a
// lookahead window smaller than the forward margin is legal but can never
// stage a period by its boundary, so every greedy period stays as late as
// on-demand ones.
func TestGreedyShortLookaheadStaysLate(t *testing.T) {
	sc := smallPrefetch()
	sc.lookahead = 2 // margin is (3s + 2*1s)/1s = 5 periods
	res, err := runPrefetch(sc)
	if err != nil {
		t.Fatalf("short lookahead is legal, just ineffective: %v", err)
	}
	od, greedy := res.arm("on-demand"), res.arm("greedy")
	if greedy.prefetched != 0 {
		t.Errorf("a too-short lookahead still served %d prefetched readings", greedy.prefetched)
	}
	if greedy.late != od.late {
		t.Errorf("unstaged greedy lateness (%d) should match on-demand (%d)", greedy.late, od.late)
	}
}

// TestPyramidFigureServesFromThePyramid pins the pyramid figure's gate: both
// arms are served wholly by the Service's tile pyramid, never by falling back
// cold, and the windowed arm really merges periods. Pyramid == flat scan bit
// for bit is pinned in the engine (TestEvaluateDueMatchesNaiveReference,
// TestWindowedPyramidMatchesCold).
func TestPyramidFigureServesFromThePyramid(t *testing.T) {
	res, err := runPyramid(smallPyramid())
	if err != nil {
		t.Fatal(err)
	}
	single, windowed := res.arm("pyramid"), res.arm("pyramid/window")
	for _, o := range []outcome{single, windowed} {
		if o.periods == 0 || o.periods != single.periods {
			t.Fatalf("%s: %d evaluations, the single-period arm %d", o.label, o.periods, single.periods)
		}
		if o.cold != 0 || o.pyramid != o.periods {
			t.Fatalf("%s: %d/%d served from the pyramid (%d cold) — the gate declined provable serves", o.label, o.pyramid, o.periods, o.cold)
		}
		if o.index.CoveredTiles == 0 || o.index.Builds == 0 {
			t.Fatalf("%s: index ledger %+v shows no decomposition", o.label, o.index)
		}
		if misses := o.index.MissNoEpoch + o.index.MissFreshness; misses != 0 {
			t.Fatalf("%s: %d pyramid misses", o.label, misses)
		}
	}
	// Every windowed result past the first Window-1 folds Window periods, so
	// its digest must differ from the single-period arm's.
	if single.digest == windowed.digest {
		t.Fatal("windowed digest equals single-period digest: Window did nothing")
	}
}

// TestScenarioDigestsInvariant pins determinism and the concurrency
// invariant on every temporal figure: identical configurations agree on
// every arm's digest and ledger, whatever the worker count, and a
// re-run changes nothing.
func TestScenarioDigestsInvariant(t *testing.T) {
	figures := []struct {
		name  string
		small func() scenario
		run   func(scenario) (result, error)
	}{
		{"churn", smallChurn, runChurn},
		{"prefetch", smallPrefetch, runPrefetch},
		{"pyramid", smallPyramid, runPyramid},
	}
	// ledger is an outcome without its wall-clock reading and without the
	// pyramid's own counters, which depend on how workers shared an ingest.
	ledger := func(o outcome) outcome {
		o.advance, o.p50, o.p99, o.index = 0, 0, 0, mobiquery.PyramidStats{}
		return o
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			run := func(workers int) result {
				sc := fig.small()
				sc.net.Service = mobiquery.ServiceConfig{Workers: workers}
				res, err := fig.run(sc)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(0)
			if len(ref.arms) < 2 {
				t.Fatalf("got %d arms", len(ref.arms))
			}
			check := func(what string, got result) {
				t.Helper()
				for i, out := range got.arms {
					if want := ref.arms[i]; ledger(out) != ledger(want) {
						t.Fatalf("%s, %s: results moved (digest %#x vs %#x)\n got %+v\nwant %+v",
							what, out.label, out.digest, want.digest, ledger(out), ledger(want))
					}
				}
			}
			check("identical re-run", run(0))
			for _, workers := range []int{1, 3} {
				check(fmt.Sprintf("workers=%d", workers), run(workers))
			}
		})
	}
}

func TestScaleValidate(t *testing.T) {
	rejects(t, smallScale, runScale,
		func(sc *scenario) { sc.net.Nodes = 0 },
		func(sc *scenario) { sc.users = -1 },
		func(sc *scenario) { sc.spec.Radius = 0 },
		func(sc *scenario) { sc.duration = 0 },
		func(sc *scenario) { sc.step = -1 },
		func(sc *scenario) { sc.net.Service.Shards = -2 },
		func(sc *scenario) { sc.net.Service.Workers = -2 },
	)
}

// runScaleT runs the scale figure at the given worker count and returns its
// one arm.
func runScaleT(t *testing.T, sc scenario, workers int) outcome {
	t.Helper()
	sc.net.Service = mobiquery.ServiceConfig{Workers: workers}
	res, err := runScale(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res.arms[0]
}

// TestScaleShardedMatchesSerial pins the acceptance property of the
// concurrent engine: parallel dispatch changes wall time, never results. The
// headline figure's digest is pinned too, so a change to what the scale run
// computes cannot pass unseen while serial and parallel still agree.
func TestScaleShardedMatchesSerial(t *testing.T) {
	type digest struct {
		digest              uint64
		meanArea, meanValue uint64 // float64 bits
	}
	cases := []struct {
		name string
		sc   scenario
		want *digest
	}{
		{"small", smallScale(), nil},
		{"default", defaultScale(), &digest{0xb162c73fdfed54f8, 0x405172963dc486ad, 0x40417ebf1dadd737}},
	}
	for _, tc := range cases {
		a := runScaleT(t, tc.sc, 1)
		b := runScaleT(t, tc.sc, 8)
		if want := tc.sc.users * tc.sc.rounds(); a.periods != b.periods || a.periods != want {
			t.Fatalf("%s: periods %d vs %d, want %d", tc.name, a.periods, b.periods, want)
		}
		got := digest{a.digest, math.Float64bits(a.meanArea()), math.Float64bits(a.meanValue())}
		if got != (digest{b.digest, math.Float64bits(b.meanArea()), math.Float64bits(b.meanValue())}) {
			t.Fatalf("%s: serial %+v diverges from parallel %+v", tc.name, a, b)
		}
		if a.meanArea() <= 0 {
			t.Fatalf("%s: scale figure evaluated empty areas everywhere; geometry is off", tc.name)
		}
		if tc.want != nil && got != *tc.want {
			t.Fatalf("%s: digest {%#x %#x %#x}, want {%#x %#x %#x}", tc.name,
				got.digest, got.meanArea, got.meanValue, tc.want.digest, tc.want.meanArea, tc.want.meanValue)
		}
	}
}

// TestScaleDeterministicAcrossWorkerCounts re-runs one configuration at
// several pool widths; the digest must never move.
func TestScaleDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := runScaleT(t, smallScale(), 0)
	for _, w := range []int{1, 2, 5} {
		if got := runScaleT(t, smallScale(), w); got.digest != ref.digest || got.area != ref.area {
			t.Fatalf("workers=%d: digest %#x, want %#x", w, got.digest, ref.digest)
		}
	}
}

func TestScaleUniformFieldMeanValue(t *testing.T) {
	sc := smallScale()
	sc.net.Field = mobiquery.UniformField(42)
	if o := runScaleT(t, sc, 0); o.meanValue() != 42 {
		t.Fatalf("mean value over uniform field = %v, want 42", o.meanValue())
	}
}

// TestScaleSweepQuantiles pins the sweep-latency readout: every round
// observed, quantiles positive and ordered.
func TestScaleSweepQuantiles(t *testing.T) {
	o := runScaleT(t, smallScale(), 0)
	if o.p50 <= 0 || o.p99 <= 0 {
		t.Fatalf("sweep quantiles not recorded: p50=%v p99=%v", o.p50, o.p99)
	}
	if o.p50 > o.p99 {
		t.Fatalf("sweep p50 %v > p99 %v", o.p50, o.p99)
	}
}

// BenchmarkScaleScenario runs the multi-user scale figure at a reduced
// population and reports periods per second of Advance wall time.
func BenchmarkScaleScenario(b *testing.B) {
	b.ReportAllocs()
	sc := defaultScale()
	sc.net.Nodes = 20_000
	sc.users = 2000
	sc.net.RegionSide = 5000
	sc.duration = 2 * time.Second
	for i := 0; i < b.N; i++ {
		res, err := runScale(sc)
		if err != nil {
			b.Fatal(err)
		}
		o := res.arms[0]
		b.ReportMetric(float64(o.periods)/o.advance.Seconds(), "evals/s")
		b.ReportMetric(o.meanArea(), "mean-area-nodes")
	}
}

// BenchmarkChurnScenario runs the dynamic-membership figure (streaming
// temporal evaluation with users joining and leaving) at a reduced
// population and reports evaluations per second.
func BenchmarkChurnScenario(b *testing.B) {
	b.ReportAllocs()
	sc := defaultChurn()
	sc.net.Nodes = 2000
	sc.net.RegionSide = 1000
	sc.users = 20
	sc.churners = 40
	sc.duration = 30 * time.Second
	for i := 0; i < b.N; i++ {
		res, err := runChurn(sc)
		if err != nil {
			b.Fatal(err)
		}
		churn, alone := res.arm(churnArm), res.arm(staticArm)
		b.ReportMetric(float64(churn.periods+alone.periods)/res.elapsed.Seconds(), "evals/s")
		b.ReportMetric(churn.meanFresh(), "fresh-sensors")
	}
}
