package experiment

import (
	"testing"
	"time"

	"mobiquery/internal/analysis"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/prefetch"
)

func smallPrefetch() PrefetchConfig {
	cfg := DefaultPrefetch()
	cfg.Nodes = 1500
	cfg.RegionSide = 1000
	cfg.Users = 10
	cfg.Duration = 20 * time.Second
	return cfg
}

// prefetchArms runs the scenario and returns its three arms.
func prefetchArms(t *testing.T, cfg PrefetchConfig) (onDemand, jit, greedy Outcome) {
	t.Helper()
	res, err := RunPrefetch(cfg)
	if err != nil {
		t.Fatalf("RunPrefetch: %v", err)
	}
	if len(res.Arms) != 3 {
		t.Fatalf("got %d arms, want 3", len(res.Arms))
	}
	onDemand, _ = res.Arm("on-demand")
	jit, _ = res.Arm("jit")
	greedy, _ = res.Arm("greedy")
	return onDemand, jit, greedy
}

func TestPrefetchValidate(t *testing.T) {
	if err := DefaultPrefetch().Validate(); err != nil {
		t.Fatalf("default prefetch config invalid: %v", err)
	}
	bad := []func(*PrefetchConfig){
		func(c *PrefetchConfig) { c.Nodes = 0 },
		func(c *PrefetchConfig) { c.Users = 0 },
		func(c *PrefetchConfig) { c.Radius = 0 },
		func(c *PrefetchConfig) { c.SamplePeriod = 0 },
		func(c *PrefetchConfig) { c.Period = 0 },
		func(c *PrefetchConfig) { c.Deadline = -1 },
		func(c *PrefetchConfig) { c.Tick = 0 },
		func(c *PrefetchConfig) { c.Duration = c.Period / 2 },
		func(c *PrefetchConfig) { c.Lookahead = -1 },
		func(c *PrefetchConfig) { c.Replans = -1 },
		func(c *PrefetchConfig) { c.Field = nil },
	}
	for i, mutate := range bad {
		cfg := DefaultPrefetch()
		mutate(&cfg)
		if _, err := RunPrefetch(cfg); err == nil {
			t.Errorf("mutation %d: expected a configuration error", i)
		}
	}
}

// TestPrefetchBeatsOnDemand pins the scenario's headline claim: both
// prefetching strategies deliver fewer late periods and fewer stale
// exclusions than on-demand collection over the identical workload, with
// prefetched readings actually doing the work.
func TestPrefetchBeatsOnDemand(t *testing.T) {
	cfg := smallPrefetch()
	od, jit, gp := prefetchArms(t, cfg)
	// Users × the periods the tick grid reaches (the last tick lands at
	// 19.8 s, short of the period-20 boundary).
	lastTick := cfg.Duration / cfg.Tick * cfg.Tick
	wantEvals := cfg.Users * int(lastTick/cfg.Period)
	for _, out := range []Outcome{od, jit, gp} {
		if out.Evaluations != wantEvals {
			t.Errorf("%v: %d evaluations, want %d", out.Strategy, out.Evaluations, wantEvals)
		}
	}
	if od.Late == 0 || od.StaleExclusions == 0 {
		t.Fatalf("on-demand baseline shows no pain (late %d, stale %d); the comparison is vacuous", od.Late, od.StaleExclusions)
	}
	if jit.Late >= od.Late || gp.Late >= od.Late {
		t.Errorf("late periods: on-demand %d, jit %d, greedy %d — prefetching should win", od.Late, jit.Late, gp.Late)
	}
	if jit.StaleExclusions >= od.StaleExclusions || gp.StaleExclusions >= od.StaleExclusions {
		t.Errorf("stale exclusions: on-demand %d, jit %d, greedy %d — prefetching should win", od.StaleExclusions, jit.StaleExclusions, gp.StaleExclusions)
	}
	if jit.PrefetchedReadings == 0 || gp.PrefetchedReadings == 0 {
		t.Error("prefetching strategies served no prefetched readings")
	}
	if od.PrefetchedReadings != 0 || od.WarmupPeriods != 0 || od.PeakOutstanding != 0 {
		t.Errorf("on-demand pass carries prefetch artifacts: %+v", od)
	}
	if jit.WarmupPeriods == 0 {
		t.Error("zero-advance profiles should cost warmup periods (equation 16)")
	}
	// JIT readings are captured at the boundary; greedy holds them from the
	// window opening, so its contributors run staler.
	if jit.MeanStaleness >= gp.MeanStaleness {
		t.Errorf("mean staleness: jit %v should be below greedy %v", jit.MeanStaleness, gp.MeanStaleness)
	}
}

// TestPrefetchStorageMatchesAnalysis pins the live storage ledger to the
// Section 5.2 closed forms: JIT's outstanding chains stay at the
// equation-12 constant while Greedy holds its full lookahead window.
func TestPrefetchStorageMatchesAnalysis(t *testing.T) {
	cfg := smallPrefetch()
	_, jit, greedy := prefetchArms(t, cfg)
	q := analysis.QueryParams{Period: cfg.Period, Fresh: cfg.Fresh, Sleep: cfg.SamplePeriod}
	if want := analysis.StorageJIT(q); jit.PeakOutstanding != want {
		t.Errorf("JIT peak outstanding = %d, want the equation-12 constant %d", jit.PeakOutstanding, want)
	}
	if greedy.PeakOutstanding != cfg.Lookahead {
		t.Errorf("Greedy peak outstanding = %d, want the lookahead %d", greedy.PeakOutstanding, cfg.Lookahead)
	}
	if greedy.PeakOutstanding <= jit.PeakOutstanding {
		t.Error("greedy should store more chains ahead than JIT (equations 11 vs 12)")
	}
	if greedy.Strategy.Lookahead != cfg.Lookahead {
		t.Errorf("resolved greedy strategy = %+v", greedy.Strategy)
	}
}

// TestPrefetchReplansCostWarmup pins the motion-change cost: injecting
// ground-truth re-plans multiplies warmup periods without perturbing the
// on-demand baseline.
func TestPrefetchReplansCostWarmup(t *testing.T) {
	base := smallPrefetch()
	refOD, refJIT, _ := prefetchArms(t, base)
	replanned := base
	replanned.Replans = 2
	gotOD, gotJIT, _ := prefetchArms(t, replanned)
	if gotJIT.WarmupPeriods <= refJIT.WarmupPeriods {
		t.Errorf("re-plans did not add warmup periods (%d vs %d)", gotJIT.WarmupPeriods, refJIT.WarmupPeriods)
	}
	if gotOD.Digest != refOD.Digest {
		t.Error("re-plans perturbed the on-demand baseline, which has no planner")
	}
}

// TestGreedyShortLookaheadStaysLate pins the equation-10 failure mode: a
// lookahead window smaller than the forward margin can never stage a period
// by its boundary, so every greedy period stays as late as on-demand ones.
func TestGreedyShortLookaheadStaysLate(t *testing.T) {
	cfg := smallPrefetch()
	cfg.Lookahead = 2 // margin is (3s + 2*1s)/1s = 5 periods
	od, _, greedy := prefetchArms(t, cfg)
	if greedy.PrefetchedReadings != 0 {
		t.Errorf("a too-short lookahead still served %d prefetched readings", greedy.PrefetchedReadings)
	}
	if greedy.Late != od.Late {
		t.Errorf("unstaged greedy lateness (%d) should match on-demand (%d)", greedy.Late, od.Late)
	}
	if _, err := prefetch.NewPlanner(prefetch.Config{
		Strategy: prefetch.Strategy{Kind: prefetch.Greedy, Lookahead: 2},
		Radius:   1, Period: time.Second,
	}, mobility.Profile{Path: mobility.Stationary(geom.Pt(0, 0), 0)}); err != nil {
		t.Fatalf("short lookahead is legal, just ineffective: %v", err)
	}
}
