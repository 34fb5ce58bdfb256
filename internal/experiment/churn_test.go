package experiment

import (
	"testing"
	"time"

	"mobiquery/internal/field"
)

func smallChurn() ChurnConfig {
	cfg := DefaultChurn()
	cfg.Nodes = 1500
	cfg.RegionSide = 1000
	cfg.Static = 8
	cfg.Churners = 20
	cfg.Duration = 20 * time.Second
	return cfg
}

func TestChurnValidate(t *testing.T) {
	if err := DefaultChurn().Validate(); err != nil {
		t.Fatalf("default churn config invalid: %v", err)
	}
	bad := []func(*ChurnConfig){
		func(c *ChurnConfig) { c.Nodes = 0 },
		func(c *ChurnConfig) { c.Static = 0 },
		func(c *ChurnConfig) { c.Churners = -1 },
		func(c *ChurnConfig) { c.Radius = 0 },
		func(c *ChurnConfig) { c.SamplePeriod = 0 },
		func(c *ChurnConfig) { c.Period = 0 },
		func(c *ChurnConfig) { c.Deadline = -1 },
		func(c *ChurnConfig) { c.Tick = 0 },
		func(c *ChurnConfig) { c.Duration = c.Period / 2 },
		func(c *ChurnConfig) { c.Field = nil },
	}
	for i, mutate := range bad {
		cfg := DefaultChurn()
		mutate(&cfg)
		if _, err := RunChurn(cfg); err == nil {
			t.Errorf("mutation %d: expected a configuration error", i)
		}
	}
}

// runChurnArm runs the scenario and returns its "with churners" arm.
func runChurnArm(t *testing.T, cfg ChurnConfig) Outcome {
	t.Helper()
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	out, ok := res.Arm(ChurnArm)
	if !ok {
		t.Fatalf("no %q arm in %+v", ChurnArm, res)
	}
	return out
}

func TestChurnRunsAndCounts(t *testing.T) {
	cfg := smallChurn()
	res := runChurnArm(t, cfg)
	// Static users stream for the whole run: Duration/Period results each.
	staticPeriods := cfg.Static * int(cfg.Duration/cfg.Period)
	if res.Evaluations < staticPeriods {
		t.Errorf("evaluations = %d, want at least the static population's %d", res.Evaluations, staticPeriods)
	}
	if res.Joins == 0 || res.Leaves == 0 {
		t.Errorf("churn did not churn: %d joins, %d leaves", res.Joins, res.Leaves)
	}
	if res.Joins < res.Leaves {
		t.Errorf("more leaves (%d) than joins (%d)", res.Leaves, res.Joins)
	}
	if res.PeakLive < cfg.Static || res.PeakLive > cfg.Static+cfg.Churners {
		t.Errorf("peak live population %d outside [%d, %d]", res.PeakLive, cfg.Static, cfg.Static+cfg.Churners)
	}
	// Period and tick are aligned, so nothing should be late; the 1 s
	// sampling against a 1 s freshness window keeps everything fresh.
	if res.Late != 0 {
		t.Errorf("aligned ticks produced %d late results", res.Late)
	}
	if res.MeanFresh <= 0 {
		t.Error("no sensor ever contributed; geometry or sampling is off")
	}
}

// TestChurnDoesNotPerturbStaticUsers pins the isolation property behind
// dynamic membership: the static users' full per-period outcome digest is
// identical whether or not a churning population shares the engine.
func TestChurnDoesNotPerturbStaticUsers(t *testing.T) {
	res, err := RunChurn(smallChurn())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.Arm(ChurnArm)
	b, _ := res.Arm(StaticArm)
	if a.Digest != b.Digest {
		t.Fatalf("churners changed the static users' results: digest %#x with churn, %#x without", a.Digest, b.Digest)
	}
	if a.Joins == 0 {
		t.Error("the churn arm admitted no churner; the comparison is vacuous")
	}
	if b.Joins != 0 || b.Leaves != 0 {
		t.Errorf("churner-free arm reported churn: %d/%d", b.Joins, b.Leaves)
	}
	// Leaving the churners out of the configuration is the same experiment.
	alone := smallChurn()
	alone.Churners = 0
	if c := runChurnArm(t, alone); c.Digest != a.Digest || c.Joins != 0 {
		t.Errorf("Churners=0 run: digest %#x (want %#x), %d joins", c.Digest, a.Digest, c.Joins)
	}
}

// TestChurnCoarseTicksGoLate pins the deadline ledger: when the clock
// advances in steps coarser than the deadline slack allows, periods come
// due mid-step and their results are marked late.
func TestChurnCoarseTicksGoLate(t *testing.T) {
	cfg := smallChurn()
	cfg.Churners = 0
	cfg.Period = time.Second
	cfg.Fresh = time.Second
	cfg.Tick = 300 * time.Millisecond // does not divide the period
	cfg.Deadline = 0
	res := runChurnArm(t, cfg)
	if res.Late == 0 {
		t.Fatal("misaligned ticks produced no late results; deadline accounting is dead")
	}
	// A generous slack forgives the misalignment entirely.
	cfg.Deadline = cfg.Tick
	res2 := runChurnArm(t, cfg)
	if res2.Late != 0 {
		t.Fatalf("slack of one tick still left %d late results", res2.Late)
	}
}

func TestChurnStaleExclusions(t *testing.T) {
	cfg := smallChurn()
	cfg.Churners = 0
	cfg.SamplePeriod = 1500 * time.Millisecond // slower than the window
	cfg.Fresh = 500 * time.Millisecond
	cfg.Field = field.Uniform{Value: 7}
	res := runChurnArm(t, cfg)
	if res.StaleExclusions == 0 {
		t.Fatal("sampling slower than the freshness window excluded nothing; the window is dead")
	}
}
