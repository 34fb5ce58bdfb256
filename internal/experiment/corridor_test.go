package experiment

import (
	"testing"
	"time"
)

func smallCorridor() CorridorConfig {
	// ChangeInterval stays at the default 8 s: the equation-10 margin here
	// is 6 periods, so each leg's profile can stage boundaries 6..8 of its
	// window — shorten the legs below 7 s and every period is warmup.
	cfg := DefaultCorridor()
	cfg.Nodes = 1500
	cfg.RegionSide = 1000
	cfg.Users = 10
	cfg.Duration = 20 * time.Second
	return cfg
}

func TestCorridorValidate(t *testing.T) {
	if err := DefaultCorridor().Validate(); err != nil {
		t.Fatalf("default corridor config invalid: %v", err)
	}
	bad := []func(*CorridorConfig){
		func(c *CorridorConfig) { c.Nodes = 0 },
		func(c *CorridorConfig) { c.Users = 0 },
		func(c *CorridorConfig) { c.Radius = 0 },
		func(c *CorridorConfig) { c.SamplePeriod = 0 },
		func(c *CorridorConfig) { c.Period = 0 },
		func(c *CorridorConfig) { c.SpeedMin = 0 },
		func(c *CorridorConfig) { c.SpeedMax = c.SpeedMin / 2 },
		func(c *CorridorConfig) { c.ChangeInterval = 0 },
		func(c *CorridorConfig) { c.Tick = 0 },
		func(c *CorridorConfig) { c.Duration = c.Period / 2 },
		func(c *CorridorConfig) { c.GPSError = -1 },
		func(c *CorridorConfig) { c.Lookahead = 0 },
		func(c *CorridorConfig) { c.ErrorBound = -1 },
		func(c *CorridorConfig) { c.Field = nil },
	}
	for i, mutate := range bad {
		cfg := DefaultCorridor()
		mutate(&cfg)
		if _, err := RunCorridor(cfg); err == nil {
			t.Errorf("mutation %d: expected a configuration error", i)
		}
	}
}

// TestCorridorWarmPathBitIdentical pins the headline invariant: the
// corridor arm over exact profiles produces exactly the plain-JIT digest —
// staging changes how nodes are enumerated, never what the answer is — and
// both corridor arms actually serve warm periods, leaving fewer cold
// evaluations than their corridor-less twins.
func TestCorridorWarmPathBitIdentical(t *testing.T) {
	res, err := RunCorridor(smallCorridor())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 5 {
		t.Fatalf("got %d arms, want 5", len(res.Arms))
	}
	jitExact, _ := res.Arm("jit/exact")
	jitNoisy, _ := res.Arm("jit/noisy")
	corrExact, _ := res.Arm("jit+corridor/exact")
	corrNoisy, _ := res.Arm("jit+corridor/noisy")
	onDemand, _ := res.Arm("on-demand")

	if corrExact.Digest != jitExact.Digest {
		t.Errorf("corridor changed exact-profile results: %#x vs %#x", corrExact.Digest, jitExact.Digest)
	}
	if corrExact.Late != jitExact.Late || corrExact.StaleExclusions != jitExact.StaleExclusions ||
		corrExact.PrefetchedReadings != jitExact.PrefetchedReadings {
		t.Errorf("corridor/exact ledgers diverged from jit/exact:\n%+v\n%+v", corrExact, jitExact)
	}
	for _, arm := range []Outcome{corrExact, corrNoisy} {
		if arm.StagedHits == 0 {
			t.Errorf("%s served no warm periods", arm.Label)
		}
		if arm.StagedHits+arm.ColdEvaluations != arm.Evaluations {
			t.Errorf("%s: hits %d + cold %d != evaluations %d", arm.Label, arm.StagedHits, arm.ColdEvaluations, arm.Evaluations)
		}
	}
	if corrNoisy.ColdEvaluations >= jitNoisy.ColdEvaluations {
		t.Errorf("corridor did not reduce cold evaluations on the noisy workload (%d vs %d)",
			corrNoisy.ColdEvaluations, jitNoisy.ColdEvaluations)
	}
	if corrExact.ColdEvaluations >= jitExact.ColdEvaluations {
		t.Errorf("corridor did not reduce cold evaluations on the exact workload (%d vs %d)",
			corrExact.ColdEvaluations, jitExact.ColdEvaluations)
	}
	for _, arm := range []Outcome{onDemand, jitExact, jitNoisy} {
		if arm.StagedHits != 0 || arm.Mispredicts != 0 {
			t.Errorf("corridor-less arm %s carries corridor artifacts: %+v", arm.Label, arm)
		}
	}
	if onDemand.Late == 0 {
		t.Error("on-demand baseline shows no late periods; the comparison is vacuous")
	}
	if jitNoisy.PrefetchedReadings == 0 || jitExact.PrefetchedReadings == 0 {
		t.Error("prefetching arms served no prefetched readings")
	}
}

// TestCorridorTightBoundMispredicts pins the mispredict path at scenario
// level: squeezing the noisy arms' inflation below the predictor's real
// error forces mispredicts, every one of which re-plans (replans grow with
// them), while exact arms stay clean.
func TestCorridorTightBoundMispredicts(t *testing.T) {
	cfg := smallCorridor()
	cfg.ErrorBound = 8 // far below the ~35 m practical bound
	res, err := RunCorridor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corrNoisy, _ := res.Arm("jit+corridor/noisy")
	corrExact, _ := res.Arm("jit+corridor/exact")
	if corrNoisy.Mispredicts == 0 {
		t.Error("a tight bound over noisy profiles produced no mispredicts")
	}
	loose, err := RunCorridor(smallCorridor())
	if err != nil {
		t.Fatal(err)
	}
	looseNoisy, _ := loose.Arm("jit+corridor/noisy")
	if corrNoisy.Replans-looseNoisy.Replans < corrNoisy.Mispredicts-looseNoisy.Mispredicts {
		t.Errorf("mispredicts (%d) did not all re-plan (replans %d vs loose %d/%d)",
			corrNoisy.Mispredicts, corrNoisy.Replans, looseNoisy.Mispredicts, looseNoisy.Replans)
	}
	if corrExact.Mispredicts != 0 {
		t.Errorf("exact profiles mispredicted %d times under a bound that only squeezes noise", corrExact.Mispredicts)
	}
}
