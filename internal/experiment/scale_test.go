package experiment

import (
	"testing"

	"mobiquery/internal/field"
)

func smallScale() ScaleConfig {
	cfg := DefaultScale()
	cfg.Nodes = 3000
	cfg.Users = 400
	cfg.RegionSide = 2000
	cfg.Rounds = 3
	return cfg
}

func TestScaleValidate(t *testing.T) {
	if err := DefaultScale().Validate(); err != nil {
		t.Fatalf("default scale config invalid: %v", err)
	}
	bad := []func(*ScaleConfig){
		func(c *ScaleConfig) { c.Nodes = 0 },
		func(c *ScaleConfig) { c.Users = -1 },
		func(c *ScaleConfig) { c.Radius = 0 },
		func(c *ScaleConfig) { c.Rounds = 0 },
		func(c *ScaleConfig) { c.Step = -1 },
		func(c *ScaleConfig) { c.Shards = -2 },
		func(c *ScaleConfig) { c.Workers = -2 },
		func(c *ScaleConfig) { c.Field = nil },
	}
	for i, mutate := range bad {
		cfg := DefaultScale()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

// TestScaleShardedMatchesSerial pins the acceptance property of the
// concurrent engine: sharded dispatch changes wall time, never results.
func TestScaleShardedMatchesSerial(t *testing.T) {
	serial := smallScale()
	serial.Shards, serial.Workers = 1, 1
	sharded := smallScale()
	sharded.Shards = 8
	sharded.Workers = 8
	a := RunScale(serial)
	b := RunScale(sharded)
	if a.Evaluations != b.Evaluations || a.Evaluations != 400*3 {
		t.Fatalf("evaluations %d vs %d, want %d", a.Evaluations, b.Evaluations, 400*3)
	}
	if a.MeanArea != b.MeanArea || a.MeanValue != b.MeanValue || a.Checksum != b.Checksum {
		t.Fatalf("serial %+v diverges from sharded %+v", a, b)
	}
	if a.MeanArea <= 0 {
		t.Fatal("scale scenario evaluated empty areas everywhere; geometry is off")
	}
}

// TestScaleDeterministicAcrossWorkerCounts re-runs one configuration at
// several pool widths and shard counts; the digest must never move.
func TestScaleDeterministicAcrossWorkerCounts(t *testing.T) {
	base := smallScale()
	ref := RunScale(base)
	for _, w := range []int{1, 2, 5} {
		for _, s := range []int{1, 4, 64} {
			cfg := base
			cfg.Workers = w
			cfg.Shards = s
			got := RunScale(cfg)
			if got.Checksum != ref.Checksum || got.MeanArea != ref.MeanArea {
				t.Fatalf("workers=%d shards=%d: checksum %v, want %v", w, s, got.Checksum, ref.Checksum)
			}
		}
	}
}

func TestScaleUniformFieldMeanValue(t *testing.T) {
	cfg := smallScale()
	cfg.Field = field.Uniform{Value: 42}
	res := RunScale(cfg)
	if res.MeanValue != 42 {
		t.Fatalf("MeanValue over uniform field = %v, want 42", res.MeanValue)
	}
}

// TestScaleSweepQuantiles pins the sweep-latency readout: every round
// observed, quantiles positive and ordered.
func TestScaleSweepQuantiles(t *testing.T) {
	res := RunScale(smallScale())
	if res.SweepP50 <= 0 || res.SweepP99 <= 0 {
		t.Fatalf("sweep quantiles not recorded: p50=%v p99=%v", res.SweepP50, res.SweepP99)
	}
	if res.SweepP50 > res.SweepP99 {
		t.Fatalf("sweep p50 %v > p99 %v", res.SweepP50, res.SweepP99)
	}
}
