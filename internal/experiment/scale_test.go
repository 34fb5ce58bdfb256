package experiment

import (
	"math"
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
// concurrent engine: sharded dispatch changes wall time, never results. The
// headline scenario's digest is pinned too, so a change to what the scale
// run computes cannot pass unseen while serial and sharded still agree.
func TestScaleShardedMatchesSerial(t *testing.T) {
	type digest struct {
		checksum            uint64
		meanArea, meanValue uint64 // float64 bits
	}
	cases := []struct {
		name string
		cfg  ScaleConfig
		want *digest
	}{
		{"small", smallScale(), nil},
		{"default", DefaultScale(), &digest{4250957185759232411, 0x40516c801f75104d, 0x4041890429ae515f}},
	}
	for _, tc := range cases {
		serial, sharded := tc.cfg, tc.cfg
		serial.Shards, serial.Workers = 1, 1
		sharded.Shards, sharded.Workers = 8, 8
		a := RunScale(serial)
		b := RunScale(sharded)
		if want := tc.cfg.Users * tc.cfg.Rounds; a.Evaluations != b.Evaluations || a.Evaluations != want {
			t.Fatalf("%s: evaluations %d vs %d, want %d", tc.name, a.Evaluations, b.Evaluations, want)
		}
		if a.MeanArea != b.MeanArea || a.MeanValue != b.MeanValue || a.Checksum != b.Checksum {
			t.Fatalf("%s: serial %+v diverges from sharded %+v", tc.name, a, b)
		}
		if a.MeanArea <= 0 {
			t.Fatalf("%s: scale scenario evaluated empty areas everywhere; geometry is off", tc.name)
		}
		if got := (digest{a.Checksum, math.Float64bits(a.MeanArea), math.Float64bits(a.MeanValue)}); tc.want != nil && got != *tc.want {
			t.Fatalf("%s: digest {%d %#x %#x}, want {%d %#x %#x}", tc.name,
				got.checksum, got.meanArea, got.meanValue, tc.want.checksum, tc.want.meanArea, tc.want.meanValue)
		}
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
