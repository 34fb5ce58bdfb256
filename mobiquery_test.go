package mobiquery

import (
	"math"
	"testing"
	"time"
)

func quickSim() Simulation {
	s := DefaultSimulation()
	s.Duration = 60 * time.Second
	s.Lifetime = 56 * time.Second
	s.SleepPeriod = 3 * time.Second
	return s
}

func TestDefaultSimulationValid(t *testing.T) {
	if err := DefaultSimulation().Validate(); err != nil {
		t.Fatalf("default simulation invalid: %v", err)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	s := DefaultSimulation()
	s.Nodes = 0
	if s.Validate() == nil {
		t.Error("zero nodes should fail validation")
	}
	s = DefaultSimulation()
	s.Freshness = 2 * s.Period
	if s.Validate() == nil {
		t.Error("freshness above period should fail validation")
	}
}

func TestRunEndToEnd(t *testing.T) {
	res := Run(quickSim())
	if len(res.Queries) != 28 {
		t.Fatalf("queries = %d, want 28", len(res.Queries))
	}
	if res.SuccessRatio <= 0.5 {
		t.Errorf("JIT success ratio = %.2f, want high", res.SuccessRatio)
	}
	if res.BackboneNodes == 0 || res.BackboneNodes >= 200 {
		t.Errorf("backbone = %d", res.BackboneNodes)
	}
	if res.PowerPerSleepingNode <= 0.13 || res.PowerPerBackboneNode < 0.8 {
		t.Errorf("power = %.3f / %.3f", res.PowerPerSleepingNode, res.PowerPerBackboneNode)
	}
	for i, q := range res.Queries {
		if q.K != i+1 {
			t.Fatalf("query order broken at %d", i)
		}
		if q.Received && q.Fidelity > 0.5 && (math.IsNaN(q.Value) || q.Value != 20) {
			t.Errorf("k=%d: uniform field value = %v, want 20", q.K, q.Value)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(quickSim())
	b := Run(quickSim())
	if a.SuccessRatio != b.SuccessRatio || a.MeanFidelity != b.MeanFidelity {
		t.Error("same simulation config produced different results")
	}
}

func TestSchemeComparison(t *testing.T) {
	jit := quickSim()
	np := quickSim()
	np.Scheme = NP
	rj, rn := Run(jit), Run(np)
	if rj.SuccessRatio <= rn.SuccessRatio {
		t.Errorf("JIT (%.2f) should beat NP (%.2f)", rj.SuccessRatio, rn.SuccessRatio)
	}
}

func TestJITStorageBound(t *testing.T) {
	// Equation (12) with the paper's Section 5.2 example.
	if got := JITStorageBound(15*time.Second, 5*time.Second, 10*time.Second); got != 4 {
		t.Errorf("JITStorageBound = %d, want 4", got)
	}
	// The evaluation settings.
	if got := JITStorageBound(15*time.Second, time.Second, 2*time.Second); got != 10 {
		t.Errorf("JITStorageBound = %d, want 10", got)
	}
}

func TestWarmupBound(t *testing.T) {
	w := WarmupBound(9*time.Second, time.Second, 2*time.Second, 0)
	// ~ Tsleep + 2*Tfresh = 11s, rounded up to periods.
	if w < 10*time.Second || w > 13*time.Second {
		t.Errorf("WarmupBound(Ta=0) = %v, want ~11-12s", w)
	}
	if w := WarmupBound(9*time.Second, time.Second, 2*time.Second, 20*time.Second); w != 0 {
		t.Errorf("WarmupBound(Ta=20s) = %v, want 0", w)
	}
}

func TestFieldHelpers(t *testing.T) {
	if got := UniformField(42).Sample(Pt(1, 2), 0); got != 42 {
		t.Errorf("UniformField = %v", got)
	}
	if got := GradientField(10, 1, 0).Sample(Pt(5, 0), 0); got != 15 {
		t.Errorf("GradientField = %v", got)
	}
	plume := PlumeField(Pt(0, 0), 100, 10, 1, 0)
	if got := plume.Sample(Pt(0, 0), 0); got != 100 {
		t.Errorf("PlumeField peak = %v", got)
	}
	if got := plume.Sample(Pt(60, 0), 60*time.Second); got != 100 {
		t.Errorf("PlumeField drift = %v", got)
	}
}

func TestSuccessThreshold(t *testing.T) {
	if SuccessThreshold != 0.95 {
		t.Errorf("SuccessThreshold = %v, want the paper's 0.95", SuccessThreshold)
	}
}

func TestRunTeam(t *testing.T) {
	base := quickSim()
	results := RunTeam(base, []TeamMember{
		{QueryID: 1, Scheme: JIT, Start: Pt(50, 100), VelocityX: 4},
		{QueryID: 2, Scheme: JIT, Start: Pt(400, 350), VelocityX: -4},
	})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, res := range results {
		if res.SuccessRatio < 0.5 {
			t.Errorf("member %d success = %.2f under concurrency", i, res.SuccessRatio)
		}
		if len(res.Queries) == 0 {
			t.Errorf("member %d has no query results", i)
		}
	}
}
