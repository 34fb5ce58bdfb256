package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/metrics"
	"mobiquery/internal/sim"
)

func TestScenarioValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"zero nodes", func(s *Scenario) { s.Nodes = 0 }},
		{"zero region", func(s *Scenario) { s.RegionSide = 0 }},
		{"zero duration", func(s *Scenario) { s.Duration = 0 }},
		{"bad profiler", func(s *Scenario) { s.Profiler = 0 }},
		{"nil field", func(s *Scenario) { s.Field = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := Default()
			tt.mut(&s)
			if s.Validate() == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestWithDuration(t *testing.T) {
	s := Default().WithDuration(100 * time.Second)
	if s.Duration != 100*time.Second || s.Spec.Lifetime != 96*time.Second {
		t.Errorf("WithDuration: %v / %v", s.Duration, s.Spec.Lifetime)
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := Default().WithDuration(60 * time.Second)
	sc.SleepPeriod = 3 * time.Second
	a := Run(sc)
	b := Run(sc)
	if a.SuccessRatio != b.SuccessRatio || a.MeanFidelity != b.MeanFidelity {
		t.Errorf("same seed differs: %.4f/%.4f vs %.4f/%.4f",
			a.SuccessRatio, a.MeanFidelity, b.SuccessRatio, b.MeanFidelity)
	}
	if a.EventsFired != b.EventsFired {
		t.Errorf("event counts differ: %d vs %d", a.EventsFired, b.EventsFired)
	}
	if a.MediumStats != b.MediumStats {
		t.Errorf("medium stats differ: %+v vs %+v", a.MediumStats, b.MediumStats)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	sc := Default().WithDuration(60 * time.Second)
	sc2 := sc
	sc2.Seed = 2
	if Run(sc).EventsFired == Run(sc2).EventsFired {
		t.Log("different seeds produced equal event counts (possible but unlikely)")
	}
}

func TestRunManyMatchesRunAndOrder(t *testing.T) {
	base := Default().WithDuration(60 * time.Second)
	base.SleepPeriod = 3 * time.Second
	scs := Replicate(base, 1, 3)
	many := RunMany(scs)
	if len(many) != 3 {
		t.Fatalf("results = %d", len(many))
	}
	for i, sc := range scs {
		if many[i].Scenario.Seed != sc.Seed {
			t.Errorf("result %d has seed %d", i, many[i].Scenario.Seed)
		}
	}
	single := Run(scs[1])
	if many[1].SuccessRatio != single.SuccessRatio {
		t.Errorf("parallel run differs from serial: %.4f vs %.4f", many[1].SuccessRatio, single.SuccessRatio)
	}
}

func TestReplicate(t *testing.T) {
	scs := Replicate(Default(), 10, 4)
	for i, sc := range scs {
		if sc.Seed != 10+int64(i) {
			t.Errorf("seed %d = %d", i, sc.Seed)
		}
	}
}

func TestJITBeatsNP(t *testing.T) {
	jit := Default().WithDuration(120 * time.Second)
	jit.SleepPeriod = 9 * time.Second
	np := jit
	np.Scheme = core.SchemeNP
	rj, rn := Run(jit), Run(np)
	if rj.SuccessRatio <= rn.SuccessRatio {
		t.Errorf("JIT (%.2f) must beat NP (%.2f)", rj.SuccessRatio, rn.SuccessRatio)
	}
	if rn.SuccessRatio > 0.35 {
		t.Errorf("NP success = %.2f, paper reports below 0.35", rn.SuccessRatio)
	}
	if rj.SuccessRatio < 0.80 {
		t.Errorf("JIT success = %.2f, expected near 1 minus warmup", rj.SuccessRatio)
	}
}

func TestJITStorageMatchesEq12(t *testing.T) {
	for _, tt := range []struct {
		sleep time.Duration
		want  int
	}{{3 * time.Second, 4}, {9 * time.Second, 7}, {15 * time.Second, 10}} {
		sc := Default().WithDuration(90 * time.Second)
		sc.SleepPeriod = tt.sleep
		res := Run(sc)
		// Allow one extra for teardown lag.
		if res.MaxPrefetchLength < tt.want-1 || res.MaxPrefetchLength > tt.want+1 {
			t.Errorf("sleep %v: PL=%d, eq.(12) gives %d", tt.sleep, res.MaxPrefetchLength, tt.want)
		}
	}
}

func TestGPStoresWholeSession(t *testing.T) {
	sc := Default().WithDuration(90 * time.Second)
	sc.Scheme = core.SchemeGP
	res := Run(sc)
	if res.MaxPrefetchLength < sc.Spec.Periods()-5 {
		t.Errorf("greedy PL=%d, want near %d", res.MaxPrefetchLength, sc.Spec.Periods())
	}
}

func TestIdleScenarioHasNoQueries(t *testing.T) {
	sc := Default().WithDuration(60 * time.Second)
	sc.Idle = true
	res := Run(sc)
	if res.TreeSetups != 0 || len(res.Records) != 0 {
		t.Errorf("idle run produced protocol activity: %d setups", res.TreeSetups)
	}
	if res.PowerSleeper <= 0.13 || res.PowerSleeper >= 0.2 {
		t.Errorf("idle sleeper power = %.3f W, want slightly above the 0.13 W sleep floor", res.PowerSleeper)
	}
	if res.PowerBackbone < 0.8 {
		t.Errorf("backbone power = %.3f W, want ~0.83 W idle", res.PowerBackbone)
	}
}

func TestQueryPowerAboveIdle(t *testing.T) {
	idle := Default().WithDuration(90 * time.Second)
	idle.SleepPeriod = 9 * time.Second
	idle.Idle = true
	busy := idle
	busy.Idle = false
	ri, rb := Run(idle), Run(busy)
	delta := rb.PowerSleeper - ri.PowerSleeper
	if delta <= 0 {
		t.Errorf("querying must cost energy: delta = %.4f W", delta)
	}
	if delta > 0.05 {
		t.Errorf("delta = %.3f W, paper reports the increase stays below 0.05 W", delta)
	}
}

func TestTableFormat(t *testing.T) {
	tbl := Table{
		ID:      "Figure X",
		Title:   "demo",
		Columns: []string{"x", "a", "b"},
		Rows: []Row{
			{Label: "1", Cells: []Cell{{Value: 0.5}, {Value: 0.25, CI: 0.01, HasCI: true}}},
		},
		Notes: "hello",
	}
	out := tbl.Format()
	for _, want := range []string{"Figure X", "demo", "0.500", "0.250 ±0.010", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureWarmup(t *testing.T) {
	mk := func(k int, success bool) metrics.QueryRecord {
		return metrics.QueryRecord{K: k, Success: success}
	}
	var recs []metrics.QueryRecord
	for k := 1; k <= 40; k++ {
		// A change at 20s (k=10.25): periods 11-14 fail.
		recs = append(recs, mk(k, k < 11 || k > 14))
	}
	changes := []sim.Time{20 * time.Second}
	got := MeasureWarmup(recs, changes, 2*time.Second, 500*time.Millisecond)
	if got != 4 {
		t.Errorf("MeasureWarmup = %v, want 4", got)
	}
	if MeasureWarmup(nil, changes, 2*time.Second, 0) != 0 {
		t.Error("empty records should measure 0")
	}
	if MeasureWarmup(recs, nil, 2*time.Second, 0) != 0 {
		t.Error("no changes should measure 0")
	}
}

func TestReconstructCourseMatchesRun(t *testing.T) {
	sc := Default().WithDuration(60 * time.Second)
	c1 := reconstructCourse(sc)
	c2 := reconstructCourse(sc)
	if c1.PosAt(30*time.Second) != c2.PosAt(30*time.Second) {
		t.Error("course reconstruction not deterministic")
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.25}
	if got := o.duration(400 * time.Second); got != 100*time.Second {
		t.Errorf("scaled duration = %v", got)
	}
	if got := o.duration(100 * time.Second); got != 60*time.Second {
		t.Errorf("scaled duration floor = %v", got)
	}
	if got := (Options{}).duration(400 * time.Second); got != 400*time.Second {
		t.Errorf("unscaled duration = %v", got)
	}
	if got := (Options{Runs: 2}).runs(5); got != 2 {
		t.Errorf("runs override = %d", got)
	}
	if got := (Options{}).runs(5); got != 5 {
		t.Errorf("default runs = %d", got)
	}
}

// TestFigureSmoke runs every discrete-event figure at drastically reduced
// scale, checks each table's shape, and pins each table's rendered text by
// its sha256: the radio medium, CCP and the fidelity scorer must keep
// producing the same bytes whatever spatial index serves them. A digest
// moves only when a figure's results do; update it only with a change that
// means to move them.
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke is expensive")
	}
	opts := Options{Runs: 1, BaseSeed: 1, Scale: 0.2}
	got := map[string]Table{}
	for i, tbl := range Fig4(opts) {
		if len(tbl.Rows) != 5 {
			t.Errorf("Fig4 rows = %d", len(tbl.Rows))
		}
		got[fmt.Sprintf("fig4/%d", i)] = tbl
	}
	if tbl := Fig5(opts); len(tbl.Rows) < 20 {
		t.Errorf("Fig5 rows = %d", len(tbl.Rows))
	} else {
		got["fig5"] = tbl
	}
	if tbl := Fig6(opts); len(tbl.Rows) != 5 {
		t.Errorf("Fig6 rows = %d", len(tbl.Rows))
	} else {
		got["fig6"] = tbl
	}
	for i, tbl := range Fig7(opts) {
		if len(tbl.Rows) != 5 {
			t.Errorf("Fig7 rows = %d", len(tbl.Rows))
		}
		got[fmt.Sprintf("fig7/%d", i)] = tbl
	}
	if tbl := Fig8(opts); len(tbl.Rows) != 3 {
		t.Errorf("Fig8 rows = %d", len(tbl.Rows))
	} else {
		got["fig8"] = tbl
	}
	if tbl := WarmupValidation(opts); len(tbl.Rows) != 5 {
		t.Errorf("Warmup rows = %d", len(tbl.Rows))
	} else {
		got["warmup"] = tbl
	}
	if tbl := Ablation(opts); len(tbl.Rows) == 0 {
		t.Error("Ablation has no rows")
	} else {
		got["ablation"] = tbl
	}

	want := map[string]string{
		"fig4/0":   "b36b4ad912e5c06f03b640050cebfe6db55d77525e3c848cffd62db54c67b180",
		"fig4/1":   "eadf2a4694dbca8c8408c3c90c91137da6a7f78025736538e8aeaa390878ebc5",
		"fig4/2":   "7a7b6db8edfd8103d92cd3eb79efab7fcfd4236b1a2c13b67eebd99162657e14",
		"fig5":     "13bb3d830f0a08081a286fadae37b52abd3e4c5df8b68a304cb45a8bc7838e9d",
		"fig6":     "12656e28a7c96784c63843c2fce8e50703144ec3fea96e214f132b118c7b4830",
		"fig7/0":   "33bf5c044ecdc7bdfed0affd0aca51321ae6613dfe120eab2bf3b60d3b48c728",
		"fig7/1":   "25b699f2cb142c099a5a8dca1a187ba1a67c35f7b60bc3a53d666a7d9609a458",
		"fig8":     "c5ef05220b8ca44d91725fa94ea3a77e644c32281413b865f0cf814300ea8800",
		"warmup":   "349fa2136fbbca9d4b6ec0d84c6049719a314e30771e18824a533fa4e5fa9a32",
		"ablation": "61cc666195295cdcadfefa7d65bcae389be895562062717f42154610d76071a5",
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: no table", name)
		}
	}
	for name, tbl := range got {
		sum := sha256.Sum256([]byte(tbl.Format()))
		if d := hex.EncodeToString(sum[:]); d != want[name] {
			t.Errorf("%s digest = %s, want %s\n%s", name, d, want[name], tbl.Format())
		}
	}
}
