package mobiquery

import (
	"context"
	"strings"
	"testing"
	"time"

	"mobiquery/internal/obs"
)

// smallSpec is centerSpec shrunk below the pyramid attachment threshold so
// its periods are served cold (on-demand), pinning the cold class.
func smallSpec() QuerySpec {
	spec := centerSpec()
	spec.Radius = 50
	return spec
}

// TestTraceSpans pins the period lifecycle tracer end to end on a manual
// clock: one span per delivered period, stamps in stage order, cold class
// for a plain on-demand subscription, delivered outcome, and ring eviction
// at depth.
func TestTraceSpans(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling(), WithTraceDepth(4))
	sub, err := svc.Subscribe(context.Background(), smallSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	const periods = 6
	for i := 0; i < periods; i++ {
		if err := svc.Advance(2 * time.Second); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	spans := sub.TraceSpans(nil)
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring depth 4", len(spans))
	}
	for i, sp := range spans {
		wantK := periods - 4 + i + 1
		if sp.K != wantK {
			t.Errorf("span %d: K = %d, want %d", i, sp.K, wantK)
		}
		if sp.Due != time.Duration(sp.K)*2*time.Second {
			t.Errorf("span %d: due %v, want %v", i, sp.Due, time.Duration(sp.K)*2*time.Second)
		}
		if sp.Class != obs.ClassCold {
			t.Errorf("span %d: class %v, want cold", i, sp.Class)
		}
		if sp.Outcome != obs.OutcomeDelivered {
			t.Errorf("span %d: outcome %v, want delivered", i, sp.Outcome)
		}
		if !(sp.ArmedNS <= sp.PoppedNS && sp.PoppedNS <= sp.EvalStartNS &&
			sp.EvalStartNS <= sp.EvalEndNS && sp.EvalEndNS <= sp.DeliveredNS) {
			t.Errorf("span %d: stamps out of stage order: %+v", i, sp)
		}
	}
	// Consecutive spans chain: period k+1's armed stamp is period k's
	// evaluation end.
	for i := 1; i < len(spans); i++ {
		if spans[i].ArmedNS != spans[i-1].EvalEndNS {
			t.Errorf("span %d armed %d != span %d eval end %d",
				i, spans[i].ArmedNS, i-1, spans[i-1].EvalEndNS)
		}
	}
}

// TestTraceDisabled pins WithTraceDepth(0): no ring, empty snapshots, and
// the service still delivers.
func TestTraceDisabled(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling(), WithTraceDepth(0))
	sub, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := svc.Advance(2 * time.Second); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := sub.TraceSpans(nil); len(got) != 0 {
		t.Fatalf("tracing disabled but got %d spans", len(got))
	}
	if st := svc.Stats(); st.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", st.Delivered)
	}
}

// TestServiceMetricsExposition pins the service registry: deterministic
// counters after a manual-clock run, and the scrape-time ledger agreeing
// with Stats — which every scrape, /v1/stats and /healthz snapshot
// through, so it must not allocate.
func TestServiceMetricsExposition(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling())
	sub, err := svc.Subscribe(context.Background(), smallSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := svc.Advance(time.Second); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	var sb strings.Builder
	if err := svc.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	st := svc.Stats()
	if st.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (3 x 1s over a 2s period)", st.Delivered)
	}
	for _, want := range []string{
		"mobiquery_advance_ticks_total 3\n",
		"mobiquery_advance_idle_ticks_total 2\n",
		`mobiquery_periods_evaluated_total{class="cold"} 1` + "\n",
		"mobiquery_results_delivered_total 1\n",
		"mobiquery_subscribers 1\n",
		"mobiquery_virtual_time_ns 3000000000\n",
		"mobiquery_advance_pop_batch_count 1\n",
		"mobiquery_sched_entries 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = svc.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocates %v per call", allocs)
	}
	_ = sub
}

// TestReadingColumnCountersFollowThePayoffRule pins the three exported
// column counters against the workload shapes of the repository benchmark:
// the boundaries of sparse_churn (500 radius-25 counts due per tick) and
// stream_fanout (400 of them) read a few nodes each, so no column is ever
// built there and all three stay exactly zero through due and idle ticks
// alike; dense_eval's (radius-150 averages, every node read many times
// over) build one per boundary and fold every scan through it.
func TestReadingColumnCountersFollowThePayoffRule(t *testing.T) {
	for _, c := range []struct {
		shape    string
		perTick  int
		radius   float64
		columned bool
	}{
		{"sparse_churn", 500, 25, false},
		{"stream_fanout", 400, 25, false},
		{"dense_eval", 400, 150, true},
	} {
		svc, err := Open(context.Background(), NetworkConfig{Seed: 1, Nodes: 5000, RegionSide: 2000, SamplePeriod: time.Second})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		// Four cohorts a tick apart, one of them due on every later tick.
		const tick = 250 * time.Millisecond
		spec := QuerySpec{Radius: c.radius, Period: 4 * tick, Freshness: time.Second, Aggregate: Count}
		for cohort := 0; cohort < 4; cohort++ {
			for i := 0; i < c.perTick; i++ {
				at := Pt(100+float64(i*3%1800), 100+float64(i*7%1800))
				if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(at)); err != nil {
					t.Fatalf("Subscribe: %v", err)
				}
			}
			svc.Advance(tick)
		}
		for i := 0; i < 8; i++ {
			svc.Advance(tick / 2) // every other one idle
		}
		var sb strings.Builder
		if err := svc.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		svc.Close()
		nonZero := map[string]bool{}
		for _, name := range []string{"builds", "scans"} {
			nonZero[name] = !strings.Contains(sb.String(), "\nmobiquery_reading_column_"+name+"_total 0\n")
			if !strings.Contains(sb.String(), "# HELP mobiquery_reading_column_"+name+"_total ") {
				t.Errorf("%s: no HELP line for the %s counter", c.shape, name)
			}
		}
		if nonZero["builds"] != c.columned || nonZero["scans"] != c.columned {
			t.Errorf("%s shape: non-zero column counters %v, want builds and scans non-zero = %v", c.shape, nonZero, c.columned)
		}
	}
}
