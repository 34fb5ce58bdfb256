package mobiquery

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
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

// scrape renders the service's exposition into a map from each sample's
// name and labels, as written, to its value.
func scrape(t *testing.T, svc *Service) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := svc.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestWorkerLedgersFoldExactly pins that the dispatch workers' private
// ledgers are folded into the service's exactly and in full before every
// Advance returns, at one worker and at four: each class's evaluated counter
// equals its evaluation histogram's count, the classes sum to the service's
// delivered + dropped, to the spans published to the firehose and to the
// subscriptions' own ledgers, and the service's late total is theirs. One
// subscription is never drained, so its one-result buffer drops periods; a
// coarse step makes periods late; one subscription's lifetime ends mid-run.
func TestWorkerLedgersFoldExactly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		nc := testNetwork()
		nc.Service = ServiceConfig{Workers: workers}
		svc, err := Open(context.Background(), nc, WithResultBuffer(1))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var subs []*Subscription
		for i := 0; i < 48; i++ {
			spec := centerSpec() // the pyramid class
			spec.Period = time.Duration(1+i%3) * 500 * time.Millisecond
			spec.Freshness = spec.Period
			switch i % 4 {
			case 1:
				spec.Radius = 50 // cold
			case 2:
				spec.Strategy = JITStrategy() // planned
			}
			if i == 5 {
				spec.Lifetime = 3 * spec.Period
			}
			sub, err := svc.Subscribe(context.Background(), spec, LinearMotion(Pt(150+float64(i), 200), 1, 0.5))
			if err != nil {
				t.Fatalf("Subscribe %d: %v", i, err)
			}
			subs = append(subs, sub)
		}
		classes := map[string]bool{}
		for step, d := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 4 * time.Second, 250 * time.Millisecond, time.Second} {
			if err := svc.Advance(d); err != nil {
				t.Fatalf("Advance: %v", err)
			}
			when := fmt.Sprintf("workers=%d step %d", workers, step)
			m, st := scrape(t, svc), svc.Stats()
			var byClass float64
			for c := obs.Class(0); c < obs.NumClasses; c++ {
				lbl := `{class="` + c.String() + `"}`
				n := m["mobiquery_periods_evaluated_total"+lbl]
				if h := m["mobiquery_evaluate_seconds_count"+lbl]; n != h {
					t.Errorf("%s: class %s evaluated %v periods, its histogram counts %v", when, c, n, h)
				}
				byClass += n
				classes[c.String()] = classes[c.String()] || n > 0
			}
			_, published, _ := svc.FirehoseSpans(nil)
			var perSub, perSubLate int
			for i, sub := range subs {
				led := sub.Stats()
				perSub += led.Delivered + led.Dropped
				perSubLate += led.Late
				if i != 0 {
					buffered(sub)
				}
			}
			if total := float64(st.Delivered + st.Dropped); byClass != total || byClass != float64(published) || byClass != float64(perSub) {
				t.Errorf("%s: classes sum to %v; delivered + dropped %v, firehose %d, subscriptions %d", when, byClass, total, published, perSub)
			}
			if st.Late != uint64(perSubLate) {
				t.Errorf("%s: service late %d, subscriptions late %d", when, st.Late, perSubLate)
			}
		}
		st := svc.Stats()
		if st.Dropped == 0 || st.Late == 0 || st.Closed != 1 || !classes["cold"] || !classes["planned"] || !classes["pyramid"] {
			t.Errorf("workers=%d: the run exercised too little: %+v, classes %v", workers, st, classes)
		}
		svc.Close()
	}
}

// TestTraceSpansDuringAdvance races trace-ring snapshots against the steps
// that record into the rings, at four workers: every snapshot holds whole
// spans of the subscription's own periods (Due == t0 + K·Period), in
// ascending K without a gap, and as many as the ring's depth or the
// periods evaluated so far, whichever is fewer. Under -race the detector
// is a second assertion: the ring has no lock of its own, and TraceSpans
// reads it under the query lock serve records under.
func TestTraceSpansDuringAdvance(t *testing.T) {
	const depth = 6
	nc := testNetwork()
	nc.Service = ServiceConfig{Workers: 4}
	svc, err := Open(context.Background(), nc, WithTraceDepth(depth))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	type traced struct {
		sub    *Subscription
		t0     time.Duration
		period time.Duration
	}
	var subs []traced
	subscribe := func(n int) {
		for i := 0; i < n; i++ {
			spec := smallSpec()
			spec.Period = time.Duration(1+i%4) * 250 * time.Millisecond
			spec.Freshness = spec.Period
			t0 := svc.Now()
			sub, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(100+float64(i*5%250), 200)))
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			subs = append(subs, traced{sub, t0, spec.Period})
		}
	}
	subscribe(32)
	if err := svc.Advance(300 * time.Millisecond); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	subscribe(32)

	// check validates one snapshot of sub i and returns its newest K.
	check := func(i int, spans []PeriodSpan, newest int) int {
		s := subs[i]
		for j, sp := range spans {
			if sp.Due != s.t0+time.Duration(sp.K)*s.period || sp.ArmedNS > sp.PoppedNS || sp.EvalEndNS < sp.EvalStartNS || sp.DeliveredNS < sp.EvalEndNS {
				t.Errorf("sub %d: torn or foreign span %+v", i, sp)
			}
			if j > 0 && sp.K != spans[j-1].K+1 {
				t.Errorf("sub %d: span of period %d follows period %d", i, sp.K, spans[j-1].K)
			}
		}
		if len(spans) == 0 {
			return newest
		}
		last := spans[len(spans)-1].K
		if len(spans) != min(depth, last) || last < newest {
			t.Errorf("sub %d: %d spans up to period %d (newest seen before %d), want min(%d, %d)", i, len(spans), last, newest, depth, last)
		}
		return last
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			newest := make([]int, len(subs))
			var buf []PeriodSpan
			for n := r; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n * 7 % len(subs)
				buf = subs[i].sub.TraceSpans(buf[:0])
				newest[i] = check(i, buf, newest[i])
			}
		}()
	}
	for _, d := range []time.Duration{250, 250, 750, 250, 2000, 250, 500, 250, 1250, 250} {
		if err := svc.Advance(d * time.Millisecond); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	close(stop)
	readers.Wait()
	for i, s := range subs {
		spans := s.sub.TraceSpans(nil)
		check(i, spans, 0)
		if evaluated := s.sub.Stats().NextPeriod - 1; len(spans) != min(depth, evaluated) || evaluated < depth {
			t.Errorf("sub %d: %d spans after %d periods, want min(%d, %d)", i, len(spans), evaluated, depth, evaluated)
		}
	}
}
