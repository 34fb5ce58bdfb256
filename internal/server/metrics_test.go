package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/wire"
)

// fetchMetrics GETs /metrics and returns the raw text plus a flat sample
// map ("name{labels}" -> value); a sample line that does not parse fails
// the test.
func fetchMetrics(t *testing.T, h *harness) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	text := string(raw)
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return text, samples
}

// TestMetricsGolden pins the /metrics surface: the exact family set (as
// sorted # TYPE lines) and the deterministic counter values after a
// manual-clock run.
func TestMetricsGolden(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	_, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	})
	defer done()
	for i := 0; i < 4; i++ {
		h.advance(t, time.Second) // 4 x 1 s over a 2 s period: 2 delivered
	}
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("first result: %+v err=%v", f, err)
	}

	text, samples := fetchMetrics(t, h)

	var types []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	sort.Strings(types)
	want := []string{
		"# TYPE mobiquery_advance_idle_ticks_total counter",
		"# TYPE mobiquery_advance_pop_batch histogram",
		"# TYPE mobiquery_advance_stage_seconds histogram",
		"# TYPE mobiquery_advance_ticks_total counter",
		"# TYPE mobiquery_build_info gauge",
		"# TYPE mobiquery_draining gauge",
		"# TYPE mobiquery_evaluate_seconds histogram",
		"# TYPE mobiquery_go_gc_pause_ns_total counter",
		"# TYPE mobiquery_go_gomaxprocs gauge",
		"# TYPE mobiquery_go_goroutines gauge",
		"# TYPE mobiquery_go_heap_inuse_bytes gauge",
		"# TYPE mobiquery_http_request_seconds histogram",
		"# TYPE mobiquery_http_requests_total counter",
		"# TYPE mobiquery_nodes gauge",
		"# TYPE mobiquery_periods_evaluated_total counter",
		"# TYPE mobiquery_pyramid_builds_total counter",
		"# TYPE mobiquery_pyramid_classes gauge",
		"# TYPE mobiquery_pyramid_serves_total counter",
		"# TYPE mobiquery_reading_column_builds_total counter",
		"# TYPE mobiquery_reading_column_scans_total counter",
		"# TYPE mobiquery_results_delivered_total counter",
		"# TYPE mobiquery_results_dropped_total counter",
		"# TYPE mobiquery_results_late_total counter",
		"# TYPE mobiquery_sched_entries gauge",
		"# TYPE mobiquery_subscribers gauge",
		"# TYPE mobiquery_subscriptions_closed_total counter",
		"# TYPE mobiquery_subscriptions_opened_total counter",
		"# TYPE mobiquery_trace_spans_dropped_total counter",
		"# TYPE mobiquery_trace_spans_published_total counter",
		"# TYPE mobiquery_virtual_time_ns gauge",
	}
	if len(types) != len(want) {
		t.Fatalf("got %d TYPE lines, want %d:\n%s", len(types), len(want), strings.Join(types, "\n"))
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("TYPE line %d: %q, want %q", i, types[i], want[i])
		}
	}

	for name, v := range map[string]float64{
		"mobiquery_advance_ticks_total":        4,
		"mobiquery_advance_idle_ticks_total":   2,
		"mobiquery_results_delivered_total":    2,
		"mobiquery_results_dropped_total":      0,
		"mobiquery_subscribers":                1,
		"mobiquery_subscriptions_opened_total": 1,
		"mobiquery_nodes":                      300,
		"mobiquery_virtual_time_ns":            4e9,
		"mobiquery_advance_pop_batch_count":    2,
		"mobiquery_draining":                   0,
	} {
		if got, ok := samples[name]; !ok || got != v {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, v)
		}
	}
	// Runtime self-metrics sample live values, and the build-info gauge
	// carries the toolchain labels at constant 1.
	var buildInfo bool
	for k, v := range samples {
		if strings.HasPrefix(k, `mobiquery_build_info{go_version="go`) &&
			strings.Contains(k, `module="mobiquery"`) && v == 1 {
			buildInfo = true
		}
	}
	if !buildInfo {
		t.Error("mobiquery_build_info{go_version=...,module=\"mobiquery\"} 1 missing")
	}
	if samples["mobiquery_go_gomaxprocs"] < 1 {
		t.Errorf("gomaxprocs = %v, want >= 1", samples["mobiquery_go_gomaxprocs"])
	}
	if samples["mobiquery_go_goroutines"] < 1 {
		t.Errorf("goroutines = %v, want >= 1", samples["mobiquery_go_goroutines"])
	}
	if samples["mobiquery_go_heap_inuse_bytes"] <= 0 {
		t.Errorf("heap in-use = %v, want positive", samples["mobiquery_go_heap_inuse_bytes"])
	}

	// The advance route itself was hit four times before the scrape.
	if got := samples[`mobiquery_http_requests_total{route="advance"}`]; got != 4 {
		t.Errorf("advance route requests = %v, want 4", got)
	}
	if got := samples[`mobiquery_http_request_seconds_count{route="advance"}`]; got != 4 {
		t.Errorf("advance route latency count = %v, want 4", got)
	}
}

// TestTraceEndpoint pins GET /v1/subscriptions/{id}/trace: NDJSON span
// lines oldest first, stage-ordered timestamps, and clean errors for
// unknown ids.
func TestTraceEndpoint(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	ack, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	})
	defer done()
	for i := 0; i < 3; i++ {
		h.advance(t, 2*time.Second)
	}
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("first result: %+v err=%v", f, err)
	}

	resp, err := http.Get(h.ts.URL + "/v1/subscriptions/" + strconv.FormatUint(uint64(ack.ID), 10) + "/trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	var spans []wire.TraceSpan
	tdec := wire.NewDecoder(resp.Body)
	for {
		var sp wire.TraceSpan
		if err := tdec.Decode(&sp); err != nil {
			break
		}
		spans = append(spans, sp)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, sp := range spans {
		if sp.K != i+1 {
			t.Errorf("span %d: k = %d, want %d", i, sp.K, i+1)
		}
		if sp.DueNS != int64(sp.K)*int64(2*time.Second) {
			t.Errorf("span %d: due %d", i, sp.DueNS)
		}
		if sp.Outcome != "delivered" {
			t.Errorf("span %d: outcome %q", i, sp.Outcome)
		}
		if sp.Class == "" {
			t.Errorf("span %d: empty class", i)
		}
		if !(sp.ArmedNS <= sp.PoppedNS && sp.PoppedNS <= sp.EvalStartNS &&
			sp.EvalStartNS <= sp.EvalEndNS && sp.EvalEndNS <= sp.DeliveredNS) {
			t.Errorf("span %d: stamps out of stage order: %+v", i, sp)
		}
		if sp.TraceID != "" || sp.SpanID != "" {
			t.Errorf("span %d: untraced subscription carries ids: %+v", i, sp)
		}
	}

	for path, want := range map[string]int{
		"/v1/subscriptions/999999/trace": http.StatusNotFound,
		"/v1/subscriptions/zebra/trace":  http.StatusBadRequest,
	} {
		resp, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestMetricsReconcileWithStats pins the two observability surfaces
// against each other after a mixed pyramid/cold workload: the /metrics
// ledger equals /v1/stats field for field, the serve-class counters
// partition delivered+dropped, and each class's latency histogram count
// equals its class counter.
func TestMetricsReconcileWithStats(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	// One pyramid-served subscription (radius 150 attaches the aggregate
	// pyramid) and one cold on-demand subscription (radius 50 is below the
	// attachment threshold).
	small := testSpec()
	small.RadiusM = 50
	_, _, done1 := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec: testSpec(), Motion: wire.Motion{Kind: "static", XM: 225, YM: 225}})
	defer done1()
	_, _, done2 := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec: small, Motion: wire.Motion{Kind: "linear", XM: 150, YM: 150, VXMPS: 2}})
	defer done2()
	for i := 0; i < 10; i++ {
		h.advance(t, time.Second)
	}

	_, samples := fetchMetrics(t, h)
	resp, err := http.Get(h.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st wire.ServiceStats
	if err := wire.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()

	if st.Delivered == 0 || st.PyramidServes == 0 {
		t.Fatalf("workload did not exercise delivery and the pyramid: %+v", st)
	}

	// Ledger: /metrics == /v1/stats (the scrape samples the same Stats
	// snapshot the stats endpoint serves).
	for name, want := range map[string]float64{
		"mobiquery_results_delivered_total":    float64(st.Delivered),
		"mobiquery_results_dropped_total":      float64(st.Dropped),
		"mobiquery_results_late_total":         float64(st.Late),
		"mobiquery_pyramid_serves_total":       float64(st.PyramidServes),
		"mobiquery_pyramid_builds_total":       float64(st.PyramidBuilds),
		"mobiquery_pyramid_classes":            float64(st.PyramidClasses),
		"mobiquery_subscriptions_opened_total": float64(st.Opened),
		"mobiquery_subscriptions_closed_total": float64(st.Closed),
		"mobiquery_subscribers":                float64(st.Subscribers),
		"mobiquery_sched_entries":              float64(st.SchedLen),
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %v, /v1/stats says %v", name, got, want)
		}
	}
	// The service is quiescent after the last Advance, so every live
	// subscription is armed for its next period: a lost re-arm shows up
	// here as a number, not as a stream that silently stops.
	if st.SchedLen != st.Subscribers || st.Subscribers != 2 {
		t.Errorf("sched_len = %d, subscribers = %d, want both 2", st.SchedLen, st.Subscribers)
	}

	// Serve classes partition evaluated periods.
	classes := []string{"cold", "planned", "corridor", "pyramid"}
	var classSum float64
	for _, c := range classes {
		evaluated := samples[`mobiquery_periods_evaluated_total{class="`+c+`"}`]
		classSum += evaluated
		if histCount := samples[`mobiquery_evaluate_seconds_count{class="`+c+`"}`]; histCount != evaluated {
			t.Errorf("class %s: histogram count %v != evaluated counter %v", c, histCount, evaluated)
		}
	}
	if classSum != float64(st.Delivered+st.Dropped) {
		t.Errorf("class counters sum to %v, want delivered+dropped = %d", classSum, st.Delivered+st.Dropped)
	}
	if pyr := samples[`mobiquery_periods_evaluated_total{class="pyramid"}`]; pyr == 0 {
		t.Error("pyramid class never served despite a pyramid-attached subscription")
	}
	if cold := samples[`mobiquery_periods_evaluated_total{class="cold"}`]; cold == 0 {
		t.Error("cold class never served despite an on-demand subscription")
	}

	// Advance stage histograms all saw every tick.
	for _, stage := range []string{"pop", "evaluate", "flush"} {
		name := `mobiquery_advance_stage_seconds_count{stage="` + stage + `"}`
		if stage == "pop" {
			if got := samples[name]; got != 10 {
				t.Errorf("%s = %v, want 10 (every tick pops)", name, got)
			}
			continue
		}
		if got, busy := samples[name], 10-samples["mobiquery_advance_idle_ticks_total"]; got != busy {
			t.Errorf("%s = %v, want %v (non-idle ticks)", name, got, busy)
		}
	}
}
