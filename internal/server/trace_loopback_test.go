package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/wire"
)

// TestTracedLoopbackChainsReconcileExactly is the acceptance test for
// cross-tier tracing: a deterministic manual-clock run where EVERY
// subscription carries a trace context, so the joined client+server span
// set must cover every evaluated period. It pins three properties at
// once:
//
//   - every delivered period's joined chain is monotone: send <= ack,
//     armed <= popped <= eval_start <= eval_end <= flush <= delivered <=
//     wire <= recv (same host, same clock — no skew clamp needed here)
//   - no span is an orphan: its span id equals MintSpanID(trace, k), its
//     trace id equals the one its client minted, and period indices per
//     trace are gapless from 1
//   - the per-class span counts equal the /metrics ledger's
//     mobiquery_periods_evaluated_total{class} exactly — tracing and the
//     metrics ledger describe the same events, not two approximations
func TestTracedLoopbackChainsReconcileExactly(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})

	// Two subscriptions covering two serve classes: radius 150 attaches
	// the aggregate pyramid, radius 50 stays a cold index scan.
	traces := map[uint64]wire.Spec{}
	pyramid := testSpec()
	pyramid.TraceID = wire.FormatID(0xA11CE)
	traces[0xA11CE] = pyramid
	cold := testSpec()
	cold.RadiusM = 50
	cold.TraceID = wire.FormatID(0xB0B)
	traces[0xB0B] = cold

	type stream struct {
		trace uint64
		dec   *wire.Decoder
		send  int64
		ack   int64
	}
	var streams []*stream
	for tid, spec := range traces {
		send := time.Now().UnixNano()
		_, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
			Spec:   spec,
			Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
		})
		defer done()
		streams = append(streams, &stream{trace: tid, dec: dec, send: send, ack: time.Now().UnixNano()})
	}

	const periods = 4
	for i := 0; i < 2*periods; i++ {
		h.advance(t, time.Second) // period 2 s: every other tick delivers
	}

	// Join client receive stamps onto the echoed server spans.
	var joined []wire.ClientSpan
	for _, st := range streams {
		for k := 1; k <= periods; k++ {
			var f wire.Frame
			if err := st.dec.Decode(&f); err != nil {
				t.Fatalf("trace %x period %d: %v", st.trace, k, err)
			}
			recv := time.Now().UnixNano()
			if f.Type != wire.FrameResult || f.Result == nil {
				t.Fatalf("trace %x period %d: frame %+v", st.trace, k, f)
			}
			sp := f.Result.Trace
			if sp == nil {
				t.Fatalf("trace %x period %d: result frame carries no span", st.trace, k)
			}
			joined = append(joined, wire.ClientSpan{
				Sub: uint32(f.Result.K), SendNS: st.send, AckNS: st.ack, RecvNS: recv, Server: *sp,
			})

			// Orphan-free: the ids are the ones this test minted.
			if got, _ := wire.ParseID(sp.TraceID); got != st.trace {
				t.Errorf("trace %x period %d: echoed trace id %q", st.trace, k, sp.TraceID)
			}
			want := mobiquery.MintSpanID(mobiquery.TraceID(st.trace), k)
			if got, _ := wire.ParseID(sp.SpanID); mobiquery.SpanID(got) != want {
				t.Errorf("trace %x period %d: span id %q, want %s",
					st.trace, k, sp.SpanID, wire.FormatID(uint64(want)))
			}
			if sp.K != k {
				t.Errorf("trace %x: period %d arrived as k=%d (gap or reorder)", st.trace, k, sp.K)
			}
			if sp.Outcome != "delivered" {
				t.Errorf("trace %x period %d: outcome %q", st.trace, k, sp.Outcome)
			}

			// Monotone across tiers, on one host's one clock.
			chain := []struct {
				name string
				ns   int64
			}{
				{"send", st.send}, {"ack", st.ack},
				{"armed", sp.ArmedNS}, {"popped", sp.PoppedNS},
				{"eval_start", sp.EvalStartNS}, {"eval_end", sp.EvalEndNS},
				{"delivered", sp.DeliveredNS}, {"wire", sp.WireNS}, {"recv", recv},
			}
			for j := 1; j < len(chain); j++ {
				if chain[j].ns == 0 {
					t.Fatalf("trace %x period %d: %s never stamped", st.trace, k, chain[j].name)
				}
				// The subscribe ack races the first period's arming; the
				// cross-tier ordering starts at the engine chain.
				if chain[j-1].name == "ack" && chain[j].name == "armed" && k == 1 {
					continue
				}
				if chain[j].ns < chain[j-1].ns {
					t.Errorf("trace %x period %d: %s (%d) precedes %s (%d)",
						st.trace, k, chain[j].name, chain[j].ns, chain[j-1].name, chain[j-1].ns)
				}
			}
		}
	}

	// Exact ledger equality: every subscription was traced, so per-class
	// span counts ARE the evaluated-period counters.
	classCount := map[string]float64{}
	for _, cs := range joined {
		classCount[cs.Server.Class]++
	}
	_, samples := fetchMetrics(t, h)
	for _, class := range []string{"cold", "planned", "corridor", "pyramid"} {
		ledger := samples[`mobiquery_periods_evaluated_total{class="`+class+`"}`]
		if classCount[class] != ledger {
			t.Errorf("class %s: %v traced spans, ledger says %v evaluated",
				class, classCount[class], ledger)
		}
	}
	if classCount["pyramid"] == 0 || classCount["cold"] == 0 {
		t.Errorf("workload did not cover both serve classes: %v", classCount)
	}
	if got := samples["mobiquery_trace_spans_published_total"]; got != float64(len(joined)) {
		t.Errorf("firehose published %v spans, %d delivered", got, len(joined))
	}
}

// TestTracedCatchUpSpansStayMonotone pins the stamp semantics of
// catch-up periods: one coarse manual-clock advance spanning several
// periods drains them all in a single Subscription.step call, so periods after
// the first are armed AFTER the batch's PopDue completed. Their logical
// pop instant is their arming moment (they never returned to the
// scheduler), so popped == armed and the chain stays monotone — the
// exact property mobiquery-tracestat's integrity gate rejects violations
// of, and one a per-tick workload can never exercise.
func TestTracedCatchUpSpansStayMonotone(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	spec := testSpec()
	spec.PeriodNS = int64(time.Second)
	spec.TraceID = wire.FormatID(0xCA7C4)
	_, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   spec,
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	})
	defer done()

	const periods = 4
	h.advance(t, periods*time.Second) // one batch drains all four periods

	for k := 1; k <= periods; k++ {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		if f.Type != wire.FrameResult || f.Result == nil || f.Result.Trace == nil {
			t.Fatalf("period %d: frame %+v", k, f)
		}
		sp := f.Result.Trace
		if sp.K != k {
			t.Fatalf("period %d arrived as k=%d", k, sp.K)
		}
		chain := []struct {
			name string
			ns   int64
		}{
			{"armed", sp.ArmedNS}, {"popped", sp.PoppedNS},
			{"eval_start", sp.EvalStartNS}, {"eval_end", sp.EvalEndNS},
			{"delivered", sp.DeliveredNS}, {"wire", sp.WireNS},
		}
		for j := 0; j < len(chain); j++ {
			if chain[j].ns == 0 {
				t.Errorf("period %d: %s never stamped", k, chain[j].name)
			}
			if j > 0 && chain[j].ns < chain[j-1].ns {
				t.Errorf("period %d: %s (%d) precedes %s (%d)",
					k, chain[j].name, chain[j].ns, chain[j-1].name, chain[j-1].ns)
			}
		}
		// Catch-up periods never waited in the scheduler: the popped stamp
		// IS the armed stamp, so the sched segment is honestly zero.
		if k > 1 && sp.PoppedNS != sp.ArmedNS {
			t.Errorf("catch-up period %d: popped %d != armed %d (should reuse the arming instant)",
				k, sp.PoppedNS, sp.ArmedNS)
		}
	}
}

// TestFirehoseEndpoint pins GET /v1/trace: NDJSON spans with the
// published/dropped accounting headers, readable without disturbing the
// tick path.
func TestFirehoseEndpoint(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	spec := testSpec()
	spec.TraceID = wire.FormatID(0xFEED)
	_, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   spec,
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	})
	defer done()
	// An untraced subscription publishes into the firehose too.
	_, _, done2 := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	})
	defer done2()
	for i := 0; i < 6; i++ {
		h.advance(t, time.Second) // 3 periods per subscription
	}
	var f wire.Frame
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("first traced result: %v", err)
	}

	resp, err := http.Get(h.ts.URL + "/v1/trace")
	if err != nil {
		t.Fatalf("firehose: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("firehose content type %q", ct)
	}
	published, err := strconv.ParseUint(resp.Header.Get("X-Mobiquery-Trace-Published"), 10, 64)
	if err != nil {
		t.Fatalf("published header: %v", err)
	}
	dropped, err := strconv.ParseUint(resp.Header.Get("X-Mobiquery-Trace-Dropped"), 10, 64)
	if err != nil {
		t.Fatalf("dropped header: %v", err)
	}
	if published != 6 || dropped != 0 {
		t.Errorf("accounting %d published / %d dropped, want 6/0", published, dropped)
	}

	var spans []wire.TraceSpan
	traced := 0
	fdec := wire.NewDecoder(resp.Body)
	for {
		var sp wire.TraceSpan
		if err := fdec.Decode(&sp); err != nil {
			break
		}
		if sp.DeliveredNS == 0 || sp.Outcome != "delivered" {
			t.Errorf("incomplete firehose span: %+v", sp)
		}
		if sp.TraceID != "" {
			traced++
			if got, _ := wire.ParseID(sp.TraceID); got != 0xFEED {
				t.Errorf("unexpected trace id %q", sp.TraceID)
			}
		}
		spans = append(spans, sp)
	}
	if uint64(len(spans)) != published {
		t.Errorf("stream carried %d spans, headers promised %d", len(spans), published)
	}
	// Both the traced and the untraced subscription flowed through.
	if traced != 3 || len(spans)-traced != 3 {
		t.Errorf("span mix %d traced / %d untraced, want 3/3", traced, len(spans)-traced)
	}
}

// TestTraceLinesAreEncodingJSONBytes pins the hand-written span and traced
// frame lines to encoding/json: a traced result frame off a live stream and
// every line of both trace endpoints re-encode byte for byte through
// json.Marshal — ids present (a traced subscription) and omitted (an
// untraced one), wire_ns present (the frame's echo) and omitted (the
// rings), late omitted.
func TestTraceLinesAreEncodingJSONBytes(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	spec := testSpec()
	spec.TraceID = wire.FormatID(0xFEED)
	body, err := json.Marshal(wire.SubscribeRequest{Spec: spec, Motion: wire.Motion{Kind: "static", XM: 225, YM: 225}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.ts.Client().Post(h.ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer resp.Body.Close()
	stream := bufio.NewReader(resp.Body)
	line, err := stream.ReadBytes('\n')
	if err != nil {
		t.Fatalf("ack: %v", err)
	}
	ack := reencode[wire.Frame](t, line)
	_, _, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	})
	defer done()
	for i := 0; i < 4; i++ {
		h.advance(t, time.Second) // 2 periods per subscription
	}

	if line, err = stream.ReadBytes('\n'); err != nil {
		t.Fatalf("result frame: %v", err)
	}
	if f := reencode[wire.Frame](t, line); f.Result == nil || f.Result.Trace == nil || f.Result.Trace.WireNS == 0 {
		t.Fatalf("want a traced result frame with its wire stamp, got %s", line)
	}
	traced, untraced := 0, 0
	for _, path := range []string{"/v1/subscriptions/" + strconv.FormatUint(uint64(ack.ID), 10) + "/trace", "/v1/trace"} {
		resp, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		lines := bytes.SplitAfter(raw, []byte("\n"))
		if len(lines) < 3 || len(lines[len(lines)-1]) != 0 {
			t.Fatalf("%s: body %q, want newline-terminated span lines", path, raw)
		}
		for _, line := range lines[:len(lines)-1] {
			if sp := reencode[wire.TraceSpan](t, line); sp.TraceID != "" {
				traced++
			} else {
				untraced++
			}
		}
	}
	if traced != 4 || untraced != 2 {
		t.Errorf("%d traced and %d untraced span lines, want 4 and 2", traced, untraced)
	}
}

// reencode decodes one line with encoding/json and requires json.Marshal to
// write the same bytes back.
func reencode[T any](t *testing.T, line []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(line, &v); err != nil {
		t.Fatalf("line %q: %v", line, err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSuffix(line, []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("line\n%s\nis not what encoding/json writes:\n%s", got, want)
	}
	return v
}
