// Command mobiquery-tracestat reads the loadgen's TRACE_pr.ndjson trace
// log (joined client+server period spans), validates span integrity, and
// prints the lateness-attribution table: where each delivered period's
// wall time went, segment by segment, across the client/wire/server/
// engine tiers.
//
// Integrity checks (all of them fail the run under -check):
//
//   - every span carries a parseable trace context, and its span id
//     equals MintSpanID(trace_id, k) — span ids are derived, not random,
//     so a mis-joined or orphaned span is detectable offline
//   - the server segment chain is monotone: armed <= popped <=
//     eval_start <= eval_end <= delivered <= wire, every stage stamped
//   - the client stamps are monotone (send <= ack <= recv) and present
//   - no duplicate (trace_id, span_id); within a trace, period indices
//     strictly increase in arrival order
//   - every echoed span is a delivered one with a valid serve class
//
// With -metrics METRICS_final.txt it also reconciles the log against the
// server's /metrics ledger: the traced per-class span counts must not
// exceed mobiquery_periods_evaluated_total{class}. The subset property
// only holds against a scrape taken at-or-after the log's last span
// (use the loadgen's -metrics-final-out, not the mid-run scrape); it is
// an inequality because only every TraceEvery-th subscription is traced.
// Exact equality is pinned by the deterministic loopback test, not here.
//
// The attribution table reports p50/p95/p99 milliseconds per segment
// plus, for periods the server marked late, which segment dominated —
// turning "it was late" into "scheduling wait was the bottleneck".
//
//	mobiquery-tracestat -trace TRACE_pr.ndjson -metrics METRICS_final.txt -check
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"mobiquery"
	"mobiquery/internal/loadgen"
	"mobiquery/internal/obs"
	"mobiquery/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobiquery-tracestat:", err)
		os.Exit(1)
	}
}

// segments is the causal decomposition of one delivered period, in chain
// order. Each is the wall time between two adjacent stamps.
var segments = []struct {
	name string
	desc string
}{
	{"sched", "armed -> popped: waiting in the due-period scheduler"},
	{"dispatch", "popped -> eval_start: waiting for a dispatch worker"},
	{"eval", "eval_start -> eval_end: engine evaluation"},
	{"deliver", "eval_end -> delivered: hand-over to the Results channel, on the evaluating worker"},
	{"wire", "delivered -> wire: stream handler wake + frame encode"},
	{"client", "wire -> recv: network + client scheduling (clamped >= 0)"},
}

// segmentsOf decomposes one joined span into per-segment nanoseconds.
// The cross-clock client segment is clamped at zero: the server and
// client stamps come from different clocks (same host under the smoke
// harness, but the contract tolerates skew).
func segmentsOf(cs wire.ClientSpan) [6]int64 {
	s := cs.Server
	client := cs.RecvNS - s.WireNS
	if client < 0 {
		client = 0
	}
	return [6]int64{
		s.PoppedNS - s.ArmedNS,
		s.EvalStartNS - s.PoppedNS,
		s.EvalEndNS - s.EvalStartNS,
		s.DeliveredNS - s.EvalEndNS,
		s.WireNS - s.DeliveredNS,
		client,
	}
}

// validate checks one joined span's integrity, appending one message per
// violation.
func validate(i int, cs wire.ClientSpan, errs []string) []string {
	bad := func(format string, args ...any) []string {
		return append(errs, fmt.Sprintf("span %d (sub %d, k %d): %s", i, cs.Sub, cs.Server.K, fmt.Sprintf(format, args...)))
	}
	s := cs.Server
	tid, err := wire.ParseID(s.TraceID)
	if err != nil || tid == 0 {
		return bad("missing or invalid trace_id %q", s.TraceID)
	}
	sid, err := wire.ParseID(s.SpanID)
	if err != nil {
		return bad("invalid span_id %q", s.SpanID)
	}
	if want := mobiquery.MintSpanID(mobiquery.TraceID(tid), s.K); mobiquery.SpanID(sid) != want {
		return bad("span_id %s is not MintSpanID(trace, %d) = %s", s.SpanID, s.K, wire.FormatID(uint64(want)))
	}
	if _, ok := obs.ParseClass(s.Class); !ok {
		errs = bad("unknown serve class %q", s.Class)
	}
	if s.Outcome != "delivered" {
		errs = bad("outcome %q on an echoed span (only delivered periods reach the wire)", s.Outcome)
	}
	// The server chain: every stage stamped, in causal order.
	stamps := []struct {
		name string
		ns   int64
	}{
		{"armed", s.ArmedNS}, {"popped", s.PoppedNS}, {"eval_start", s.EvalStartNS},
		{"eval_end", s.EvalEndNS}, {"delivered", s.DeliveredNS}, {"wire", s.WireNS},
	}
	for j, st := range stamps {
		if st.ns == 0 {
			errs = bad("stage %s never stamped", st.name)
			continue
		}
		if j > 0 && stamps[j-1].ns != 0 && st.ns < stamps[j-1].ns {
			errs = bad("segment %s -> %s runs backwards (%d > %d)", stamps[j-1].name, st.name, stamps[j-1].ns, st.ns)
		}
	}
	switch {
	case cs.SendNS == 0 || cs.AckNS == 0 || cs.RecvNS == 0:
		errs = bad("client stamps incomplete: send %d ack %d recv %d", cs.SendNS, cs.AckNS, cs.RecvNS)
	case cs.SendNS > cs.AckNS || cs.AckNS > cs.RecvNS:
		errs = bad("client stamps out of order: send %d ack %d recv %d", cs.SendNS, cs.AckNS, cs.RecvNS)
	}
	return errs
}

// ledger is the per-class evaluated totals parsed out of a /metrics
// exposition.
type ledger map[string]float64

// readLedger extracts the mobiquery_periods_evaluated_total{class="…"}
// samples from a /metrics exposition. It reads only the lines with that
// prefix, and one whose class or value does not parse fails the run rather
// than leaving its class out of the ledger.
func readLedger(path string) (ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	led := ledger{}
	const prefix = `mobiquery_periods_evaluated_total{class="`
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		class, value, ok := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(value, 64)
		if !ok || class == "" || err != nil {
			return nil, fmt.Errorf("%s: unparsable ledger sample %q", path, line)
		}
		led[class] = v
	}
	return led, nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mobiquery-tracestat", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "TRACE_pr.ndjson", "trace log written by mobiquery-loadgen -trace-out")
		metrics   = fs.String("metrics", "", "reconcile per-class span counts against this /metrics exposition")
		out       = fs.String("out", "", "also write the attribution table to this file")
		check     = fs.Bool("check", false, "exit non-zero on any integrity violation (default: report only)")
		maxErrs   = fs.Int("max-errors", 20, "print at most this many integrity violations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := loadgen.ReadTraceLog(*tracePath)
	if err != nil {
		return err
	}
	if len(log.Spans) == 0 {
		return fmt.Errorf("%s: no spans — was the loadgen run traced (-trace-out/-trace-every)?", *tracePath)
	}

	// Integrity: per-span checks, then cross-span uniqueness and per-trace
	// period ordering.
	var errs []string
	type key struct {
		trace, span string
	}
	seen := make(map[key]int, len(log.Spans))
	lastK := make(map[string]int)
	classCount := map[string]int{}
	for i, cs := range log.Spans {
		errs = validate(i, cs, errs)
		k := key{cs.Server.TraceID, cs.Server.SpanID}
		if j, dup := seen[k]; dup {
			errs = append(errs, fmt.Sprintf("span %d duplicates span %d (%s/%s)", i, j, k.trace, k.span))
		}
		seen[k] = i
		if prev, ok := lastK[cs.Server.TraceID]; ok && cs.Server.K <= prev {
			errs = append(errs, fmt.Sprintf("span %d: period %d of trace %s arrived after period %d", i, cs.Server.K, cs.Server.TraceID, prev))
		}
		lastK[cs.Server.TraceID] = cs.Server.K
		classCount[cs.Server.Class]++
	}

	// Reconcile against the server ledger: traced spans are a subset of
	// evaluated periods, so each class must not exceed its counter.
	if *metrics != "" {
		led, err := readLedger(*metrics)
		if err != nil {
			return err
		}
		for class, n := range classCount {
			if float64(n) > led[class] {
				errs = append(errs, fmt.Sprintf("class %q: %d traced spans exceed the ledger's %g evaluated periods", class, n, led[class]))
			}
		}
	}

	table := attributionTable(log.Spans, classCount)
	fmt.Fprint(w, table)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(table), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *out)
	}

	if len(errs) > 0 {
		shown := errs
		if len(shown) > *maxErrs {
			shown = shown[:*maxErrs]
		}
		for _, e := range shown {
			fmt.Fprintln(w, "INTEGRITY:", e)
		}
		if len(errs) > len(shown) {
			fmt.Fprintf(w, "... and %d more\n", len(errs)-len(shown))
		}
		if *check {
			return fmt.Errorf("%d integrity violations in %d spans", len(errs), len(log.Spans))
		}
	} else {
		fmt.Fprintf(w, "integrity: %d spans, %d traces, all checks passed\n", len(log.Spans), len(lastK))
	}
	return nil
}

// attributionTable renders the per-segment latency distribution and the
// dominant segment of every late period.
func attributionTable(spans []wire.ClientSpan, classCount map[string]int) string {
	segs := make([][]float64, len(segments))
	domLate := make([]int, len(segments))
	late := 0
	for _, cs := range spans {
		parts := segmentsOf(cs)
		argmax, max := 0, int64(math.MinInt64)
		for j, ns := range parts {
			segs[j] = append(segs[j], float64(ns)/1e6)
			if ns > max {
				argmax, max = j, ns
			}
		}
		if cs.Server.Late {
			late++
			domLate[argmax]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lateness attribution over %d joined spans (%d late)\n", len(spans), late)
	fmt.Fprintf(&b, "%-9s %10s %10s %10s %10s %9s  %s\n", "segment", "p50 ms", "p95 ms", "p99 ms", "max ms", "dom.late", "boundary")
	for j, seg := range segments {
		q := quantiles(segs[j])
		dom := "-"
		if late > 0 {
			dom = fmt.Sprintf("%d/%d", domLate[j], late)
		}
		fmt.Fprintf(&b, "%-9s %10.3f %10.3f %10.3f %10.3f %9s  %s\n",
			seg.name, q[0], q[1], q[2], q[3], dom, seg.desc)
	}
	classes := make([]string, 0, len(classCount))
	for c := range classCount {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "class %-9s %d spans\n", c, classCount[c])
	}
	return b.String()
}

// quantiles returns nearest-rank p50/p95/p99/max of one sample set.
func quantiles(s []float64) [4]float64 {
	if len(s) == 0 {
		return [4]float64{}
	}
	s = slices.Clone(s)
	slices.Sort(s)
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return [4]float64{pick(0.50), pick(0.95), pick(0.99), s[len(s)-1]}
}
