package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mobiquery"
	"mobiquery/internal/loadgen"
	"mobiquery/internal/wire"
)

// span builds one well-formed joined span: monotone stamps and the
// derived span id the validator expects.
func span(trace uint64, k int, late bool) wire.ClientSpan {
	base := int64(1_000_000_000_000) + int64(k)*10_000_000
	return wire.ClientSpan{
		Sub:    7,
		SendNS: base - 5_000_000,
		AckNS:  base - 4_000_000,
		RecvNS: base + 7_000_000,
		Server: wire.TraceSpan{
			TraceID:     wire.FormatID(trace),
			SpanID:      wire.FormatID(uint64(mobiquery.MintSpanID(mobiquery.TraceID(trace), k))),
			K:           k,
			DueNS:       int64(k) * 1_000_000,
			ArmedNS:     base,
			PoppedNS:    base + 1_000_000,
			EvalStartNS: base + 2_000_000,
			EvalEndNS:   base + 3_000_000,
			FlushNS:     base + 3_000_000, // not a stage: stamped equal to eval_end
			DeliveredNS: base + 5_000_000,
			WireNS:      base + 6_000_000,
			Class:       "cold",
			Outcome:     "delivered",
			Late:        late,
		},
	}
}

// write persists a trace log and returns its path.
func write(t *testing.T, spans ...wire.ClientSpan) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "TRACE_pr.ndjson")
	log := &loadgen.TraceLog{Spans: spans}
	if err := log.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func runTool(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

func TestValidLogPassesCheck(t *testing.T) {
	path := write(t, span(0xabc, 1, false), span(0xabc, 2, true), span(0xdef, 1, false))
	out, err := runTool(t, "-trace", path, "-check")
	if err != nil {
		t.Fatalf("valid log failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all checks passed") {
		t.Errorf("missing pass line:\n%s", out)
	}
	if !strings.Contains(out, "3 spans, 2 traces") {
		t.Errorf("wrong span/trace summary:\n%s", out)
	}
	// The table names every segment and counts the late period.
	for _, seg := range []string{"sched", "dispatch", "eval", "deliver", "wire", "client"} {
		if !strings.Contains(out, seg) {
			t.Errorf("segment %q missing from table:\n%s", seg, out)
		}
	}
	if !strings.Contains(out, "(1 late)") {
		t.Errorf("late count missing:\n%s", out)
	}
}

func TestForgedSpanIDFails(t *testing.T) {
	s := span(0xabc, 1, false)
	s.Server.SpanID = wire.FormatID(12345) // not MintSpanID(trace, k)
	out, err := runTool(t, "-trace", write(t, s), "-check")
	if err == nil {
		t.Fatalf("forged span id passed:\n%s", out)
	}
	if !strings.Contains(out, "MintSpanID") {
		t.Errorf("violation not attributed to the span id:\n%s", out)
	}
}

func TestBackwardsSegmentFails(t *testing.T) {
	s := span(0xabc, 1, false)
	s.Server.EvalEndNS = s.Server.EvalStartNS - 1
	if out, err := runTool(t, "-trace", write(t, s), "-check"); err == nil {
		t.Fatalf("backwards segment passed:\n%s", out)
	}
}

func TestMissingStageFails(t *testing.T) {
	s := span(0xabc, 1, false)
	s.Server.DeliveredNS = 0
	if out, err := runTool(t, "-trace", write(t, s), "-check"); err == nil {
		t.Fatalf("missing delivered stamp passed:\n%s", out)
	}
}

func TestDuplicateSpanFails(t *testing.T) {
	s := span(0xabc, 1, false)
	if out, err := runTool(t, "-trace", write(t, s, s), "-check"); err == nil {
		t.Fatalf("duplicate span passed:\n%s", out)
	}
}

func TestOutOfOrderPeriodsFail(t *testing.T) {
	if out, err := runTool(t, "-trace", write(t, span(0xabc, 2, false), span(0xabc, 1, false)), "-check"); err == nil {
		t.Fatalf("out-of-order periods passed:\n%s", out)
	}
}

func TestUntracedOrDroppedSpanFails(t *testing.T) {
	s := span(0xabc, 1, false)
	s.Server.TraceID, s.Server.SpanID = "", ""
	if out, err := runTool(t, "-trace", write(t, s), "-check"); err == nil {
		t.Fatalf("untraced span passed:\n%s", out)
	}
	s = span(0xabc, 1, false)
	s.Server.Outcome = "dropped"
	if out, err := runTool(t, "-trace", write(t, s), "-check"); err == nil {
		t.Fatalf("dropped echoed span passed:\n%s", out)
	}
}

func TestCheckOffStillReportsButPasses(t *testing.T) {
	s := span(0xabc, 1, false)
	s.Server.SpanID = wire.FormatID(12345)
	out, err := runTool(t, "-trace", write(t, s))
	if err != nil {
		t.Fatalf("report-only mode errored: %v", err)
	}
	if !strings.Contains(out, "INTEGRITY:") {
		t.Errorf("violation not reported:\n%s", out)
	}
}

// ledgerFile writes body as a -metrics exposition and returns its path.
func ledgerFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "METRICS_pr.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatalf("write exposition: %v", err)
	}
	return path
}

// exposition renders a minimal valid ledger for -metrics.
func exposition(t *testing.T, cold int) string {
	t.Helper()
	return ledgerFile(t, "# HELP mobiquery_periods_evaluated_total periods evaluated by serve class\n"+
		"# TYPE mobiquery_periods_evaluated_total counter\n"+
		"mobiquery_periods_evaluated_total{class=\"cold\"} "+strconv.Itoa(cold)+"\n"+
		"mobiquery_periods_evaluated_total{class=\"planned\"} 0\n")
}

func TestLedgerReconciliation(t *testing.T) {
	trace := write(t, span(0xabc, 1, false), span(0xabc, 2, false))
	// Two cold spans against a ledger of 5: a subset, fine.
	if out, err := runTool(t, "-trace", trace, "-metrics", exposition(t, 5), "-check"); err != nil {
		t.Fatalf("subset reconciliation failed: %v\n%s", err, out)
	}
	// Two cold spans against a ledger of 1: more spans than evaluations.
	out, err := runTool(t, "-trace", trace, "-metrics", exposition(t, 1), "-check")
	if err == nil {
		t.Fatalf("over-count reconciliation passed:\n%s", out)
	}
	if !strings.Contains(out, "exceed the ledger") {
		t.Errorf("violation not attributed to the ledger:\n%s", out)
	}
	// A ledger line that does not parse fails the run even when the rest
	// of the ledger covers the spans: it is not skipped.
	for _, bad := range []string{
		`mobiquery_periods_evaluated_total{class="planned"} many`,
		`mobiquery_periods_evaluated_total{class="planned} 0`,
		`mobiquery_periods_evaluated_total{class=""} 0`,
	} {
		led := ledgerFile(t, "mobiquery_periods_evaluated_total{class=\"cold\"} 5\n"+bad+"\n")
		_, err := runTool(t, "-trace", trace, "-metrics", led, "-check")
		if err == nil || !strings.Contains(err.Error(), "unparsable ledger sample") {
			t.Errorf("ledger line %q: err = %v, want an unparsable-sample error", bad, err)
		}
	}
}

func TestAttributionTableWrittenToFile(t *testing.T) {
	trace := write(t, span(0xabc, 1, true))
	out := filepath.Join(t.TempDir(), "TRACE_attrib.txt")
	if _, err := runTool(t, "-trace", trace, "-out", out, "-check"); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read table: %v", err)
	}
	if !strings.Contains(string(b), "lateness attribution") {
		t.Errorf("table file malformed:\n%s", b)
	}
}
