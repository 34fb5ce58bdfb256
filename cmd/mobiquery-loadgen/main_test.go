package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/loadgen"
	"mobiquery/internal/server"
)

func TestRunAgainstLiveServer(t *testing.T) {
	nc := mobiquery.DefaultNetworkConfig()
	nc.Nodes = 300
	nc.SamplePeriod = 20 * time.Millisecond
	svc, err := mobiquery.Open(context.Background(), nc,
		mobiquery.WithRealTime(10*time.Millisecond), mobiquery.WithResultBuffer(64))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(server.New(svc, server.Options{}))
	defer func() {
		ts.Close()
		svc.Close()
	}()

	out := filepath.Join(t.TempDir(), "SLO_pr.json")
	metrics := filepath.Join(t.TempDir(), "METRICS_pr.txt")
	args := []string{
		"-addr", ts.URL,
		"-out", out,
		"-metrics-out", metrics,
		"-workers", "3",
		"-warmup", "200ms",
		"-duration", "1s",
		"-wave-workers", "2",
		"-wave-at", "400ms",
		"-period", "50ms",
		"-deadline", "40ms",
		"-fresh", "50ms",
		"-lifetime", "200ms",
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The mid-run scrape captured live traffic.
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
	if !bytes.Contains(raw, []byte("mobiquery_results_delivered_total")) {
		t.Error("metrics artifact missing the delivery ledger")
	}
	rep, err := loadgen.ReadReport(out)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if rep.Phases[loadgen.PhaseSteady].Subscribes == 0 {
		t.Fatalf("steady phase saw no traffic: %+v", rep.Phases[loadgen.PhaseSteady])
	}
	if rep.Totals.SubsPerSec <= 0 {
		t.Errorf("sustained rate %v, want positive", rep.Totals.SubsPerSec)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("artifact missing: %v", err)
	}
}

func TestRunRejectsBadInvocation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("neither -addr nor -serve should be an error")
	}
	if err := run([]string{"-addr", "http://x", "-serve", "bin/serve"}); err == nil {
		t.Error("both -addr and -serve should be an error")
	}
	if err := run([]string{"-addr", "http://x", "-workers", "0"}); err == nil {
		t.Error("invalid workload config should be an error")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag should be an error")
	}
}

func TestParseListeningLine(t *testing.T) {
	cases := []struct {
		line, want string
	}{
		{"mobiquery-serve listening on http://127.0.0.1:41231 (200 nodes over 450 m, tick 20ms)", "http://127.0.0.1:41231"},
		{"mobiquery-serve listening on https://127.0.0.1:9177 (5000 nodes over 2000 m, tick 1s)", "https://127.0.0.1:9177"},
		{"some unrelated log line", ""},
		{"mobiquery-serve listening on tcp:whatever", ""},
		// The pprof banner matches the marker but is never the public
		// address.
		{"mobiquery-serve pprof listening on http://127.0.0.1:6060/debug/pprof/", ""},
	}
	for _, c := range cases {
		if got := parseListeningLine(c.line); got != c.want {
			t.Errorf("parseListeningLine(%q) = %q, want %q", c.line, got, c.want)
		}
	}
}

// TestSpawnMode builds the serve binary and exercises the -serve flow:
// spawn, parse the listening line, run a short workload, SIGTERM.
func TestSpawnMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short")
	}
	bin := buildServe(t)
	out := filepath.Join(t.TempDir(), "SLO_pr.json")
	args := []string{
		"-serve", bin,
		"-out", out,
		"-nodes", "300",
		"-tick", "10ms",
		"-workers", "3",
		"-warmup", "200ms",
		"-duration", "1s",
		"-wave-workers", "0",
		"-period", "50ms",
		"-deadline", "40ms",
		"-fresh", "50ms",
		"-lifetime", "200ms",
	}
	if err := run(args); err != nil {
		t.Fatalf("run -serve: %v", err)
	}
	if _, err := loadgen.ReadReport(out); err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
}

func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mobiquery-serve")
	cmd := exec.Command("go", "build", "-o", bin, "mobiquery/cmd/mobiquery-serve")
	if outb, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build serve: %v\n%s", err, outb)
	}
	return bin
}
