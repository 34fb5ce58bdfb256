// Command mobiquery-slocmp compares two loadgen SLO reports (the
// SLO_pr.json artifact `make serve-smoke` produces, and the committed
// SLO_baseline.json) and gates the PR on service-level regressions.
//
// Three metrics are gated: steady-phase p99 subscribe latency,
// steady-phase p99 delivery lateness, and wave-phase p99 subscribe
// latency (the elasticity probe — how subscribe latency behaves while a
// resubscribe wave lands). For each, the effective baseline is
// max(recorded baseline, floor): smoke runs on shared CI runners put
// single-digit-millisecond numbers at the mercy of scheduler noise, so
// sub-floor baselines gate against the floor instead of the noise. The
// gate fails when current > effective * (1 + threshold/100); a
// threshold of zero (or below) makes the comparison informational only.
//
// A second mode, -expfmt FILE, validates a Prometheus text exposition
// (the METRICS_pr.txt artifact the smoke run scrapes) instead of
// comparing SLO reports: exit status 0 means well-formed. `make
// obs-smoke` and the CI loadgen-smoke job gate on it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mobiquery/internal/loadgen"
	"mobiquery/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobiquery-slocmp:", err)
		os.Exit(1)
	}
}

// gate is one SLO metric under threshold protection.
type gate struct {
	phase  string
	metric string // which Latency of the phase
	floor  float64
}

func (g gate) String() string { return g.phase + " " + g.metric + " p99" }

// p99 pulls the gated quantile out of a phase, reporting whether the
// phase carried any samples for it.
func (g gate) p99(p *loadgen.Phase) (float64, bool) {
	if p == nil {
		return 0, false
	}
	var l loadgen.Latency
	switch g.metric {
	case "subscribe_latency_ms":
		l = p.SubscribeLatencyMS
	case "delivery_lateness_ms":
		l = p.DeliveryLatenessMS
	}
	return l.P99, l.Count > 0
}

var gates = []gate{
	{phase: loadgen.PhaseSteady, metric: "subscribe_latency_ms"},
	{phase: loadgen.PhaseSteady, metric: "delivery_lateness_ms"},
	{phase: loadgen.PhaseWave, metric: "subscribe_latency_ms"},
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mobiquery-slocmp", flag.ContinueOnError)
	var (
		baseline      = fs.String("baseline", "SLO_baseline.json", "committed baseline SLO report")
		current       = fs.String("current", "SLO_pr.json", "freshly produced SLO report")
		threshold     = fs.Float64("threshold", 0, "fail when a gated p99 regresses beyond this percentage against the effective baseline (0 = informational only)")
		latencyFloor  = fs.Float64("latency-floor", 50, "subscribe-latency baselines below this many ms gate against the floor instead")
		latenessFloor = fs.Float64("lateness-floor", 100, "delivery-lateness baselines below this many ms gate against the floor instead")
		expfmt        = fs.String("expfmt", "", "validate this Prometheus text exposition file instead of comparing SLO reports")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *expfmt != "" {
		return validateExpfmt(*expfmt, w)
	}

	base, err := loadgen.ReadReport(*baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cur, err := loadgen.ReadReport(*current)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}

	table(w, base, cur)

	var bad []string
	for _, g := range gates {
		floor := *latencyFloor
		if g.metric == "delivery_lateness_ms" {
			floor = *latenessFloor
		}
		g.floor = floor
		if line := g.check(base, cur, *threshold); line != "" {
			bad = append(bad, line)
		}
	}
	if len(bad) != 0 {
		fmt.Fprintf(w, "\n%d SLO metric(s) regressed beyond the %.0f%% gate:\n", len(bad), *threshold)
		for _, line := range bad {
			fmt.Fprintf(w, "  %s\n", line)
		}
		return fmt.Errorf("%d SLO metric(s) regressed", len(bad))
	}
	if *threshold > 0 {
		fmt.Fprintf(w, "\nall %d gated SLO metrics within %.0f%% of the effective baseline\n", len(gates), *threshold)
	}
	return nil
}

// validateExpfmt checks a scraped /metrics artifact for exposition-format
// violations (syntax, TYPE discipline, histogram monotonicity).
func validateExpfmt(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	families, samples, err := obs.ValidateExposition(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if samples == 0 {
		return fmt.Errorf("%s: exposition carries no samples", path)
	}
	fmt.Fprintf(w, "%s: well-formed exposition, %d families, %d samples\n", path, families, samples)
	return nil
}

// check evaluates one gate; it returns a failure line or "".
func (g gate) check(base, cur *loadgen.Report, threshold float64) string {
	if threshold <= 0 {
		return ""
	}
	bv, okB := g.p99(base.Phases[g.phase])
	cv, okC := g.p99(cur.Phases[g.phase])
	if !okB {
		return "" // baseline never exercised this phase: nothing to gate on
	}
	if !okC {
		return fmt.Sprintf("%s: baseline has samples but the current run recorded none — the workload lost this phase", g)
	}
	effective := bv
	if effective < g.floor {
		effective = g.floor
	}
	if limit := effective * (1 + threshold/100); cv > limit {
		return fmt.Sprintf("%s: %.1f ms -> %.1f ms (limit %.1f ms = max(%.1f, floor %.1f) + %.0f%%)",
			g, bv, cv, limit, bv, g.floor, threshold)
	}
	return ""
}

// table prints the side-by-side phase comparison.
func table(w io.Writer, base, cur *loadgen.Report) {
	fmt.Fprintf(w, "%-30s %12s %12s %9s\n", "metric", "baseline", "current", "delta")
	row := func(name string, bv, cv float64, okB, okC bool) {
		switch {
		case !okB && !okC:
			return
		case !okB:
			fmt.Fprintf(w, "%-30s %12s %12.1f %9s\n", name, "-", cv, "new")
		case !okC:
			fmt.Fprintf(w, "%-30s %12.1f %12s %9s\n", name, bv, "-", "gone")
		default:
			delta := "~"
			if bv != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cv-bv)/bv)
			} else if cv != 0 {
				delta = "+inf"
			}
			fmt.Fprintf(w, "%-30s %12.1f %12.1f %9s\n", name, bv, cv, delta)
		}
	}
	for _, phase := range []string{loadgen.PhaseSteady, loadgen.PhaseWave} {
		bp, cp := base.Phases[phase], cur.Phases[phase]
		for _, metric := range []string{"subscribe_latency_ms", "delivery_lateness_ms"} {
			g := gate{phase: phase, metric: metric}
			bv, okB := g.p99(bp)
			cv, okC := g.p99(cp)
			row(g.String(), bv, cv, okB, okC)
		}
	}
	row("total subs/sec", base.Totals.SubsPerSec, cur.Totals.SubsPerSec, true, true)
	row("total dropped", float64(base.Totals.Dropped), float64(cur.Totals.Dropped), true, true)
}
