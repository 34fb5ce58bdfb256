// Command mobiquery-loadgen drives a mobiquery-serve front-end with a
// seeded closed- or open-loop subscriber workload and writes the SLO
// report (subscribe-latency / delivery-lateness percentiles per phase,
// drop counts, sustained subscriptions/sec) as machine-readable JSON —
// the SLO_pr.json artifact CI trends.
//
// Point it at a running server with -addr, or let it spawn one with
// -serve (the path to a mobiquery-serve binary): the spawned server gets
// a free port, field flags mirroring the workload (-nodes/-region/-seed),
// and a SIGTERM when the run ends.
//
//	mobiquery-loadgen -addr http://127.0.0.1:9177 -workers 16 -duration 10s
//	mobiquery-loadgen -serve bin/mobiquery-serve -out SLO_pr.json
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"mobiquery/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mobiquery-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mobiquery-loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "server base URL (http://host:port); empty with -serve spawns one")
		serveBin = fs.String("serve", "", "path to a mobiquery-serve binary to spawn for the run")
		out      = fs.String("out", "SLO_pr.json", "report output path ('-' for stdout only)")
		workers  = fs.Int("workers", 8, "closed-loop workers (open loop: spawner count)")
		openLoop = fs.Bool("open-loop", false, "open-loop arrivals instead of closed-loop workers")
		rate     = fs.Float64("rate", 50, "open-loop arrival rate, subscriptions/sec")
		warmup   = fs.Duration("warmup", time.Second, "warmup window excluded from steady percentiles")
		duration = fs.Duration("duration", 5*time.Second, "measured window after warmup")
		waveN    = fs.Int("wave-workers", 8, "elasticity wave size (0 disables the wave)")
		waveAt   = fs.Duration("wave-at", 2*time.Second, "wave start, measured from the steady window opening")
		seed     = fs.Int64("seed", 1, "workload seed (query fields and motion)")
		period   = fs.Duration("period", 200*time.Millisecond, "query period")
		deadline = fs.Duration("deadline", 100*time.Millisecond, "deadline slack")
		fresh    = fs.Duration("fresh", 200*time.Millisecond, "freshness window")
		lifetime = fs.Duration("lifetime", time.Second, "subscription lifetime (periods per subscribe)")
		rMin     = fs.Float64("radius-min", 100, "minimum query radius, meters")
		rMax     = fs.Float64("radius-max", 180, "maximum query radius, meters")
		region   = fs.Float64("region", 450, "field side, meters (must match the server)")
		jitN     = fs.Int("jit-every", 4, "every Nth subscription prefetches with JIT (0 = never)")
		courseN  = fs.Int("course-every", 5, "every Nth subscription rides a GPS course (0 = never)")
		largeR   = fs.Float64("large-radius", 0, "radius for large aggregate queries, meters (0 disables them)")
		largeN   = fs.Int("large-every", 16, "every Nth subscription uses -large-radius (on-demand, pyramid-served)")
		nodes    = fs.Int("nodes", 2000, "spawned server: sensor node count")
		tick     = fs.Duration("tick", 20*time.Millisecond, "spawned server: real-time clock tick")
		metrOut  = fs.String("metrics-out", "", "scrape BASE/metrics mid-run and write it to this file")
		metrFin  = fs.String("metrics-final-out", "", "scrape BASE/metrics after the run drains and write it to this file (the ledger mobiquery-tracestat reconciles the trace log against: counters as of after the last span)")
		traceOut = fs.String("trace-out", "", "write the joined client+server trace log (NDJSON) to this file")
		traceN   = fs.Int("trace-every", 2, "every Nth subscription carries a trace context (with -trace-out; 0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*addr == "") == (*serveBin == "") {
		return fmt.Errorf("exactly one of -addr and -serve must be set")
	}

	base := *addr
	if *serveBin != "" {
		stop, spawned, err := spawnServe(*serveBin, *nodes, *region, *seed, *tick)
		if err != nil {
			return err
		}
		defer stop()
		base = spawned
	}

	cfg := loadgen.Config{
		Addr:        base,
		Workers:     *workers,
		OpenLoop:    *openLoop,
		Rate:        *rate,
		Warmup:      *warmup,
		Duration:    *duration,
		WaveWorkers: *waveN,
		WaveAt:      *waveAt,
		Seed:        *seed,
		Period:      *period,
		Deadline:    *deadline,
		Freshness:   *fresh,
		Lifetime:    *lifetime,
		RadiusMin:   *rMin,
		RadiusMax:   *rMax,
		Region:      *region,
		JITEvery:    *jitN,
		CourseEvery: *courseN,
		LargeRadius: *largeR,
	}
	if *largeR > 0 {
		cfg.LargeEvery = *largeN
	}
	if *traceOut != "" {
		cfg.TraceEvery = *traceN
	}
	if err := loadgen.WaitReady(http.DefaultClient, base, 10*time.Second); err != nil {
		return err
	}
	// Scrape /metrics in the middle of the measured window, while the
	// workload is actually on the wire, not after it has drained.
	var scrapec chan scrape
	if *metrOut != "" {
		scrapec = make(chan scrape, 1)
		go func() {
			time.Sleep(*warmup + *duration/2)
			scrapec <- scrapeMetrics(base)
		}()
	}
	rep, traces, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	printSummary(rep)
	if scrapec != nil {
		sc := <-scrapec
		if sc.err != nil {
			return fmt.Errorf("mid-run metrics scrape: %w", sc.err)
		}
		if err := os.WriteFile(*metrOut, sc.body, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", *metrOut, len(sc.body))
	}
	// The final scrape happens after Run has drained every stream, so its
	// counters cover every span in the trace log — the mid-run scrape
	// above cannot (counters keep advancing after it), which is why trace
	// reconciliation gets its own exposition.
	if *metrFin != "" {
		sc := scrapeMetrics(base)
		if sc.err != nil {
			return fmt.Errorf("final metrics scrape: %w", sc.err)
		}
		if err := os.WriteFile(*metrFin, sc.body, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", *metrFin, len(sc.body))
	}
	if *out != "-" {
		if err := rep.WriteFile(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *traceOut != "" {
		if err := traces.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d spans)\n", *traceOut, len(traces.Spans))
		if cfg.TraceEvery > 0 && len(traces.Spans) == 0 {
			return fmt.Errorf("traced run produced no spans — tracing is broken end to end")
		}
	}
	if rep.Totals.Errors > 0 {
		return fmt.Errorf("%d subscribe errors during the run", rep.Totals.Errors)
	}
	if rep.Phases[loadgen.PhaseSteady].Subscribes == 0 {
		return fmt.Errorf("steady phase completed no subscriptions — run too short for lifetime %v", *lifetime)
	}
	return nil
}

// scrape is one /metrics fetch.
type scrape struct {
	body []byte
	err  error
}

// scrapeMetrics GETs base/metrics. The fetch is bounded so a wedged server
// fails the run with a scrape error instead of hanging it (run blocks on
// the scrape result after the load phases finish); a non-200 answer fails
// it too. The body is written as served: the server's registry is the one
// writer of the format, pinned by its own tests, and the reader of the
// final scrape (mobiquery-tracestat) checks the lines it reads.
func scrapeMetrics(base string) scrape {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return scrape{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{err: fmt.Errorf("GET /metrics: status %d", resp.StatusCode)}
	}
	body, err := io.ReadAll(resp.Body)
	return scrape{body: body, err: err}
}

// spawnServe launches a mobiquery-serve binary on a free port and parses
// the bound address from its listening line.
func spawnServe(bin string, nodes int, region float64, seed int64, tick time.Duration) (stop func(), base string, err error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-nodes", fmt.Sprint(nodes),
		"-region", fmt.Sprint(region),
		"-seed", fmt.Sprint(seed),
		"-tick", tick.String(),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	stop = func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	// The listening line is the spawn contract: "... listening on URL ...".
	sc := bufio.NewScanner(stdout)
	linec := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			select {
			case linec <- line:
			default:
			}
			fmt.Println(line) // keep the server log visible
		}
	}()
	select {
	case line := <-linec:
		base = parseListeningLine(line)
		if base == "" {
			stop()
			return nil, "", fmt.Errorf("cannot parse serve address from %q", line)
		}
		return stop, base, nil
	case <-time.After(10 * time.Second):
		stop()
		return nil, "", fmt.Errorf("spawned server never printed its listening line")
	}
}

// parseListeningLine extracts the base URL from the serve banner. The
// pprof banner ("mobiquery-serve pprof listening on ...") also matches
// the marker; it is never the public address, so it never parses.
func parseListeningLine(line string) string {
	const marker = " listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		return ""
	}
	if strings.Contains(line[:i], "pprof") {
		return ""
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	if !strings.HasPrefix(rest, "http") {
		return ""
	}
	return rest
}

// printSummary renders the human-facing SLO table.
func printSummary(rep *loadgen.Report) {
	fmt.Printf("%-8s %10s %8s %6s %8s %28s %28s\n",
		"phase", "subscribes", "results", "late", "dropped", "subscribe p50/p95/p99 ms", "lateness p50/p95/p99 ms")
	for _, name := range []string{loadgen.PhaseWarmup, loadgen.PhaseSteady, loadgen.PhaseWave} {
		p := rep.Phases[name]
		if p == nil || (p.Subscribes == 0 && p.Errors == 0) {
			continue
		}
		fmt.Printf("%-8s %10d %8d %6d %8d %28s %28s\n",
			name, p.Subscribes, p.Results, p.Late, p.Dropped,
			fmtPcts(p.SubscribeLatencyMS), fmtPcts(p.DeliveryLatenessMS))
	}
	fmt.Printf("sustained: %.1f subscriptions/sec, %d results, %d errors\n",
		rep.Totals.SubsPerSec, rep.Totals.Results, rep.Totals.Errors)
}

func fmtPcts(l loadgen.Latency) string {
	if l.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f/%.1f/%.1f", l.P50, l.P95, l.P99)
}
