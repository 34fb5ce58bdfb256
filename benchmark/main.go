// Command benchmark is the repository benchmark (see README.md beside it
// and BENCHMARK.json at the repository root). It drives the service in lock
// step from outside: one period boundary in flight, the next fired only
// when every result of the previous one has reached its consumer.
//
//	go run ./benchmark -workload dense_eval -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload dense_eval -seed 1 -seconds 10 -trace 1
//	go run ./benchmark                      # every workload, both passes, tables
//	go run ./benchmark -repeat 2            # the self-check of the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"mobiquery"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures
// when the driver (or nobody) says.
const runSeconds = 15

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all of them and prints tables")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measuring time of one pass, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from the untraced pass; 1: per-layer metrics from probes and the traced pass")
	flag.IntVar(&o.repeat, "repeat", 0, "run every workload this many times, alternating order, and check the end-to-end medians against their bounds")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory the traced pass writes its harness spans to")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.repeat < 0 || flag.NArg() != 0 {
		return errors.New("usage: -workload <name> -seed <n> -seconds <n> -trace <0|1> [-repeat <n>]")
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	printEnvironment(o)
	switch {
	case o.repeat > 0:
		return runRepeat(o)
	case o.workload == "":
		return runAll(o)
	}
	wl, err := generate(o.workload, o.seed)
	if err != nil {
		return err
	}
	var out *outcome
	if o.trace == 0 {
		out, err = runEndToEnd(wl, o)
	} else {
		out, err = runLayers(wl, o)
	}
	if err != nil {
		return err
	}
	out.print(os.Stdout)
	return out.printResultLine(os.Stdout)
}

// printEnvironment stamps every output with where it was measured.
func printEnvironment(o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, o.seconds)
}

// outcome is one invocation's result for one workload: the metric values
// of the selected kind, the ledger, and whether the outputs were correct.
type outcome struct {
	Workload  string
	Defs      []metricDef
	Values    metricValues
	Attempted int64
	Failed    int64
	Correct   bool
	Notes     []string
	Wall      time.Duration
}

func (o *outcome) print(w *os.File) {
	fmt.Fprintf(w, "## %s (%.1f s wall)\n", o.Workload, o.Wall.Seconds())
	for _, n := range o.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, d := range o.Defs {
		fmt.Fprintf(w, "   %-34s %16.4f %s\n", d.Name, o.Values[d.Name], d.Unit)
	}
}

// printResultLine prints the one-line JSON object the benchmark contract
// asks for as the last line of standard output.
func (o *outcome) printResultLine(w *os.File) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, make(map[string]value, len(o.Defs))}
	for _, d := range o.Defs {
		line.Metrics[d.Name] = value{o.Values[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	if err == nil && !o.Correct {
		err = errors.New("outputs are not correct (see the notes above)")
	}
	return err
}

// maxBoundaries sizes the sample buffers for a pass of the given length: no
// workload delivers 400k periods a second on the four cores the harness
// allows itself, and a pass that somehow did would simply end early.
func maxBoundaries(wl *workload, budget time.Duration) int {
	n := int(budget.Seconds()*400e3)/len(wl.Cohorts[0]) + digestBoundaries
	if wl.MaxK > 0 {
		n = min(n, wl.MaxK)
	}
	return n
}

// setupSamples is how many times a run sets the workload up; setup_s is
// the median, so one cold first set-up does not decide it.
const setupSamples = 3

// runEndToEnd measures the end-to-end metrics of one workload from an
// untraced pass and checks its outputs against a reference run.
func runEndToEnd(wl *workload, o options) (*outcome, error) {
	began := time.Now()
	budget := time.Duration(o.seconds) * time.Second

	// Set-up-only passes come first: they are setup_s samples and they also
	// grow the process heap before the measured pass, the last, runs.
	setups := make([]float64, 0, setupSamples)
	bytesPer := make([]float64, 0, setupSamples)
	var p *passResult
	var err error
	for i := 1; i <= setupSamples; i++ {
		var cfg passConfig
		if i == setupSamples {
			cfg = passConfig{Budget: budget, MaxBoundaries: maxBoundaries(wl, budget)}
		}
		if p, err = runPass(wl, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, p.Setup.Seconds())
		bytesPer = append(bytesPer, p.BytesPerSub)
	}

	out := &outcome{Workload: wl.Name, Defs: endToEnd, Attempted: p.Expected, Failed: p.Failed}
	var note string
	if out.Correct, note, err = checkDigest(wl, p); err != nil {
		return nil, err
	}
	out.Notes = []string{note}
	out.Values = metricValues{
		"periods_per_s":        p.periodsPerS(),
		"lateness_p50_ms":      p.latenessP50MS(),
		"lateness_p99_ms":      p.latenessP99MS(),
		"cpu_us_per_period":    p.cpuUSPerPeriod(),
		"allocs_per_period":    p.allocsPerPeriod(),
		"bytes_per_subscriber": median(bytesPer),
		"ontime_share":         1 - p.failedShare(),
		"setup_s":              median(setups),
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("N=%d W=%d K=%d boundaries, %d periods (%d lateness samples), failed_share=%.6f",
			wl.subscribers(), wl.Warm, p.Boundaries, p.Periods, p.Samples, p.failedShare()),
		fmt.Sprintf("%d segments, periods/s: %.0f", len(p.Segments), column(p.Segments, func(s segmentStat) float64 { return s.Rate })),
		fmt.Sprintf("gc cycles=%d pause=%.2f ms, fire gap p99=%.1f µs, goroutines left=%d",
			p.GCCycles, float64(p.GCPause.Microseconds())/1e3, p.FireGapP99US, p.Goroutines))
	if p.Failed != 0 || p.Goroutines > 0 {
		out.Correct = false
	}
	out.Wall = time.Since(began)
	return out, nil
}

// checkDigest re-runs the workload's first measured boundaries under
// ServiceConfig{Shards:1, Workers:1} — in process even for the network
// workload — and compares the order-independent result digests. The two
// are only ever compared within a run, never against a recorded value.
func checkDigest(wl *workload, p *passResult) (ok bool, note string, err error) {
	ref, err := runPass(wl, passConfig{
		Service:       mobiquery.ServiceConfig{Shards: 1, Workers: 1},
		InProcess:     true,
		MaxBoundaries: digestBoundaries,
	})
	if err != nil {
		return false, "", fmt.Errorf("reference run: %w", err)
	}
	note = fmt.Sprintf("digest %016x over the first %d boundaries; reference (Shards=1, Workers=1, in process) %016x",
		p.Digest, digestBoundaries, ref.Digest)
	return p.Digest == ref.Digest && ref.Failed == 0, note, nil
}
