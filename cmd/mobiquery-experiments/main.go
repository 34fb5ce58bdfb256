// Command mobiquery-experiments reproduces every figure of the paper's
// evaluation section and the warmup-bound validation.
//
// Usage:
//
//	mobiquery-experiments                 # all figures at paper scale
//	mobiquery-experiments -fig 4          # one figure
//	mobiquery-experiments -scale 0.25     # quick quarter-length sessions
//	mobiquery-experiments -runs 2         # fewer topologies per point
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mobiquery/internal/experiment"
)

// ms truncates a duration to whole milliseconds for printing.
func ms(d time.Duration) time.Duration { return d.Truncate(time.Millisecond) }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mobiquery-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mobiquery-experiments", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "which artifact to reproduce: 4, 5, 6, 7, 8, warmup, ablation, scale, churn, prefetch, corridor, pyramid, or all")
		runs    = fs.Int("runs", 0, "topologies per data point (0 = paper's count)")
		scale   = fs.Float64("scale", 1, "session length scale factor (1 = paper durations)")
		seed    = fs.Int64("seed", 1, "base seed")
		users   = fs.Int("users", 0, "scale scenario: concurrent users (0 = default 10k)")
		nodes   = fs.Int("nodes", 0, "scale scenario: field size in sensors (0 = default 100k)")
		shards  = fs.Int("shards", 0, "scale scenario: spatial shards (0 = auto)")
		workers = fs.Int("workers", 0, "scale scenario: dispatch workers (0 = one per core)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiment.Options{Runs: *runs, BaseSeed: *seed, Scale: *scale}

	start := time.Now()
	switch *fig {
	case "4":
		printFig4(opts)
	case "5":
		fmt.Println(experiment.Fig5(opts).Format())
	case "6":
		fmt.Println(experiment.Fig6(opts).Format())
	case "7":
		for _, tbl := range experiment.Fig7(opts) {
			fmt.Println(tbl.Format())
		}
	case "8":
		fmt.Println(experiment.Fig8(opts).Format())
	case "warmup":
		fmt.Println(experiment.WarmupValidation(opts).Format())
	case "ablation":
		fmt.Println(experiment.Ablation(opts).Format())
	case "scale":
		if err := printScale(*seed, *users, *nodes, *shards, *workers); err != nil {
			return err
		}
	case "all":
		printFig4(opts)
		fmt.Println(experiment.Fig5(opts).Format())
		fmt.Println(experiment.Fig6(opts).Format())
		for _, tbl := range experiment.Fig7(opts) {
			fmt.Println(tbl.Format())
		}
		fmt.Println(experiment.Fig8(opts).Format())
		fmt.Println(experiment.WarmupValidation(opts).Format())
		fmt.Println(experiment.Ablation(opts).Format())
	default:
		figure, ok := temporalFigures[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %q", *fig)
		}
		if err := printTemporal(figure(), *seed, *users, *nodes, *shards, *workers); err != nil {
			return err
		}
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Truncate(time.Millisecond))
	return nil
}

func printFig4(opts experiment.Options) {
	for _, tbl := range experiment.Fig4(opts) {
		fmt.Println(tbl.Format())
	}
}

// printScale runs the multi-user scale scenario twice — serial dispatch and
// sharded concurrent dispatch — and reports the speedup. Results (areas,
// aggregates) are identical between the two; only wall time moves.
func printScale(seed int64, users, nodes, shards, workers int) error {
	cfg := experiment.DefaultScale()
	cfg.Seed = seed
	if users != 0 {
		cfg.Users = users
	}
	if nodes != 0 {
		cfg.Nodes = nodes
	}
	cfg.Shards = shards
	cfg.Workers = workers
	if err := cfg.Validate(); err != nil {
		return err
	}

	fmt.Printf("scale scenario: %d users on a %d-node field (%.0f m square, Rq=%.0f m, %d rounds)\n",
		cfg.Users, cfg.Nodes, cfg.RegionSide, cfg.Radius, cfg.Rounds)

	serial := cfg
	serial.Shards, serial.Workers = 1, 1
	sres := experiment.RunScale(serial)
	pres := experiment.RunScale(cfg)

	if sres.Checksum != pres.Checksum {
		return fmt.Errorf("serial and sharded dispatch disagree (checksums %v vs %v) — engine bug", sres.Checksum, pres.Checksum)
	}
	fmt.Printf("  serial dispatch:  %10v  (%.0f evals/s)\n", sres.Elapsed.Truncate(time.Millisecond), float64(sres.Evaluations)/sres.Elapsed.Seconds())
	fmt.Printf("  sharded dispatch: %10v  (%.0f evals/s)\n", pres.Elapsed.Truncate(time.Millisecond), float64(pres.Evaluations)/pres.Elapsed.Seconds())
	fmt.Printf("  speedup: %.2fx   mean in-area sensors: %.1f   mean value: %.3f\n",
		sres.Elapsed.Seconds()/pres.Elapsed.Seconds(), pres.MeanArea, pres.MeanValue)
	fmt.Printf("  sweep latency p50/p99: serial %v/%v, sharded %v/%v\n",
		sres.SweepP50.Truncate(time.Millisecond), sres.SweepP99.Truncate(time.Millisecond),
		pres.SweepP50.Truncate(time.Millisecond), pres.SweepP99.Truncate(time.Millisecond))
	return nil
}

// temporalFigure is one of the churn, prefetch, corridor and pyramid
// scenarios as the command prints it: its configuration (base and users point
// into it, for the flags), its banner, its table, and its headline checks
// with the summary lines they earn.
type temporalFigure struct {
	base   *experiment.Base
	users  *int
	banner func() string
	run    func() (experiment.Result, error)
	// header is the table's heading and rowFormat/row one arm's line; a
	// figure without a table leaves them zero.
	header, rowFormat string
	row               func(o experiment.Outcome) []any
	// check runs the scenario's headline checks on the as-configured result
	// and prints the summary.
	check func(res experiment.Result) error
}

// printTemporal applies the flags to a temporal figure, runs it once as
// configured and once at Shards 1 / Workers 1 — failing when any arm's digest
// moved — and prints its table and headline.
func printTemporal(f temporalFigure, seed int64, users, nodes, shards, workers int) error {
	f.base.Seed = seed
	if users != 0 {
		*f.users = users
	}
	if nodes != 0 {
		f.base.Nodes = nodes
	}
	f.base.Shards, f.base.Workers = shards, workers
	fmt.Println(f.banner())

	res, err := f.run()
	if err != nil {
		return err
	}
	f.base.Shards, f.base.Workers = 1, 1
	ref, err := f.run()
	if err != nil {
		return err
	}
	for i, out := range res.Arms {
		if out.Digest != ref.Arms[i].Digest {
			return fmt.Errorf("%s digest moved across engine sizing (%#x vs %#x) — engine bug", out.Label, out.Digest, ref.Arms[i].Digest)
		}
	}
	if f.row != nil {
		fmt.Println(f.header)
		for _, out := range res.Arms {
			fmt.Printf(f.rowFormat, f.row(out)...)
		}
	}
	return f.check(res)
}

var temporalFigures = map[string]func() temporalFigure{
	"churn":    churnFigure,
	"prefetch": prefetchFigure,
	"corridor": corridorFigure,
	"pyramid":  pyramidFigure,
}

// churnFigure is the dynamic-membership scenario — streaming users with
// freshness windows and deadlines, joining and leaving mid-run — against the
// static population alone: churn must leave the static users' results
// untouched.
func churnFigure() temporalFigure {
	cfg := experiment.DefaultChurn()
	return temporalFigure{
		base: &cfg.Base, users: &cfg.Static,
		banner: func() string {
			return fmt.Sprintf("churn scenario: %d static + %d churning users on a %d-node field (%v session, Tperiod=%v, Tfresh=%v)",
				cfg.Static, cfg.Churners, cfg.Nodes, cfg.Duration, cfg.Period, cfg.Fresh)
		},
		run: func() (experiment.Result, error) { return experiment.RunChurn(cfg) },
		check: func(res experiment.Result) error {
			churn, _ := res.Arm(experiment.ChurnArm)
			alone, _ := res.Arm(experiment.StaticArm)
			if churn.Digest != alone.Digest {
				return fmt.Errorf("churn perturbed the static users (digests %#x vs %#x) — engine bug", churn.Digest, alone.Digest)
			}
			fmt.Printf("  %d evaluations (%d late, %d stale readings excluded) in %v\n",
				churn.Evaluations, churn.Late, churn.StaleExclusions, ms(res.Elapsed))
			fmt.Printf("  %d joins, %d leaves, peak %d live users, %.1f fresh sensors per result\n",
				churn.Joins, churn.Leaves, churn.PeakLive, churn.MeanFresh)
			fmt.Printf("  static users' digest unchanged by churn: %#x\n", churn.Digest)
			return nil
		},
	}
}

// prefetchFigure is the strategy comparison — the same mobile users and
// sleepy sensor field evaluated on demand, with just-in-time prefetching, and
// with greedy prefetching: prefetching must reduce late periods.
func prefetchFigure() temporalFigure {
	cfg := experiment.DefaultPrefetch()
	return temporalFigure{
		base: &cfg.Base, users: &cfg.Users,
		banner: func() string {
			return fmt.Sprintf("prefetch scenario: %d mobile users on a %d-node field (%v session, Tperiod=%v, Tfresh=%v, duty cycle %v, tick %v)",
				cfg.Users, cfg.Nodes, cfg.Duration, cfg.Period, cfg.Fresh, cfg.SamplePeriod, cfg.Tick)
		},
		run: func() (experiment.Result, error) { return experiment.RunPrefetch(cfg) },
		header: fmt.Sprintf("  %-12s %8s %8s %8s %10s %10s %9s %8s  %s",
			"strategy", "periods", "late", "warmup", "stale", "prefetched", "staleness", "storage", "digest"),
		rowFormat: "  %-12v %8d %8d %8d %10d %10d %9v %8d  %#x\n",
		row: func(o experiment.Outcome) []any {
			return []any{o.Strategy, o.Evaluations, o.Late, o.WarmupPeriods, o.StaleExclusions,
				o.PrefetchedReadings, ms(o.MeanStaleness), o.PeakOutstanding, o.Digest}
		},
		check: func(res experiment.Result) error {
			od, _ := res.Arm("on-demand")
			jit, _ := res.Arm("jit")
			greedy, _ := res.Arm("greedy")
			if jit.Late >= od.Late || greedy.Late >= od.Late {
				return fmt.Errorf("prefetching did not reduce late periods (on-demand %d, jit %d, greedy %d) — planner bug",
					od.Late, jit.Late, greedy.Late)
			}
			fmt.Printf("  digests invariant to Shards/Workers; prefetching cut late periods %d -> %d (jit) / %d (greedy) in %v\n",
				od.Late, jit.Late, greedy.Late, ms(res.Elapsed))
			return nil
		},
	}
}

// corridorFigure is the corridor comparison — exact vs noisy motion
// profiles, with and without the spatial corridor cache: the warm path must
// never change results (corridor/exact matches jit/exact bit for bit), and
// the figure reports staged-hit and mispredict rates plus each arm's wall
// time per period of the whole serve, staging included.
func corridorFigure() temporalFigure {
	cfg := experiment.DefaultCorridor()
	return temporalFigure{
		base: &cfg.Base, users: &cfg.Users,
		banner: func() string {
			return fmt.Sprintf("corridor scenario: %d turning users on a %d-node field (%v session, Tperiod=%v, duty cycle %v, GPS %v/%vm, lookahead %d)",
				cfg.Users, cfg.Nodes, cfg.Duration, cfg.Period, cfg.SamplePeriod, experiment.CorridorGPSSampling, cfg.GPSError, cfg.Lookahead)
		},
		run: func() (experiment.Result, error) { return experiment.RunCorridor(cfg) },
		header: fmt.Sprintf("  %-20s %8s %6s %7s %9s %10s %8s %8s %8s %8s %9s  %s",
			"arm", "periods", "late", "warmup", "stale", "prefetched", "hits", "cold", "mispred", "replans", "serve-ns", "digest"),
		rowFormat: "  %-20s %8d %6d %7d %9d %10d %8d %8d %8d %8d %9.0f  %#x\n",
		row: func(o experiment.Outcome) []any {
			return []any{o.Label, o.Evaluations, o.Late, o.WarmupPeriods, o.StaleExclusions,
				o.PrefetchedReadings, o.StagedHits, o.ColdEvaluations, o.Mispredicts,
				o.Replans, o.ServeNs, o.Digest}
		},
		check: func(res experiment.Result) error {
			jitExact, _ := res.Arm("jit/exact")
			jitNoisy, _ := res.Arm("jit/noisy")
			corrExact, _ := res.Arm("jit+corridor/exact")
			corrNoisy, _ := res.Arm("jit+corridor/noisy")
			if corrExact.Digest != jitExact.Digest {
				return fmt.Errorf("corridor changed exact-profile results (%#x vs %#x) — warm path not bit-identical", corrExact.Digest, jitExact.Digest)
			}
			if corrNoisy.StagedHits == 0 || corrExact.StagedHits == 0 {
				return fmt.Errorf("corridor arms served no warm periods — staging bug")
			}
			if corrNoisy.ColdEvaluations >= jitNoisy.ColdEvaluations {
				return fmt.Errorf("corridor did not reduce cold evaluations on the noisy workload (%d vs %d)",
					corrNoisy.ColdEvaluations, jitNoisy.ColdEvaluations)
			}
			fmt.Printf("  digests invariant to Shards/Workers; corridor/exact == jit/exact (warm path bit-identical)\n")
			fmt.Printf("  noisy workload: staged-hit rate %.0f%%, mispredict rate %.1f%%, cold evaluations %d -> %d, in %v\n",
				100*float64(corrNoisy.StagedHits)/float64(corrNoisy.Evaluations), 100*float64(corrNoisy.Mispredicts)/float64(corrNoisy.Evaluations),
				jitNoisy.ColdEvaluations, corrNoisy.ColdEvaluations, ms(res.Elapsed))
			return nil
		},
	}
}

// pyramidFigure is the aggregate-pyramid comparison — flat area scans vs
// hierarchical tile decomposition, single-period and windowed: every pyramid
// arm must reproduce its flat twin bit for bit while serving entirely from
// the pyramid, and the figure reports the node-visit accounting — what an
// epoch ingest costs and what each decomposed serve saves over the flat scan.
func pyramidFigure() temporalFigure {
	cfg := experiment.DefaultPyramid()
	return temporalFigure{
		base: &cfg.Base, users: &cfg.Users,
		banner: func() string {
			return fmt.Sprintf("pyramid scenario: %d users sweeping %vm disks over a %d-node field (%v session, Tperiod=%v, Tfresh=%v, window %d)",
				cfg.Users, cfg.Radius, cfg.Nodes, cfg.Duration, cfg.Period, cfg.Fresh, cfg.Window)
		},
		run: func() (experiment.Result, error) { return experiment.RunPyramid(cfg) },
		header: fmt.Sprintf("  %-16s %8s %6s %8s %8s %9s %8s %10s %10s %11s  %s",
			"arm", "periods", "late", "served", "cold", "stale", "builds", "ingested", "fringe", "area-nodes", "digest"),
		rowFormat: "  %-16s %8d %6d %8d %8d %9d %8d %10d %10d %11d  %#x\n",
		row: func(o experiment.Outcome) []any {
			return []any{o.Label, o.Evaluations, o.Late, o.PyramidServes, o.ColdEvaluations,
				o.StaleExclusions, o.Index.Builds, o.Index.NodesIngested,
				o.Index.FringeNodes, o.Index.ServedAreaNodes, o.Digest}
		},
		check: func(res experiment.Result) error {
			for _, pair := range [][2]string{{"flat", "pyramid"}, {"flat/window", "pyramid/window"}} {
				flat, _ := res.Arm(pair[0])
				pyr, _ := res.Arm(pair[1])
				if pyr.Digest != flat.Digest {
					return fmt.Errorf("%s digest %#x != %s digest %#x — pyramid serves changed observable results", pair[1], pyr.Digest, pair[0], flat.Digest)
				}
				if pyr.ColdEvaluations != 0 || pyr.PyramidServes != pyr.Evaluations {
					return fmt.Errorf("%s served %d/%d from the pyramid (%d cold) — exactness gate declined provable serves",
						pair[1], pyr.PyramidServes, pyr.Evaluations, pyr.ColdEvaluations)
				}
			}
			pyr, _ := res.Arm("pyramid")
			visits := pyr.Index.NodesIngested + pyr.Index.FringeNodes
			if visits == 0 || pyr.Index.ServedAreaNodes == 0 {
				return fmt.Errorf("pyramid ledger empty: %+v", pyr.Index)
			}
			fmt.Printf("  digests invariant to Shards/Workers; pyramid == flat bit for bit on both pairs\n")
			fmt.Printf("  pyramid arm: %d epoch builds, %.2fx node-visit advantage (%d flat-equivalent area nodes vs %d ingested+fringe), in %v\n",
				pyr.Index.Builds, float64(pyr.Index.ServedAreaNodes)/float64(visits),
				pyr.Index.ServedAreaNodes, visits, ms(res.Elapsed))
			return nil
		},
	}
}
