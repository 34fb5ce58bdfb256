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

	"mobiquery"
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
		fig     = fs.String("fig", "all", "which artifact to reproduce: 4, 5, 6, 7, 8, warmup, ablation, scale, churn, prefetch, pyramid, or all")
		runs    = fs.Int("runs", 0, "topologies per data point (0 = paper's count)")
		scale   = fs.Float64("scale", 1, "session length scale factor (1 = paper durations)")
		seed    = fs.Int64("seed", 1, "base seed")
		users   = fs.Int("users", 0, "scale scenario: concurrent users (0 = default 10k)")
		nodes   = fs.Int("nodes", 0, "scale scenario: field size in sensors (0 = default 100k)")
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
		if err := printScale(*seed, *users, *nodes, *workers); err != nil {
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
		if err := printTemporal(figure(), *seed, *users, *nodes, *workers); err != nil {
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

// printScale runs the multi-user scale figure twice — serial dispatch and
// parallel dispatch, each on its own Service — and reports the
// speedup. Results (areas, aggregates) are identical between the two; only
// wall time moves.
func printScale(seed int64, users, nodes, workers int) error {
	cfg := defaultScale()
	cfg.net.Seed = seed
	if users != 0 {
		cfg.users = users
	}
	if nodes != 0 {
		cfg.net.Nodes = nodes
	}
	cfg.net.Service = mobiquery.ServiceConfig{Workers: workers}

	fmt.Printf("scale scenario: %d users on a %d-node field (%.0f m square, Rq=%.0f m, %d rounds)\n",
		cfg.users, cfg.net.Nodes, cfg.net.RegionSide, cfg.spec.Radius, cfg.rounds())

	serial := cfg
	serial.net.Service = mobiquery.ServiceConfig{Workers: 1}
	sres, err := runScale(serial)
	if err != nil {
		return err
	}
	pres, err := runScale(cfg)
	if err != nil {
		return err
	}
	s, p := sres.arms[0], pres.arms[0]
	if s.digest != p.digest {
		return fmt.Errorf("serial and parallel dispatch disagree (digests %#x vs %#x) — engine bug", s.digest, p.digest)
	}
	fmt.Printf("  serial dispatch:  %10v  (%.0f evals/s)\n", s.advance.Truncate(time.Millisecond), float64(s.periods)/s.advance.Seconds())
	fmt.Printf("  parallel dispatch:%10v  (%.0f evals/s)\n", p.advance.Truncate(time.Millisecond), float64(p.periods)/p.advance.Seconds())
	fmt.Printf("  speedup: %.2fx   mean in-area sensors: %.1f   mean value: %.3f\n",
		s.advance.Seconds()/p.advance.Seconds(), p.meanArea(), p.meanValue())
	fmt.Printf("  sweep latency p50/p99: serial %v/%v, parallel %v/%v\n",
		s.p50.Truncate(time.Millisecond), s.p99.Truncate(time.Millisecond),
		p.p50.Truncate(time.Millisecond), p.p99.Truncate(time.Millisecond))
	return nil
}

// temporalFigure is one of the churn, prefetch and pyramid figures
// as the command prints it: its scenario (the flags write into it), its
// banner, its table, and its headline checks with the summary lines they
// earn.
type temporalFigure struct {
	sc     *scenario
	banner func() string
	run    func() (result, error)
	// header is the table's heading and rowFormat/row one arm's line; a
	// figure without a table leaves them zero.
	header, rowFormat string
	row               func(o outcome) []any
	// check runs the figure's headline checks on the as-configured result
	// and prints the summary.
	check func(res result) error
}

// printTemporal applies the flags to a temporal figure, runs it once as
// configured and once at Workers 1 — failing when any arm's digest
// moved — and prints its table and headline.
func printTemporal(f temporalFigure, seed int64, users, nodes, workers int) error {
	f.sc.net.Seed = seed
	if users != 0 {
		f.sc.users = users
	}
	if nodes != 0 {
		f.sc.net.Nodes = nodes
	}
	f.sc.net.Service = mobiquery.ServiceConfig{Workers: workers}
	fmt.Println(f.banner())

	res, err := f.run()
	if err != nil {
		return err
	}
	f.sc.net.Service = mobiquery.ServiceConfig{Workers: 1}
	ref, err := f.run()
	if err != nil {
		return err
	}
	for i, out := range res.arms {
		if out.digest != ref.arms[i].digest {
			return fmt.Errorf("%s digest moved across worker counts (%#x vs %#x) — engine bug", out.label, out.digest, ref.arms[i].digest)
		}
	}
	if f.row != nil {
		fmt.Println(f.header)
		for _, out := range res.arms {
			fmt.Printf(f.rowFormat, f.row(out)...)
		}
	}
	return f.check(res)
}

var temporalFigures = map[string]func() temporalFigure{
	"churn":    churnFigure,
	"prefetch": prefetchFigure,
	"pyramid":  pyramidFigure,
}

// churnFigure is the dynamic-membership figure — streaming users with
// freshness windows and deadlines, joining and leaving mid-run — against the
// static population alone: churn must leave the static users' results
// untouched.
func churnFigure() temporalFigure {
	sc := defaultChurn()
	return temporalFigure{
		sc: &sc,
		banner: func() string {
			return fmt.Sprintf("churn scenario: %d static + %d churning users on a %d-node field (%v session, Tperiod=%v, Tfresh=%v)",
				sc.users, sc.churners, sc.net.Nodes, sc.duration, sc.spec.Period, sc.spec.Freshness)
		},
		run: func() (result, error) { return runChurn(sc) },
		check: func(res result) error {
			churn, alone := res.arm(churnArm), res.arm(staticArm)
			if churn.digest != alone.digest {
				return fmt.Errorf("churn perturbed the static users (digests %#x vs %#x) — engine bug", churn.digest, alone.digest)
			}
			fmt.Printf("  %d evaluations (%d late, %d stale readings excluded) in %v\n",
				churn.periods, churn.late, churn.stale, ms(res.elapsed))
			fmt.Printf("  %d joins, %d leaves, peak %d live users, %.1f fresh sensors per result\n",
				churn.joins, churn.leaves, churn.peakLive, churn.meanFresh())
			fmt.Printf("  static users' digest unchanged by churn: %#x\n", churn.digest)
			return nil
		},
	}
}

// prefetchFigure is the strategy comparison — the same mobile users and
// sleepy sensor field evaluated on demand, with just-in-time prefetching, and
// with greedy prefetching: prefetching must reduce late periods.
func prefetchFigure() temporalFigure {
	sc := defaultPrefetch()
	return temporalFigure{
		sc: &sc,
		banner: func() string {
			return fmt.Sprintf("prefetch scenario: %d mobile users on a %d-node field (%v session, Tperiod=%v, Tfresh=%v, duty cycle %v, tick %v)",
				sc.users, sc.net.Nodes, sc.duration, sc.spec.Period, sc.spec.Freshness, sc.net.SamplePeriod, sc.tick)
		},
		run: func() (result, error) { return runPrefetch(sc) },
		header: fmt.Sprintf("  %-12s %8s %8s %8s %10s %10s %9s %8s  %s",
			"strategy", "periods", "late", "warmup", "stale", "prefetched", "staleness", "storage", "digest"),
		rowFormat: "  %-12v %8d %8d %8d %10d %10d %9v %8d  %#x\n",
		row: func(o outcome) []any {
			return []any{o.strategy, o.periods, o.late, o.warmup, o.stale,
				o.prefetched, ms(o.meanStaleness()), o.storage, o.digest}
		},
		check: func(res result) error {
			od, jit, greedy := res.arm("on-demand"), res.arm("jit"), res.arm("greedy")
			if jit.late >= od.late || greedy.late >= od.late {
				return fmt.Errorf("prefetching did not reduce late periods (on-demand %d, jit %d, greedy %d) — planner bug",
					od.late, jit.late, greedy.late)
			}
			fmt.Printf("  digests invariant to Workers; prefetching cut late periods %d -> %d (jit) / %d (greedy) in %v\n",
				od.late, jit.late, greedy.late, ms(res.elapsed))
			return nil
		},
	}
}

// pyramidFigure is the aggregate-pyramid figure, single-period and windowed:
// every period must be served from the Service's tile pyramid, and the figure
// reports the node-visit accounting — what an epoch ingest costs and what
// each decomposed serve saves over the flat scan. That a pyramid serve equals
// the flat scan bit for bit is the engine's to prove, and its tests do.
func pyramidFigure() temporalFigure {
	sc := defaultPyramid()
	return temporalFigure{
		sc: &sc,
		banner: func() string {
			return fmt.Sprintf("pyramid scenario: %d users sweeping %vm disks over a %d-node field (%v session, Tperiod=%v, Tfresh=%v, window %d)",
				sc.users, sc.spec.Radius, sc.net.Nodes, sc.duration, sc.spec.Period, sc.spec.Freshness, sc.window)
		},
		run: func() (result, error) { return runPyramid(sc) },
		header: fmt.Sprintf("  %-16s %8s %6s %8s %8s %9s %8s %10s %10s %11s  %s",
			"arm", "periods", "late", "served", "cold", "stale", "builds", "ingested", "fringe", "area-nodes", "digest"),
		rowFormat: "  %-16s %8d %6d %8d %8d %9d %8d %10d %10d %11d  %#x\n",
		row: func(o outcome) []any {
			return []any{o.label, o.periods, o.late, o.pyramid, o.cold, o.stale, o.index.Builds,
				o.index.NodesIngested, o.index.FringeNodes, o.index.ServedAreaNodes, o.digest}
		},
		check: func(res result) error {
			for _, o := range res.arms {
				if o.periods == 0 || o.cold != 0 || o.pyramid != o.periods {
					return fmt.Errorf("%s served %d/%d from the pyramid (%d cold) — exactness gate declined provable serves",
						o.label, o.pyramid, o.periods, o.cold)
				}
			}
			pyr := res.arm("pyramid")
			visits := pyr.index.NodesIngested + pyr.index.FringeNodes
			if visits == 0 || pyr.index.ServedAreaNodes == 0 {
				return fmt.Errorf("pyramid ledger empty: %+v", pyr.index)
			}
			misses := pyr.index.MissNoEpoch + pyr.index.MissFreshness
			fmt.Printf("  digests invariant to Workers; every period of both arms served by the pyramid (%d misses)\n", misses)
			fmt.Printf("  pyramid arm: %d epoch builds, %.2fx node-visit advantage (%d flat-equivalent area nodes vs %d ingested+fringe), in %v\n",
				pyr.index.Builds, float64(pyr.index.ServedAreaNodes)/float64(visits),
				pyr.index.ServedAreaNodes, visits, ms(res.elapsed))
			return nil
		},
	}
}
