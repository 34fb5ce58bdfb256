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
	case "churn":
		if err := printChurn(*seed, *users, *nodes, *shards, *workers); err != nil {
			return err
		}
	case "prefetch":
		if err := printPrefetch(*seed, *users, *nodes, *shards, *workers); err != nil {
			return err
		}
	case "corridor":
		if err := printCorridor(*seed, *users, *nodes, *shards, *workers); err != nil {
			return err
		}
	case "pyramid":
		if err := printPyramid(*seed, *users, *nodes, *shards, *workers); err != nil {
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
		return fmt.Errorf("unknown figure %q", *fig)
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

// printChurn runs the dynamic-membership scenario — streaming users with
// freshness windows and deadlines, joining and leaving mid-run — twice:
// once with churners and once with the static population alone, and checks
// that churn left the static users' results untouched.
func printChurn(seed int64, users, nodes, shards, workers int) error {
	cfg := experiment.DefaultChurn()
	cfg.Seed = seed
	if users != 0 {
		cfg.Static = users
	}
	if nodes != 0 {
		cfg.Nodes = nodes
	}
	cfg.Shards = shards
	cfg.Workers = workers

	fmt.Printf("churn scenario: %d static + %d churning users on a %d-node field (%v session, Tperiod=%v, Tfresh=%v)\n",
		cfg.Static, cfg.Churners, cfg.Nodes, cfg.Duration, cfg.Period, cfg.Fresh)

	res, err := experiment.RunChurn(cfg)
	if err != nil {
		return err
	}
	alone := cfg
	alone.Churners = 0
	ref, err := experiment.RunChurn(alone)
	if err != nil {
		return err
	}
	if res.StaticDigest != ref.StaticDigest {
		return fmt.Errorf("churn perturbed the static users (digests %#x vs %#x) — engine bug", res.StaticDigest, ref.StaticDigest)
	}
	fmt.Printf("  %d evaluations (%d late, %d stale readings excluded) in %v\n",
		res.Evaluations, res.Late, res.StaleExclusions, res.Elapsed.Truncate(time.Millisecond))
	fmt.Printf("  %d joins, %d leaves, peak %d live users, %.1f fresh sensors per result\n",
		res.Joins, res.Leaves, res.PeakLive, res.MeanFresh)
	fmt.Printf("  static users' digest unchanged by churn: %#x\n", res.StaticDigest)
	return nil
}

// printPrefetch runs the strategy-comparison scenario — the same mobile
// users and sleepy sensor field evaluated on demand, with just-in-time
// prefetching, and with greedy prefetching — twice (once with swapped
// engine sizing) to verify the digests are invariant, and checks the
// headline property that prefetching reduces late periods.
func printPrefetch(seed int64, users, nodes, shards, workers int) error {
	cfg := experiment.DefaultPrefetch()
	cfg.Seed = seed
	if users != 0 {
		cfg.Users = users
	}
	if nodes != 0 {
		cfg.Nodes = nodes
	}
	cfg.Shards = shards
	cfg.Workers = workers

	fmt.Printf("prefetch scenario: %d mobile users on a %d-node field (%v session, Tperiod=%v, Tfresh=%v, duty cycle %v, tick %v)\n",
		cfg.Users, cfg.Nodes, cfg.Duration, cfg.Period, cfg.Fresh, cfg.SamplePeriod, cfg.Tick)

	res, err := experiment.RunPrefetch(cfg)
	if err != nil {
		return err
	}
	alt := cfg
	alt.Shards, alt.Workers = 1, 1
	ref, err := experiment.RunPrefetch(alt)
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %8s %8s %8s %10s %10s %9s %8s  %s\n",
		"strategy", "periods", "late", "warmup", "stale", "prefetched", "staleness", "storage", "digest")
	for i, out := range res.Outcomes() {
		if out.Digest != ref.Outcomes()[i].Digest {
			return fmt.Errorf("%v digest moved across engine sizing (%#x vs %#x) — engine bug", out.Strategy, out.Digest, ref.Outcomes()[i].Digest)
		}
		fmt.Printf("  %-12v %8d %8d %8d %10d %10d %9v %8d  %#x\n",
			out.Strategy, out.Evaluations, out.Late, out.WarmupPeriods, out.StaleExclusions,
			out.PrefetchedReadings, out.MeanStaleness.Truncate(time.Millisecond), out.PeakOutstanding, out.Digest)
	}
	if res.JIT.Late >= res.OnDemand.Late || res.Greedy.Late >= res.OnDemand.Late {
		return fmt.Errorf("prefetching did not reduce late periods (on-demand %d, jit %d, greedy %d) — planner bug",
			res.OnDemand.Late, res.JIT.Late, res.Greedy.Late)
	}
	fmt.Printf("  digests invariant to Shards/Workers; prefetching cut late periods %d -> %d (jit) / %d (greedy) in %v\n",
		res.OnDemand.Late, res.JIT.Late, res.Greedy.Late, res.Elapsed.Truncate(time.Millisecond))
	return nil
}

// printCorridor runs the corridor-comparison scenario — exact vs noisy
// motion profiles, with and without the spatial corridor cache — twice
// (once with swapped engine sizing) to verify digest invariance, checks
// that the warm path never changes results (corridor/exact matches
// jit/exact bit for bit), and reports staged-hit and mispredict rates plus
// the measured warm-vs-cold evaluation cost.
func printCorridor(seed int64, users, nodes, shards, workers int) error {
	cfg := experiment.DefaultCorridor()
	cfg.Seed = seed
	if users != 0 {
		cfg.Users = users
	}
	if nodes != 0 {
		cfg.Nodes = nodes
	}
	cfg.Shards = shards
	cfg.Workers = workers

	fmt.Printf("corridor scenario: %d turning users on a %d-node field (%v session, Tperiod=%v, duty cycle %v, GPS %v/%vm, lookahead %d)\n",
		cfg.Users, cfg.Nodes, cfg.Duration, cfg.Period, cfg.SamplePeriod, cfg.GPSSampling, cfg.GPSError, cfg.Lookahead)

	res, err := experiment.RunCorridor(cfg)
	if err != nil {
		return err
	}
	alt := cfg
	alt.Shards, alt.Workers = 1, 1
	ref, err := experiment.RunCorridor(alt)
	if err != nil {
		return err
	}
	fmt.Printf("  %-20s %8s %6s %7s %9s %10s %8s %8s %8s %8s %9s %9s  %s\n",
		"arm", "periods", "late", "warmup", "stale", "prefetched", "hits", "cold", "mispred", "replans", "warm-ns", "cold-ns", "digest")
	for i, out := range res.Arms {
		if out.Digest != ref.Arms[i].Digest {
			return fmt.Errorf("%s digest moved across engine sizing (%#x vs %#x) — engine bug", out.Label, out.Digest, ref.Arms[i].Digest)
		}
		fmt.Printf("  %-20s %8d %6d %7d %9d %10d %8d %8d %8d %8d %9.0f %9.0f  %#x\n",
			out.Label, out.Evaluations, out.Late, out.WarmupPeriods, out.StaleExclusions,
			out.PrefetchedReadings, out.StagedHits, out.ColdEvaluations, out.Mispredicts,
			out.Replans, out.WarmEvalNs, out.ColdEvalNs, out.Digest)
	}
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
		100*corrNoisy.StagedHitRate(), 100*float64(corrNoisy.Mispredicts)/float64(corrNoisy.Evaluations),
		jitNoisy.ColdEvaluations, corrNoisy.ColdEvaluations, res.Elapsed.Truncate(time.Millisecond))
	return nil
}

// printPyramid runs the aggregate-pyramid comparison — flat area scans vs
// hierarchical tile decomposition, single-period and windowed — twice (once
// with swapped engine sizing) to verify digest invariance, checks that every
// pyramid arm reproduces its flat twin bit for bit while serving entirely
// from the pyramid, and reports the node-visit accounting: what an epoch
// ingest costs and what each decomposed serve saves over the flat scan.
func printPyramid(seed int64, users, nodes, shards, workers int) error {
	cfg := experiment.DefaultPyramid()
	cfg.Seed = seed
	if users != 0 {
		cfg.Users = users
	}
	if nodes != 0 {
		cfg.Nodes = nodes
	}
	cfg.Shards = shards
	cfg.Workers = workers

	fmt.Printf("pyramid scenario: %d users sweeping %vm disks over a %d-node field (%v session, Tperiod=%v, Tfresh=%v, window %d)\n",
		cfg.Users, cfg.Radius, cfg.Nodes, cfg.Duration, cfg.Period, cfg.Fresh, cfg.Window)

	res, err := experiment.RunPyramid(cfg)
	if err != nil {
		return err
	}
	alt := cfg
	alt.Shards, alt.Workers = 1, 1
	ref, err := experiment.RunPyramid(alt)
	if err != nil {
		return err
	}
	fmt.Printf("  %-16s %8s %6s %8s %8s %9s %8s %10s %10s %11s  %s\n",
		"arm", "periods", "late", "served", "cold", "stale", "builds", "ingested", "fringe", "area-nodes", "digest")
	for i, out := range res.Arms {
		if out.Digest != ref.Arms[i].Digest {
			return fmt.Errorf("%s digest moved across engine sizing (%#x vs %#x) — engine bug", out.Label, out.Digest, ref.Arms[i].Digest)
		}
		fmt.Printf("  %-16s %8d %6d %8d %8d %9d %8d %10d %10d %11d  %#x\n",
			out.Label, out.Evaluations, out.Late, out.PyramidServes, out.ColdEvaluations,
			out.StaleExclusions, out.Index.Builds, out.Index.NodesIngested,
			out.Index.FringeNodes, out.Index.ServedAreaNodes, out.Digest)
	}
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
		pyr.Index.ServedAreaNodes, visits, res.Elapsed.Truncate(time.Millisecond))
	return nil
}
