package mobiquery

// Benchmark harness: one bench per table and figure of the paper's
// evaluation. Each bench runs a reduced-scale version of the corresponding
// experiment (shorter sessions, fewer replicas) and reports the headline
// quantity via b.ReportMetric, so `go test -bench=.` regenerates the shape
// of every artifact quickly. The full-scale reproduction (paper durations,
// paper replica counts) is produced by cmd/mobiquery-experiments and
// recorded in EXPERIMENTS.md.

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mobiquery/internal/analysis"
	"mobiquery/internal/core"
	"mobiquery/internal/experiment"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
)

// geomPt and geomV keep the bench bodies concise.
func geomPt(x, y float64) geom.Point { return geom.Pt(x, y) }
func geomV(dx, dy float64) geom.Vec  { return geom.V(dx, dy) }

// benchOpts trims experiment scale so the full bench suite completes in a
// couple of minutes.
func benchOpts() experiment.Options {
	return experiment.Options{Runs: 1, BaseSeed: 1, Scale: 0.2}
}

// BenchmarkFig4SuccessRatio regenerates Figure 4: success ratio of MQ-JIT,
// MQ-GP and NP across sleep periods and user speeds. Reported metrics give
// the walking-user row at 15 s sleep.
func BenchmarkFig4SuccessRatio(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := experiment.Fig4(benchOpts())
		if len(tables) != 3 {
			b.Fatal("figure 4 shape broken")
		}
		last := tables[0].Rows[len(tables[0].Rows)-1]
		b.ReportMetric(last.Cells[0].Value, "JIT-success")
		b.ReportMetric(last.Cells[1].Value, "GP-success")
		b.ReportMetric(last.Cells[2].Value, "NP-success")
	}
}

// BenchmarkFig5DynamicBehavior regenerates Figure 5: per-period fidelity of
// MQ-JIT vs MQ-GP at 15 s sleep. Reports mean fidelity of both series.
func BenchmarkFig5DynamicBehavior(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := experiment.Fig5(benchOpts())
		var gp, jit float64
		for _, r := range tbl.Rows {
			gp += r.Cells[0].Value
			jit += r.Cells[1].Value
		}
		n := float64(len(tbl.Rows))
		b.ReportMetric(gp/n, "GP-fidelity")
		b.ReportMetric(jit/n, "JIT-fidelity")
	}
}

// BenchmarkFig6AdvanceTime regenerates Figure 6: success ratio vs motion
// profile advance time. Reports the Ta=-6s and Ta=18s endpoints at 9 s
// sleep.
func BenchmarkFig6AdvanceTime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := experiment.Fig6(benchOpts())
		b.ReportMetric(tbl.Rows[0].Cells[1].Value, "Ta=-6s-success")
		b.ReportMetric(tbl.Rows[len(tbl.Rows)-1].Cells[1].Value, "Ta=18s-success")
	}
}

// BenchmarkFig7MotionChanges regenerates Figure 7: success ratio vs motion
// change interval, including GPS location error settings. Reports the
// toughest cell (42 s interval, 10 m error) and the easiest (210 s, Ta=6s).
func BenchmarkFig7MotionChanges(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbls := experiment.Fig7(benchOpts())
		strict, target := tbls[0], tbls[1]
		b.ReportMetric(strict.Rows[0].Cells[4].Value, "42s-err10m-success")
		b.ReportMetric(target.Rows[0].Cells[4].Value, "42s-err10m-target-success")
		b.ReportMetric(strict.Rows[len(strict.Rows)-1].Cells[0].Value, "210s-Ta6-success")
	}
}

// BenchmarkFig8PowerConsumption regenerates Figure 8: average power per
// sleeping node for bare CCP and MobiQuery. Reports the 15 s sleep row.
func BenchmarkFig8PowerConsumption(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := experiment.Fig8(benchOpts())
		last := tbl.Rows[len(tbl.Rows)-1]
		b.ReportMetric(last.Cells[0].Value, "CCP-watts")
		b.ReportMetric(last.Cells[1].Value, "JIT-watts")
	}
}

// BenchmarkTableStorageCost regenerates the Section 5.2 storage example:
// PLjit=4 vs PLgp=58 (14.5x) for the paper's walking-user parameters, both
// analytically and from simulation (at evaluation settings).
func BenchmarkTableStorageCost(b *testing.B) {
	b.ReportAllocs()
	q := analysis.QueryParams{Period: 10 * time.Second, Fresh: 5 * time.Second, Sleep: 15 * time.Second}
	vprfh := analysis.PrefetchSpeed(100, 5, 60, 5000)
	for i := 0; i < b.N; i++ {
		plJIT := analysis.StorageJIT(q)
		plGP := analysis.StorageGreedy(q, 600*time.Second, 4, vprfh)
		b.ReportMetric(float64(plJIT), "PL-jit")
		b.ReportMetric(float64(plGP), "PL-gp")

		// Simulation cross-check at evaluation settings (sleep 9 s).
		sc := experiment.Default().WithDuration(80 * time.Second)
		sc.SleepPeriod = 9 * time.Second
		res := experiment.Run(sc)
		b.ReportMetric(float64(res.MaxPrefetchLength), "PL-jit-simulated")
	}
}

// BenchmarkTableContention regenerates the Section 5.4 contention example:
// about 4 interfering trees under JIT vs 35 under greedy for a walking
// user, and v* ~ 131 mph.
func BenchmarkTableContention(b *testing.B) {
	b.ReportAllocs()
	c := analysis.ContentionParams{
		QueryParams: analysis.QueryParams{Period: 5 * time.Second, Fresh: 3 * time.Second, Sleep: 9 * time.Second},
		QueryRadius: 150,
		CommRange:   50,
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(c.InterferenceJIT(4)), "M-jit")
		b.ReportMetric(float64(c.InterferenceGreedy(4, 210)), "M-gp")
		b.ReportMetric(analysis.MetersPerSecondToMPH(c.CriticalSpeed()), "vstar-mph")
	}
}

// BenchmarkTablePrefetchSpeed regenerates the Section 5.2 vprfh estimate
// (~469 mph for MICA2-class hardware).
func BenchmarkTablePrefetchSpeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := analysis.PrefetchSpeed(100, 5, 60, 5000)
		b.ReportMetric(analysis.MetersPerSecondToMPH(v), "vprfh-mph")
	}
}

// BenchmarkTableWarmup validates the equation (16) warmup bound against
// simulation (the Section 5.3 result Tw ~ Tsleep + 2*Tfresh - Ta).
func BenchmarkTableWarmup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := experiment.WarmupValidation(experiment.Options{Runs: 1, BaseSeed: 1, Scale: 0.4})
		for _, row := range tbl.Rows {
			if row.Label == "0" {
				b.ReportMetric(row.Cells[0].Value, "measured-periods")
				b.ReportMetric(row.Cells[1].Value, "bound-periods")
			}
		}
	}
}

// BenchmarkSingleRunJIT measures the cost of one paper-default simulation
// (200 nodes, 400 s): the engine's raw throughput.
func BenchmarkSingleRunJIT(b *testing.B) {
	b.ReportAllocs()
	sc := experiment.Default().WithDuration(120 * time.Second)
	sc.SleepPeriod = 9 * time.Second
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		res := experiment.Run(sc)
		b.ReportMetric(res.SuccessRatio, "success")
		b.ReportMetric(float64(res.EventsFired), "events")
	}
}

// BenchmarkAblationNoPrefetchHold quantifies the JIT hold's contribution:
// JIT versus greedy at identical settings (the DESIGN.md ablation).
func BenchmarkAblationNoPrefetchHold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jit := experiment.Default().WithDuration(120 * time.Second)
		jit.SleepPeriod = 15 * time.Second
		gp := jit
		gp.Scheme = core.SchemeGP
		rj := experiment.Run(jit)
		rg := experiment.Run(gp)
		b.ReportMetric(rj.SuccessRatio, "JIT-success")
		b.ReportMetric(rg.SuccessRatio, "GP-success")
		b.ReportMetric(float64(rj.MediumStats.Collisions), "JIT-collisions")
		b.ReportMetric(float64(rg.MediumStats.Collisions), "GP-collisions")
	}
}

// BenchmarkAblationMechanisms runs the DESIGN.md ablation study at reduced
// scale: the full system against variants with the flood jitter or the
// forward lead removed, plus the GP/NP references.
func BenchmarkAblationMechanisms(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := experiment.Ablation(experiment.Options{Runs: 1, BaseSeed: 1, Scale: 0.3})
		for _, row := range tbl.Rows {
			switch row.Label {
			case "full system (MQ-JIT)":
				b.ReportMetric(row.Cells[0].Value, "full-success")
			case "no flood jitter":
				b.ReportMetric(row.Cells[0].Value, "nojitter-success")
			case "no forward lead":
				b.ReportMetric(row.Cells[0].Value, "nolead-success")
			}
		}
	}
}

// benchEngine builds a populated query engine for the dispatch benchmarks:
// users queries of the paper's 150 m radius over a 20k-node field, each with
// a one-second period whose k-th boundary is at k-1 seconds.
func benchEngine(users int, cfg core.EngineConfig) *core.QueryEngine {
	rng := rand.New(rand.NewSource(1))
	region := geom.Square(5000)
	e := core.NewQueryEngine(region, 150, field.Gradient{Base: 20, Slope: geom.V(0.001, 0.002)}, cfg)
	for i := 0; i < 20_000; i++ {
		e.UpsertNode(radio.NodeID(i), region.UniformPoint(rng))
	}
	for u := 1; u <= users; u++ {
		if err := e.RegisterTemporalE(uint32(u), 150, region.UniformPoint(rng), core.TemporalSpec{Period: time.Second}, -time.Second); err != nil {
			panic(err)
		}
	}
	return e
}

// BenchmarkMultiUserDispatch measures one boundary of 2000 users'
// queries through the concurrent engine's worker pool, as a clock
// driver runs it: PopDue, one evaluation per popped query into its worker's
// re-arm batch, FlushRearms.
func BenchmarkMultiUserDispatch(b *testing.B) {
	b.ReportAllocs()
	e := benchEngine(2000, core.EngineConfig{})
	rearms := make([]*core.RearmBatch, e.Workers())
	for w := range rearms {
		rearms[w] = e.NewRearmBatch()
	}
	var due []core.DueEntry
	var evaluated atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * time.Second
		due = e.PopDue(now, due[:0])
		evaluated.Store(0)
		e.DispatchWorkers(len(due), func(w, j int) {
			if _, ok := due[j].Query.EvaluateDue(now, rearms[w]); ok {
				evaluated.Add(1)
			}
		})
		for _, rb := range rearms {
			e.FlushRearms(rb)
		}
		if evaluated.Load() != 2000 {
			b.Fatal("evaluation dropped users")
		}
	}
}

// BenchmarkSessionStream measures the session API end to end: a service
// over a 20k-node field streaming 200 subscribers for 30 virtual seconds
// of 1 s periods with freshness windows. Reports periods per second of
// wall time.
func BenchmarkSessionStream(b *testing.B) {
	b.ReportAllocs()
	nc := NetworkConfig{Seed: 1, Nodes: 20_000, RegionSide: 5000, SamplePeriod: time.Second}
	spec := QuerySpec{Radius: 150, Period: time.Second, Freshness: time.Second}
	for i := 0; i < b.N; i++ {
		svc, err := Open(context.Background(), nc)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		region := geom.Square(nc.RegionSide)
		subs := make([]*Subscription, 200)
		for j := range subs {
			p := region.UniformPoint(rng)
			subs[j], err = svc.Subscribe(context.Background(), spec, LinearMotion(p, 2, 1))
			if err != nil {
				b.Fatal(err)
			}
		}
		start := time.Now()
		for tick := 0; tick < 30; tick++ {
			if err := svc.Advance(time.Second); err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		delivered := 0
		for _, sub := range subs {
			st := sub.Stats()
			delivered += st.Delivered + st.Dropped
		}
		if delivered != 200*30 {
			b.Fatalf("streamed %d periods, want %d", delivered, 200*30)
		}
		b.ReportMetric(float64(delivered)/elapsed.Seconds(), "periods/s")
		svc.Close()
	}
}

// benchAdvanceService opens a service and loads it with subscribers, all
// sharing one period. The field density matches the paper-scale workload
// (~90 nodes per query area), so the dense benchmark measures realistic
// per-period evaluation while the idle benchmark isolates scheduling.
func benchAdvanceService(b *testing.B, subscribers int, period time.Duration, cfg ServiceConfig) *Service {
	b.Helper()
	nc := NetworkConfig{
		Seed: 1, Nodes: 5000, RegionSide: 2000,
		SamplePeriod: time.Second, Service: cfg,
	}
	svc, err := Open(context.Background(), nc)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	rng := rand.New(rand.NewSource(2))
	region := geom.Square(nc.RegionSide)
	spec := QuerySpec{Radius: 150, Period: period}
	for i := 0; i < subscribers; i++ {
		p := region.UniformPoint(rng)
		if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(p)); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

// BenchmarkAdvanceIdle measures an Advance tick on which no period is due:
// 5k subscribers with hour-long periods, stepped 1 µs at a time. With the
// due-period scheduler this must be O(1) — independent of the subscriber
// count — where the pre-scheduler Advance scanned and sorted all 5k ids
// every tick.
func BenchmarkAdvanceIdle(b *testing.B) {
	b.ReportAllocs()
	svc := benchAdvanceService(b, 5000, time.Hour, ServiceConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Advance(time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvanceDense is the opposite extreme: every subscriber's period
// comes due on every tick, so the whole population is evaluated per
// Advance, fanned across the worker pool.
//
// It is also the allocation gate of the period path (`make
// bench-advance-dense`): a steady-state step may allocate what the worker
// fan-out costs — a few objects per worker — and nothing per subscriber
// (one allocation per evaluated period reads as ~1 000 allocs/op here).
// 1000 radius-150 queries over 5000 nodes arm PopDue's reading column, so
// its build and its fan-out are inside the budget too.
func BenchmarkAdvanceDense(b *testing.B) {
	b.ReportAllocs()
	svc := benchAdvanceService(b, 1000, time.Second, ServiceConfig{})
	// Two untimed steps grow every scratch buffer to the batch's size.
	for i := 0; i < 2; i++ {
		if err := svc.Advance(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Advance(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	budget := 16 + 4*runtime.GOMAXPROCS(0)
	if allocs := (after.Mallocs - before.Mallocs) / uint64(b.N); allocs > uint64(budget) {
		b.Fatalf("a dense Advance step over 1000 subscribers allocates %d times, budget %d (16 + 4 per worker): the period path allocates per subscriber again, or PopDue's reading-column build allocates per boundary", allocs, budget)
	}
}

// BenchmarkAdvanceDenseSerial is BenchmarkAdvanceDense pinned to one
// worker: the serial-pump baseline the parallel dispatch is measured
// against.
func BenchmarkAdvanceDenseSerial(b *testing.B) {
	b.ReportAllocs()
	svc := benchAdvanceService(b, 1000, time.Second, ServiceConfig{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Advance(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPrefetchService opens a sleepy-field service (3 s duty cycle) and
// loads it with moving subscribers under the given prefetch strategy, all
// sharing one period — the planner-path analogue of benchAdvanceService.
func benchPrefetchService(b *testing.B, subscribers int, period time.Duration, strat Strategy) *Service {
	b.Helper()
	nc := NetworkConfig{
		Seed: 1, Nodes: 5000, RegionSide: 2000,
		SamplePeriod: 3 * time.Second,
	}
	svc, err := Open(context.Background(), nc)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	rng := rand.New(rand.NewSource(2))
	region := geom.Square(nc.RegionSide)
	spec := QuerySpec{Radius: 150, Period: period, Freshness: time.Second, Strategy: strat}
	for i := 0; i < subscribers; i++ {
		p := region.UniformPoint(rng)
		if _, err := svc.Subscribe(context.Background(), spec, LinearMotion(p, 2, 1)); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

// BenchmarkAdvancePrefetch measures the planner's cost on the Advance hot
// path for each strategy, in both regimes: dense (every subscriber's period
// due per tick, so each evaluation runs the per-query sampler and plan
// lookups) and idle (nothing due, pinning that planners add nothing to the
// O(1) scheduling path).
func BenchmarkAdvancePrefetch(b *testing.B) {
	strategies := []struct {
		name  string
		strat Strategy
	}{
		{"OnDemand", OnDemandStrategy()},
		{"JIT", JITStrategy()},
		{"Greedy", GreedyStrategy(0)},
	}
	for _, s := range strategies {
		b.Run(s.name+"Dense", func(b *testing.B) {
			b.ReportAllocs()
			svc := benchPrefetchService(b, 500, time.Second, s.strat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Advance(time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.name+"Idle", func(b *testing.B) {
			b.ReportAllocs()
			svc := benchPrefetchService(b, 2000, time.Hour, s.strat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Advance(time.Microsecond); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPyramidService opens a dense service and loads it with large-radius
// static subscribers sharing one period, so every boundary ingests one
// pyramid epoch and serves the whole population from it. Radius 900 over a
// 2000 m region keeps each disk clear of the unbounded edge cells while
// covering ~64 % of the field — the regime where tile decomposition pays.
func benchPyramidService(b *testing.B, subscribers int, period time.Duration) *Service {
	b.Helper()
	nc := NetworkConfig{
		Seed: 1, Nodes: 5000, RegionSide: 2000,
		SamplePeriod: time.Second,
	}
	svc, err := Open(context.Background(), nc)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	rng := rand.New(rand.NewSource(2))
	spec := QuerySpec{Radius: 900, Period: period}
	for i := 0; i < subscribers; i++ {
		p := geomPt(980+40*rng.Float64(), 980+40*rng.Float64())
		if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(p)); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

// BenchmarkAdvancePyramid measures the aggregate tile pyramid on the
// Advance hot path. Dense makes every subscriber's period due each tick, so
// one epoch ingest (O(nodes)) is amortized over the population and each
// serve touches only covered-tile partials plus the boundary fringe —
// O(perimeter + log area) instead of the cold scan's O(area). The reported
// visit-advantage metric is ServedAreaNodes / (NodesIngested + FringeNodes),
// the factor by which pyramid serves beat the node visits a flat scan would
// have spent on the same evaluations. Idle pins that attached pyramids add
// nothing — and allocate nothing — on ticks where no period is due.
func BenchmarkAdvancePyramid(b *testing.B) {
	b.Run("Dense", func(b *testing.B) {
		b.ReportAllocs()
		svc := benchPyramidService(b, 300, time.Second)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := svc.Advance(time.Second); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ps, _ := svc.PyramidStats()
		if ps.Served == 0 {
			b.Fatal("no pyramid serves: the aggregate index never attached")
		}
		if miss := ps.MissNoEpoch + ps.MissFreshness; miss != 0 {
			b.Fatalf("%d pyramid misses on a static dense workload", miss)
		}
		visits := ps.NodesIngested + ps.FringeNodes
		b.ReportMetric(float64(ps.ServedAreaNodes)/float64(visits), "visit-advantage")
		b.ReportMetric(float64(ps.Served)/float64(b.N), "serves/op")
	})
	b.Run("Idle", func(b *testing.B) {
		b.ReportAllocs()
		svc := benchPyramidService(b, 2000, time.Hour)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := svc.Advance(time.Microsecond); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchAdvance1MService opens a service carrying `subscribers` static
// subscriptions for the million-subscriber Advance benchmarks. Radius 25
// keeps each query disk to a handful of nodes (the cost under measurement
// is the scheduler and delivery machinery, not spatial evaluation) and
// below the pyramid attach threshold; result buffers of 1 keep the
// million result channels from dominating memory.
func benchAdvance1MService(b *testing.B, subscribers int, period time.Duration, cfg ServiceConfig) *Service {
	b.Helper()
	nc := NetworkConfig{
		Seed: 1, Nodes: 5000, RegionSide: 2000,
		SamplePeriod: time.Second, Service: cfg,
	}
	svc, err := Open(context.Background(), nc, WithResultBuffer(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	rng := rand.New(rand.NewSource(2))
	region := geom.Square(nc.RegionSide)
	spec := QuerySpec{Radius: 25, Period: period}
	for i := 0; i < subscribers; i++ {
		p := region.UniformPoint(rng)
		if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(p)); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

// BenchmarkAdvance1M is the ROADMAP item-1 target at full scale: one
// million live subscribers on one service.
//
// Idle steps the clock 1 µs at a time with every period an hour out —
// the scheduler's idle check, one atomic load of the schedule's published
// head, must keep the tick O(1) and allocation-free, and the benchmark
// hard-fails (not just reports) if the timed loop allocates at all, so
// `-benchtime=1x` in CI gates the invariant rather than asserting it
// locally.
//
// Dense makes all million periods due every op, on one shared due: PopDue
// taking that due's million-entry bucket and sorting it by id, the
// parallel fan-out in which each worker evaluates and delivers its
// subscriptions' periods, and the per-worker batched re-arm flush into one
// new bucket, all at full width. DenseSerial is the same workload pinned
// to one worker — the scaling denominator, so Dense/DenseSerial measures
// what Workers>1 buys end to end (on a single-core host the two tie).
func BenchmarkAdvance1M(b *testing.B) {
	const subscribers = 1_000_000
	b.Run("Idle", func(b *testing.B) {
		b.ReportAllocs()
		svc := benchAdvance1MService(b, subscribers, time.Hour, ServiceConfig{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := svc.Advance(time.Microsecond); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		// The 0-alloc invariant is enforced here, where it cannot drift: a
		// reported allocs/op of 0 can round away a rare allocation.
		if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
			b.Fatalf("idle Advance at 1M subscribers allocated %d times over %d ops; the 0-alloc idle invariant is broken", allocs, b.N)
		}
	})
	dense := func(cfg ServiceConfig) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			svc := benchAdvance1MService(b, subscribers, time.Second, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Advance(time.Second); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := svc.Stats()
			if got, want := st.Delivered+st.Dropped, uint64(b.N)*subscribers; got != want {
				b.Fatalf("evaluated %d periods, want %d — the schedule lost subscribers", got, want)
			}
		}
	}
	b.Run("Dense", dense(ServiceConfig{}))
	b.Run("DenseSerial", dense(ServiceConfig{Workers: 1}))
}

// BenchmarkExtensionTwoUsers measures two concurrent mobile users sharing
// the network — the multi-user load the Section 5 contention analysis
// anticipates. Reports each user's success ratio.
func BenchmarkExtensionTwoUsers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := experiment.Default().WithDuration(120 * time.Second)
		sc.SleepPeriod = 9 * time.Second
		rs := experiment.RunMulti(sc, []experiment.UserSpec{
			{QueryID: 1, Scheme: core.SchemeJIT, Start: geomPt(50, 100), Velocity: geomV(4, 0)},
			{QueryID: 2, Scheme: core.SchemeJIT, Start: geomPt(400, 350), Velocity: geomV(-4, 0)},
		})
		b.ReportMetric(rs[0].SuccessRatio, "user1-success")
		b.ReportMetric(rs[1].SuccessRatio, "user2-success")
	}
}
