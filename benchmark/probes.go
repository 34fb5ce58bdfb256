package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"mobiquery"
	"mobiquery/internal/core"
	"mobiquery/internal/corridor"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/pyramid"
	"mobiquery/internal/radio"
	"mobiquery/internal/wire"
)

// prober runs the layer probes: direct timed calls into each layer's
// public functions, at the shape of the workload that owns the layer.
// Every probe measures for dur and reports a mean per operation.
type prober struct {
	seed int64
	dur  time.Duration
	v    metricValues
}

// run calls batch, which returns how many operations it performed, until
// dur has elapsed, and returns the mean wall time, process CPU time and
// heap allocations per operation.
func (p *prober) run(batch func() int) (wallNS, cpuNS, allocs float64) {
	// Collect what earlier passes and fixtures left behind first, so their
	// marking does not run beside the probe on the machine's other core.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu := cpuTime()
	start := time.Now()
	ops := 0
	for time.Since(start) < p.dur {
		ops += batch()
	}
	elapsed := time.Since(start)
	cpu = cpuTime() - cpu
	runtime.ReadMemStats(&ms)
	n := float64(ops)
	return float64(elapsed.Nanoseconds()) / n, float64(cpu.Nanoseconds()) / n, float64(ms.Mallocs-mallocs) / n
}

// measure is run for a probe that works on the calling goroutine alone,
// where wall time is CPU time.
func (p *prober) measure(batch func() int) (nsPerOp, allocsPerOp float64) {
	ns, _, allocs := p.run(batch)
	return ns, allocs
}

// cpuRounds is run for a probe whose work spreads over goroutines —
// Advance's workers, handlers, stream readers: process CPU per unit of
// work, as on the end-to-end side of the budget.
func (p *prober) cpuRounds(round func() int) (cpuNS, allocs float64) {
	_, cpu, allocs := p.run(round)
	return cpu, allocs
}

// fieldPositions reproduces the node placement mobiquery.Open derives from
// the seed, so probes run over the field the workloads run over.
func fieldPositions(seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	region := geom.Square(fieldSide)
	pos := make([]geom.Point, fieldNodes)
	for i := range pos {
		pos[i] = region.UniformPoint(rng)
	}
	return pos
}

// nodeSampler is the service's sampling schedule: every node samples once a
// period at a phase hashed from its id.
func nodeSampler(seed int64, period time.Duration) core.Sampler {
	return core.ScheduleSampler(period, func(id int32) time.Duration {
		return time.Duration(mix64(uint64(seed)^(uint64(uint32(id))+0x9E3779B97F4A7C15)) % uint64(period))
	})
}

var probeField = mobiquery.GradientField(10, 0.01, 0.005)

func newProbeEngine(seed int64, sample time.Duration) *core.QueryEngine {
	eng := core.NewQueryEngine(geom.Square(fieldSide), fieldSide/32, probeField, core.EngineConfig{})
	eng.SetSampler(nodeSampler(seed, sample))
	for i, p := range fieldPositions(seed) {
		eng.UpsertNode(radio.NodeID(i), p)
	}
	return eng
}

// points draws n seeded points from [lo,hi]².
func (p *prober) points(salt uint64, n int, lo, hi float64) []geom.Point {
	rng := prng(mix64(uint64(p.seed) ^ salt))
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Pt(uniform(&rng, lo, hi), uniform(&rng, lo, hi))
	}
	return out
}

func (p *prober) probeGeom() {
	grid := geom.NewShardedGrid(geom.Square(fieldSide), fieldSide/32, 0)
	pos := fieldPositions(p.seed)
	for i, pt := range pos {
		grid.Insert(int32(i), pt)
	}
	visit := func(centers []geom.Point, r float64) float64 {
		n := 0
		ns, _ := p.measure(func() int {
			for _, c := range centers {
				grid.VisitWithin(c, r, func(int32, geom.Point) { n++ })
			}
			return len(centers)
		})
		if n == 0 {
			panic("geom probe visited nothing")
		}
		return ns
	}
	p.v["geom.visit_within_ns"] = visit(p.points(1, 1024, 500, 1500), 150)
	p.v["geom.visit_within_wide_ns"] = visit(p.points(2, 64, 900, 1100), 700)

	// Upserts move each node between its own position and its neighbour's,
	// so buckets keep their size while every call rewrites two of them.
	flip := 0
	p.v["geom.insert_ns"], _ = p.measure(func() int {
		flip ^= 1
		for i := range pos {
			grid.Insert(int32(i), pos[(i+flip)%len(pos)])
		}
		return len(pos)
	})
}

// cycleQuery is one temporal query of an engine cycle, with the serve-path
// objects the session layer would have attached to it.
type cycleQuery struct {
	id      uint32
	t0      time.Duration
	start   geom.Point
	vel     geom.Vec
	planner *prefetch.Planner
	cache   *corridor.Cache
	pyr     *pyramid.Pyramid
}

// cycleShape describes the queries of an engine cycle.
type cycleShape struct {
	sample  time.Duration // node sampling period
	queries int
	slots   int // queries are staggered over this many ticks of period/slots
	radius  float64
	spec    core.TemporalSpec
	speed   float64 // m/s, seeded heading; 0 is static
	lo, hi  float64 // start positions are drawn from [lo,hi]²
	mover   bool    // JIT planner + corridor cache, as the session attaches them
	pyramid bool    // shared tile pyramid as the aggregate index
	churn   int     // queries of the due slot deregistered and replaced per round
}

// engineCycle drives core.QueryEngine the way Service.Advance does — pop
// the due batch, evaluate each entry, flush the re-arms — on one goroutine,
// timing the three steps apart.
type engineCycle struct {
	eng   *core.QueryEngine
	shape cycleShape
	qs    []cycleQuery // indexed by id-1
	pyr   *pyramid.Pyramid
	tick  time.Duration
	now   time.Duration
	rb    *core.RearmBatch
	due   []core.DueEntry

	popNS, evalNS, flushNS int64
	entries, warmHits      int64
	registerAllocs         float64 // per query, from the bulk registration at start

	// Churn: the due slot's members, the pick stream, and what the
	// replacements cost in place, among 50000 scattered neighbours.
	rounds                   int
	slotIDs                  [][]uint32
	rng                      prng
	churnRegNS, churnDeregNS int64
	churned                  int64
}

func (p *prober) newCycle(salt uint64, sh cycleShape) (*engineCycle, error) {
	c := &engineCycle{
		eng:   newProbeEngine(p.seed, sh.sample),
		shape: sh,
		qs:    make([]cycleQuery, sh.queries),
		tick:  sh.spec.Period / time.Duration(sh.slots),
	}
	c.rb = c.eng.NewRearmBatch()
	sampler := nodeSampler(p.seed, sh.sample)
	if sh.pyramid {
		pyr, err := pyramid.New(c.eng.Index(), pyramid.Config{Fresh: sh.spec.Fresh, Sample: sampler, Field: probeField})
		if err != nil {
			return nil, err
		}
		c.pyr = pyr
	}
	rng := prng(mix64(uint64(p.seed) ^ salt))
	c.rng = prng(mix64(uint64(p.seed) ^ salt ^ 0xC0FFEE))
	c.slotIDs = make([][]uint32, sh.slots)
	starts := p.points(salt+1, sh.queries, sh.lo, sh.hi)
	for i := range c.qs {
		heading := uniform(&rng, 0, 2*math.Pi)
		c.slotIDs[i%sh.slots] = append(c.slotIDs[i%sh.slots], uint32(i+1))
		c.qs[i] = cycleQuery{
			id:    uint32(i + 1),
			t0:    time.Duration(i%sh.slots) * c.tick,
			start: starts[i],
			vel:   geom.V(sh.speed*math.Cos(heading), sh.speed*math.Sin(heading)),
			pyr:   c.pyr,
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := range c.qs {
		q := &c.qs[i]
		if err := c.eng.RegisterTemporalE(q.id, sh.radius, q.start, sh.spec, q.t0); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms)
	c.registerAllocs = float64(ms.Mallocs-mallocs) / float64(sh.queries)

	for i := range c.qs {
		q := &c.qs[i]
		switch {
		case sh.mover:
			prof := q.profile(sh.spec.Period)
			planner, err := prefetch.NewPlanner(prefetch.Config{
				Strategy: prefetch.Strategy{Kind: prefetch.JIT},
				Radius:   sh.radius, Period: sh.spec.Period, Deadline: sh.spec.Deadline,
				Fresh: sh.spec.Fresh, Sleep: sh.sample, T0: q.t0,
			}, prof)
			if err != nil {
				return nil, err
			}
			cache, err := corridor.NewCache(corridor.Config{
				Lookahead: 3, Model: corridor.ErrorModel{Base: 5},
				Radius: sh.radius, Period: sh.spec.Period, T0: q.t0,
			}, c.eng.Index())
			if err != nil {
				return nil, err
			}
			cache.SetProfile(prof, q.t0)
			q.planner, q.cache = planner, cache
			c.eng.SetQuerySampler(q.id, planner.Sampler(sampler))
			c.eng.SetQueryPlan(q.id, planner)
			c.eng.SetQueryWarmer(q.id, cache)
		case sh.pyramid:
			c.eng.SetQueryAggIndex(q.id, c.pyr)
		}
	}
	return c, nil
}

// profile is the exact prediction the session synthesizes for a linear
// motion source: positions one period apart over eight legs.
func (q *cycleQuery) profile(period time.Duration) mobility.Profile {
	wps := make([]mobility.Waypoint, 0, 9)
	for i := 0; i <= 8; i++ {
		rel := time.Duration(i) * period
		wps = append(wps, mobility.Waypoint{T: q.t0 + rel, P: q.at(q.t0 + rel)})
	}
	return mobility.Profile{Path: mobility.NewTrajectory(wps), TS: q.t0, Generated: q.t0, Version: 1}
}

func (q *cycleQuery) at(t time.Duration) geom.Point {
	return q.start.Add(q.vel.Scale((t - q.t0).Seconds()))
}

// round advances one tick and returns how many periods it evaluated.
func (c *engineCycle) round() int {
	c.now += c.tick
	c.rounds++
	t0 := time.Now()
	c.due = c.eng.PopDue(c.now, c.due[:0])
	t1 := time.Now()
	if c.pyr != nil && len(c.due) > 0 {
		// The epoch build is timed by its own probe, not charged to the
		// first query that happens to trigger it.
		c.pyr.EnsureEpoch(c.now)
		t1 = time.Now()
	}
	// Only EvaluateDueBatch is timed, per call, as the session times it for
	// its evaluate_seconds histogram: the lookups around it (NextDue,
	// UpdateWaypoint — the session holds ids, not handles) are the session's
	// own cost and are priced by its probe.
	var eval int64
	for _, de := range c.due {
		q := &c.qs[de.ID-1]
		_, due, _ := c.eng.NextDue(q.id)
		if q.pyr != nil {
			q.pyr.EnsureEpoch(due)
		}
		c.eng.UpdateWaypoint(q.id, q.at(due))
		e0 := time.Now()
		wr, _ := c.eng.EvaluateDueBatch(q.id, c.now, c.rb)
		eval += int64(time.Since(e0))
		if wr.CorridorHit || wr.PyramidHit {
			c.warmHits++
		}
		if q.planner != nil {
			q.planner.NoteServed(wr.Prefetched)
		}
		if q.cache != nil {
			q.cache.TakeMispredict()
			q.cache.StageThrough(wr.Due)
		}
	}
	t2 := time.Now()
	c.eng.FlushRearms(c.rb)
	t3 := time.Now()
	c.popNS += int64(t1.Sub(t0))
	c.evalNS += eval
	c.flushNS += int64(t3.Sub(t2))
	c.entries += int64(len(c.due))
	if c.shape.churn > 0 && len(c.due) > 0 {
		c.churn()
	}
	return len(c.due)
}

// churn replaces shape.churn members of the slot that was just evaluated,
// as sparse_churn does between boundaries: static queries, no serve path.
func (c *engineCycle) churn() {
	ids := c.slotIDs[c.rounds%c.shape.slots]
	t0 := time.Now()
	for i := 0; i < c.shape.churn; i++ {
		pick := int(c.rng.next() % uint64(len(ids)))
		for ids[pick] == 0 {
			pick = int(c.rng.next() % uint64(len(ids)))
		}
		c.eng.Deregister(ids[pick])
		ids[pick] = 0
	}
	t1 := time.Now()
	for i, id := range ids {
		if id != 0 {
			continue
		}
		q := cycleQuery{
			id:    uint32(len(c.qs) + 1),
			t0:    c.now,
			start: geom.Pt(uniform(&c.rng, c.shape.lo, c.shape.hi), uniform(&c.rng, c.shape.lo, c.shape.hi)),
		}
		if err := c.eng.RegisterTemporalE(q.id, c.shape.radius, q.start, c.shape.spec, q.t0); err != nil {
			panic(err)
		}
		c.qs = append(c.qs, q)
		ids[i] = q.id
		c.churned++
	}
	c.churnDeregNS += int64(t1.Sub(t0))
	c.churnRegNS += int64(time.Since(t1))
}

// cycleCost is what one engine cycle measured, per evaluated period.
type cycleCost struct {
	evalNS, evalAllocs, popNS, flushNS float64
}

// cycle warms c up for warmPeriods periods' worth of rounds — past
// the movers' equation-16 warm-up, the window ring's ramp or the churn's
// scattering — then measures.
func (p *prober) cycle(c *engineCycle, warmPeriods int) (cycleCost, error) {
	for i := 0; i < warmPeriods*c.shape.slots; i++ {
		c.round()
	}
	c.popNS, c.evalNS, c.flushNS, c.entries, c.warmHits = 0, 0, 0, 0, 0
	c.churnRegNS, c.churnDeregNS, c.churned = 0, 0, 0
	_, allocs := p.measure(c.round)
	if c.entries == 0 {
		return cycleCost{}, fmt.Errorf("engine cycle evaluated nothing")
	}
	if (c.shape.mover || c.shape.pyramid) && float64(c.warmHits) < 0.9*float64(c.entries) {
		return cycleCost{}, fmt.Errorf("engine cycle meant for a warm serve path hit it on only %d of %d periods", c.warmHits, c.entries)
	}
	n := float64(c.entries)
	return cycleCost{
		evalNS: float64(c.evalNS) / n, evalAllocs: allocs,
		popNS: float64(c.popNS) / n, flushNS: float64(c.flushNS) / n,
	}, nil
}

var (
	denseSpec = core.TemporalSpec{Period: time.Second, Deadline: 100 * time.Millisecond, Fresh: 500 * time.Millisecond}
	warmSpec  = core.TemporalSpec{Period: time.Second, Deadline: 100 * time.Millisecond, Fresh: time.Second}
)

func (p *prober) probeCore() error {
	// dense_eval's shape: cold radius-150 scans, one shared boundary.
	c, err := p.newCycle(10, cycleShape{sample: time.Second, queries: 1024, slots: 1, radius: 150, spec: denseSpec, speed: 0.5, lo: 500, hi: 1500})
	if err != nil {
		return err
	}
	cost, err := p.cycle(c, 2)
	if err != nil {
		return err
	}
	p.v["core.evaluate_due_ns"], p.v["core.evaluate_due_allocs"] = cost.evalNS, cost.evalAllocs

	// sparse_churn's shape: a deep schedule, one slot in a hundred due, and
	// 25 of its 500 replaced every round. The warm-up is as long as the
	// workload's, because churn scatters a slot's queries over the heap and
	// every cost below is then paid among cache misses, not beside neighbours.
	c, err = p.newCycle(12, cycleShape{sample: time.Second, queries: 50000, slots: 100, radius: 25, spec: denseSpec, lo: 100, hi: 1900, churn: 25})
	if err != nil {
		return err
	}
	p.v["core.register_allocs"] = c.registerAllocs
	if cost, err = p.cycle(c, 10); err != nil {
		return err
	}
	p.v["core.register_ns"] = float64(c.churnRegNS) / float64(c.churned)
	p.v["core.deregister_ns"] = float64(c.churnDeregNS) / float64(c.churned)
	p.v["core.evaluate_due_small_ns"] = cost.evalNS
	p.v["core.pop_due_ns_per_entry"] = cost.popNS
	p.v["core.flush_rearms_ns_per_entry"] = cost.flushNS
	// Idle pop: step the clock by less than the stagger, so nothing is due.
	idle := c.now
	p.v["core.pop_due_idle_ns"], _ = p.measure(func() int {
		for i := 0; i < 1024; i++ {
			c.due = c.eng.PopDue(idle, c.due[:0])
		}
		return 1024
	})
	return nil
}

// probeWarm covers warm_paths' three serve classes and the layers under
// them: the planner, the corridor cache and the tile pyramid.
func (p *prober) probeWarm() error {
	const sleepy = 3 * time.Second
	movers, err := p.newCycle(20, cycleShape{sample: sleepy, queries: 1024, slots: 1, radius: 150, spec: warmSpec, speed: 1, lo: 500, hi: 1500, mover: true})
	if err != nil {
		return err
	}
	cost, err := p.cycle(movers, 20)
	if err != nil {
		return err
	}
	p.v["core.evaluate_due_corridor_ns"] = cost.evalNS

	// Direct calls on the warmed movers' own planner and cache.
	next := movers.now + movers.tick
	p.v["corridor.visit_staged_ns"], _ = p.measure(func() int {
		hit := 0
		for i := range movers.qs {
			q := &movers.qs[i]
			if q.cache.VisitStaged(next, q.at(next), 150, func(int32, geom.Point) {}) {
				hit++
			}
		}
		if hit == 0 {
			panic("corridor probe found nothing staged")
		}
		return len(movers.qs)
	})
	flip := time.Duration(0)
	p.v["prefetch.period_status_ns"], _ = p.measure(func() int {
		flip = movers.tick - flip // alternate two boundaries: each call misses the one-entry memo, as a new period does
		for i := range movers.qs {
			movers.qs[i].planner.PeriodStatus(next + flip)
		}
		return len(movers.qs)
	})
	p.v["prefetch.replan_ns"], p.v["prefetch.replan_allocs"] = p.measure(func() int {
		for i := range movers.qs {
			q := &movers.qs[i]
			q.planner.Replan(q.profile(time.Second), movers.now)
		}
		return len(movers.qs)
	})
	// Top the staged window up one boundary at a time, as the session does
	// after each evaluation. Last of the mover probes: it walks the caches
	// ahead of the cycle's clock.
	at := movers.now
	p.v["corridor.stage_through_ns"], p.v["corridor.stage_through_allocs"] = p.measure(func() int {
		at += movers.tick
		for i := range movers.qs {
			movers.qs[i].cache.StageThrough(at)
		}
		return len(movers.qs)
	})

	wide, err := p.newCycle(21, cycleShape{sample: sleepy, queries: 256, slots: 1, radius: 700, spec: warmSpec, lo: 900, hi: 1100, pyramid: true})
	if err != nil {
		return err
	}
	if cost, err = p.cycle(wide, 2); err != nil {
		return err
	}
	p.v["core.evaluate_due_pyramid_ns"] = cost.evalNS
	p.v["pyramid.serve_window_ns"], _ = p.measure(func() int {
		for i := range wide.qs {
			if _, ok := wide.pyr.ServeWindow(wide.now, wide.qs[i].start, 700, warmSpec.Fresh); !ok {
				panic("pyramid probe declined a serve")
			}
		}
		return len(wide.qs)
	})
	epoch := wide.now
	p.v["pyramid.ensure_epoch_ns"], p.v["pyramid.ensure_epoch_allocs"] = p.measure(func() int {
		epoch += time.Second
		wide.pyr.EnsureEpoch(epoch)
		return 1
	})

	windowSpec := warmSpec
	windowSpec.Window = 4
	window, err := p.newCycle(22, cycleShape{sample: sleepy, queries: 1024, slots: 1, radius: 150, spec: windowSpec, lo: 500, hi: 1500, pyramid: true})
	if err != nil {
		return err
	}
	if cost, err = p.cycle(window, 5); err != nil {
		return err
	}
	p.v["core.evaluate_due_window_ns"] = cost.evalNS
	return nil
}

// probeSession measures the root package at sparse_churn's shape, where
// it is most of a period's cost: what a period costs above the engine
// (collect, merge, deliver, the trace ring and the firehose), the idle
// Advance, and Subscribe/Close with 50000 subscriptions armed.
func (p *prober) probeSession() error {
	wl := genSparseChurn(p.seed)
	sparse, err := mobiquery.Open(context.Background(), wl.Net)
	if err != nil {
		return err
	}
	defer sparse.Close()
	cohorts := make([][]*mobiquery.Subscription, len(wl.Cohorts))
	for s, plans := range wl.Cohorts {
		if s > 0 {
			if err := sparse.Advance(wl.Tick); err != nil {
				return err
			}
		}
		for _, pl := range plans {
			sub, err := sparse.Subscribe(context.Background(), pl.Spec, pl.source())
			if err != nil {
				return err
			}
			cohorts[s] = append(cohorts[s], sub)
		}
	}
	j := len(cohorts) - 1
	var recvNS, subNS, closeNS, periods, pairs int64
	idx, repl := make([]int, wl.Churn), make([]plan, wl.Churn)
	round := func() int {
		j++
		if err := sparse.Advance(wl.Tick); err != nil {
			panic(err)
		}
		due := cohorts[j%len(cohorts)]
		r0 := time.Now()
		for _, s := range due {
			<-s.Results()
		}
		r1 := time.Now()
		wl.churnPicks(j, len(due), idx, repl)
		for _, i := range idx {
			due[i].Close()
		}
		r2 := time.Now()
		for n, i := range idx {
			sub, err := sparse.Subscribe(context.Background(), repl[n].Spec, repl[n].source())
			if err != nil {
				panic(err)
			}
			due[i] = sub
		}
		recvNS += int64(r1.Sub(r0))
		closeNS += int64(r2.Sub(r1))
		subNS += int64(time.Since(r2))
		periods += int64(len(due))
		pairs += int64(len(idx))
		return len(due)
	}
	// As long a warm-up as the workload's: churn scatters a cohort's
	// subscriptions over the heap, and that is the state to measure in.
	for i := 0; i < wl.Warm; i++ {
		round()
	}
	// CPU, not wall: Advance fans evaluation out across workers, and the
	// end-to-end side of the budget is CPU too. Taken off are the probe's
	// own receives, the churn calls, and the engine's share: the time the
	// service itself stamped around PopDue, each EvaluateDueBatch and
	// FlushRearms in these same rounds, so that a machine that speeds up or
	// slows down between two probes cannot leak into the difference.
	recvNS, subNS, closeNS, periods, pairs = 0, 0, 0, 0, 0
	engine0 := engineSeconds(sparse)
	cycleNS, allocs := p.cpuRounds(round)
	engineNS := (engineSeconds(sparse) - engine0) * 1e9
	p.v["session.period_overhead_ns"] = cycleNS - (float64(recvNS+subNS+closeNS)+engineNS)/float64(periods)
	p.v["session.subscribe_us"] = float64(subNS) / 1e3 / float64(pairs)
	p.v["session.close_us"] = float64(closeNS) / 1e3 / float64(pairs)
	// Allocations of the whole cycle per period: the churn's share of them
	// is Churn/500 of a Subscribe's, which the next probe counts alone.
	p.v["session.period_overhead_allocs"] = allocs

	p.v["session.advance_idle_ns"], _ = p.measure(func() int {
		for i := 0; i < 1024; i++ {
			sparse.Advance(0)
		}
		return 1024
	})
	rng := prng(mix64(uint64(p.seed) ^ 31))
	batch := make([]*mobiquery.Subscription, 256)
	_, p.v["session.subscribe_allocs"] = p.measure(func() int { // one Subscribe and its Close
		for i := range batch {
			pl := smallCount(&rng)
			if batch[i], err = sparse.Subscribe(context.Background(), pl.Spec, pl.source()); err != nil {
				panic(err)
			}
		}
		for _, s := range batch {
			s.Close()
		}
		return len(batch)
	})
	return nil
}

// engineSeconds is the wall time the service has spent inside the engine's
// three per-period calls so far, from its own histograms: the pop and
// flush stages (serial) and every evaluation (timed per call, on whichever
// worker ran it).
func engineSeconds(svc *mobiquery.Service) float64 {
	stage, _ := readStages(svc)
	total := stage[0] + stage[2]
	reg := svc.Metrics()
	for _, n := range classNames {
		h := reg.Histogram("mobiquery_evaluate_seconds", `class="`+n+`"`, "", int64(64*time.Second), 1e-9)
		total += float64(h.Sum()) * 1e-9
	}
	return total
}

// sampleResult is a result as stream_fanout's queries produce them, for
// the probes that encode, decode or ship one.
var sampleResult = mobiquery.QueryResult{
	K: 1234, Deadline: 1234 * time.Second, Received: true, OnTime: true, Value: 3,
	Contributors: 3, AreaNodes: 3, Fidelity: 1, Success: true,
	EvaluatedAt: 1234 * time.Second, StaleNodes: 1, MaxStaleness: 437 * time.Millisecond,
}

func (p *prober) probeWire() {
	res := sampleResult
	var sink wire.Result
	p.v["wire.from_result_ns"], _ = p.measure(func() int {
		for i := 0; i < 1024; i++ {
			sink = wire.FromResult(res)
		}
		return 1024
	})
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	frame := wire.Frame{Type: wire.FrameResult, ID: 77, Result: &sink}
	p.v["wire.encode_result_ns"], p.v["wire.encode_result_allocs"] = p.measure(func() int {
		for i := 0; i < 1024; i++ {
			buf.Reset()
			rf := wire.FromResult(res)
			frame.Result = &rf
			enc.Encode(frame)
		}
		return 1024
	})
	p.v["wire.encode_result_bytes"] = float64(buf.Len())

	// Decode the way a client does: one decoder over a long stream.
	line := bytes.Clone(buf.Bytes())
	stream := bytes.Repeat(line, 1024)
	p.v["wire.decode_result_ns"], p.v["wire.decode_result_allocs"] = p.measure(func() int {
		dec := wire.NewDecoder(bytes.NewReader(stream))
		for i := 0; i < 1024; i++ {
			var f wire.Frame
			if err := dec.Decode(&f); err != nil {
				panic(err)
			}
		}
		return 1024
	})

	// Decode a subscribe the way the handler does: a decoder per request,
	// then the conversions to the session types.
	rng := prng(mix64(uint64(p.seed) ^ 40))
	var body bytes.Buffer
	wire.NewEncoder(&body).Encode(smallCount(&rng).request())
	p.v["wire.decode_subscribe_ns"], p.v["wire.decode_subscribe_allocs"] = p.measure(func() int {
		for i := 0; i < 256; i++ {
			var req wire.SubscribeRequest
			if err := wire.NewDecoder(bytes.NewReader(body.Bytes())).Decode(&req); err != nil {
				panic(err)
			}
			if _, err := req.Spec.QuerySpec(); err != nil {
				panic(err)
			}
			if _, err := req.Motion.Source(); err != nil {
				panic(err)
			}
		}
		return 256
	})
}

func (p *prober) probeObs() {
	h := obs.NewHistogram(int64(64*time.Second), 1e-9)
	v := int64(0)
	p.v["obs.histogram_observe_ns"], _ = p.measure(func() int {
		for i := 0; i < 4096; i++ {
			v += 977
			h.Observe(v & 0xFFFFF)
		}
		return 4096
	})
	ring := obs.NewTraceRing(16)
	sink := obs.NewSpanSink(4096)
	span := obs.PeriodSpan{K: 1, ArmedNS: 1, PoppedNS: 2, EvalStartNS: 3, EvalEndNS: 4, FlushNS: 5, DeliveredNS: 6}
	p.v["obs.trace_record_ns"], _ = p.measure(func() int {
		for i := 0; i < 4096; i++ {
			ring.Record(&span)
		}
		return 4096
	})
	p.v["obs.span_publish_ns"], _ = p.measure(func() int {
		for i := 0; i < 4096; i++ {
			sink.Publish(&span)
		}
		return 4096
	})
}
