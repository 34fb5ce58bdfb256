package pyramid

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// levels is the number of rollup levels above the cell layer — five
// resolutions in total, each tile 2× coarser than the one below. New clamps
// it so the coarsest tile never exceeds the grid.
const levels = 4

// epochs is the ring depth: how many recent period boundaries keep their
// per-tile aggregates servable. Late evaluations and lookbacks older than
// the ring fall back to the cold scan.
const epochs = 4

// Config parameterizes a Pyramid. Fresh, Sample, and Field fix the
// evaluation semantics an epoch is built under; ServeWindow declines any
// request that does not match them exactly, so a serve can never silently
// answer under different freshness or sampling rules than the cold scan it
// replaces.
type Config struct {
	// Fresh is the freshness window (Tfresh) epochs are built under; zero
	// disables the window, exactly as in core.TemporalSpec.
	Fresh time.Duration
	// Sample is the node sampling schedule, the same function installed as
	// the engine's Sampler. Nil means readings are taken at the boundary
	// itself (the engine's no-sampler semantics).
	Sample func(id int32, at sim.Time) (sim.Time, bool)
	// Field is what the sensors measure.
	Field field.Field
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Fresh < 0:
		return fmt.Errorf("pyramid: freshness window %v must be non-negative", c.Fresh)
	case c.Field == nil:
		return fmt.Errorf("pyramid: config needs a field")
	}
	return nil
}

// cellAgg is one tile's (or cell's) partial aggregate for one epoch: the
// standard decomposable Count/Sum/Min/Max record plus the accounting a cold
// scan keeps (total and stale node counts, oldest contributor age).
// The zero value means "no nodes here"; min/max are meaningful only while
// count > 0, mirroring core.Partial's empty semantics.
type cellAgg struct {
	nodes, stale int32
	count        int32
	sum          float64
	min, max     float64
	maxStale     time.Duration
}

// epoch is the pyramid state frozen at one period boundary: level 0 holds
// one cellAgg per grid cell, each higher level one per 2×-coarser tile.
// rd keeps the reading the ingest derived for each node, by node id, for the
// fringe of a serve to load instead of deriving it again; a node lies in
// exactly one cell row, so the row builders write disjoint entries. Buffers
// are reused across ring rotations; ready is the publication gate (set with
// release semantics after the rollup, checked with acquire before any read).
type epoch struct {
	due      sim.Time
	ready    atomic.Bool
	lv       [][]cellAgg
	rd       []core.Reading
	ingested atomic.Int64
}

// build coordinates one cooperative epoch ingest: concurrent EnsureEpoch
// callers for the same boundary pull cell rows off the shared cursor and
// build them in parallel (the ingest analogue of the grid's row-band
// sharding — writers touch disjoint row stripes, so no locks are needed on
// the hot path); whoever completes the last row runs the rollup and
// publishes the epoch.
type build struct {
	e    *epoch
	rows atomic.Int64
	done atomic.Int64
	fin  chan struct{}
}

// Stats is a snapshot of a pyramid's lifetime counters.
type Stats struct {
	// Builds counts epoch ingests.
	Builds uint64
	// Served counts successful ServeWindow calls; the Miss counters the
	// declines, by reason: no epoch ingested for the boundary, or a
	// freshness window the pyramid was not built under.
	Served        uint64
	MissNoEpoch   uint64
	MissFreshness uint64
	// NodesIngested counts node readings folded during epoch builds and
	// FringeNodes those disk-tested on the fringe during serves — together
	// the pyramid's total node-visit cost. ServedAreaNodes counts the
	// in-area nodes its serves accounted for, i.e. the node visits a cold
	// scan would have spent on the same evaluations.
	NodesIngested   uint64
	FringeNodes     uint64
	ServedAreaNodes uint64
	// CoveredTiles and FringeCells count decomposition output across all
	// serves.
	CoveredTiles uint64
	FringeCells  uint64
}

// Pyramid is a multiresolution aggregate index over a geom.ShardedGrid: a
// ring of recent epochs, each holding per-cell partial aggregates rolled up
// across ~4–6 resolution levels, built once per query-period boundary and
// shared by every query on the same (period, freshness, schedule) class.
// EnsureEpoch ingests a boundary (cooperatively across callers); ServeWindow
// answers whole-disk aggregates from covered coarse tiles plus a disk-tested
// fringe, declining whenever it cannot prove equality with the cold scan.
// All methods are safe for concurrent use.
type Pyramid struct {
	grid     *geom.ShardedGrid
	cg       cellGeom
	maxLevel int
	lw, lh   []int // per-level tile-space dims
	fresh    time.Duration
	sample   func(id int32, at sim.Time) (sim.Time, bool)
	fld      field.Field

	// mu excludes ring rotation (write) from serves and epoch lookups
	// (read); bmu coordinates build starts. Lock order: bmu before mu.
	mu     sync.RWMutex
	ring   []*epoch
	bmu    sync.Mutex
	builds map[sim.Time]*build

	sBuilds                   atomic.Uint64
	sServed, sNoEpoch, sFresh atomic.Uint64
	sIngested, sFringe, sArea atomic.Uint64
	sTiles, sCells            atomic.Uint64
}

// New creates a pyramid over grid. The grid's cell layer is the pyramid's
// level 0; cfg fixes the evaluation semantics (see Config).
func New(grid *geom.ShardedGrid, cfg Config) (*Pyramid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cg := geometryOf(grid)
	p := &Pyramid{
		grid:     grid,
		cg:       cg,
		maxLevel: cg.maxLevels(levels),
		fresh:    cfg.Fresh,
		sample:   cfg.Sample,
		fld:      cfg.Field,
		ring:     make([]*epoch, epochs),
		builds:   make(map[sim.Time]*build),
	}
	for i := range p.ring {
		p.ring[i] = &epoch{}
	}
	p.lw = make([]int, p.maxLevel+1)
	p.lh = make([]int, p.maxLevel+1)
	for lv := 0; lv <= p.maxLevel; lv++ {
		p.lw[lv], p.lh[lv] = cg.levelDims(lv)
	}
	return p, nil
}

// Stats returns a snapshot of the lifetime counters.
func (p *Pyramid) Stats() Stats {
	return Stats{
		Builds:          p.sBuilds.Load(),
		Served:          p.sServed.Load(),
		MissNoEpoch:     p.sNoEpoch.Load(),
		MissFreshness:   p.sFresh.Load(),
		NodesIngested:   p.sIngested.Load(),
		FringeNodes:     p.sFringe.Load(),
		ServedAreaNodes: p.sArea.Load(),
		CoveredTiles:    p.sTiles.Load(),
		FringeCells:     p.sCells.Load(),
	}
}

// findEpoch returns the ready epoch for boundary due, or nil. Caller holds
// p.mu (either mode).
func (p *Pyramid) findEpoch(due sim.Time) *epoch {
	for _, e := range p.ring {
		if e.ready.Load() && e.due == due {
			return e
		}
	}
	return nil
}

// EnsureEpoch ingests the per-tile aggregates for period boundary due,
// making them servable until the ring rotates past them. Calling it for an
// already-ingested boundary is a cheap no-op, so every query of a class can
// call it before evaluating; concurrent callers for the same boundary
// cooperate on the build (each takes rows off a shared cursor) and all
// return once the epoch is published.
func (p *Pyramid) EnsureEpoch(due sim.Time) {
	p.mu.RLock()
	e := p.findEpoch(due)
	p.mu.RUnlock()
	if e != nil {
		return
	}
	p.bmu.Lock()
	p.mu.RLock()
	e = p.findEpoch(due)
	p.mu.RUnlock()
	if e != nil {
		p.bmu.Unlock()
		return
	}
	b, ok := p.builds[due]
	if !ok {
		p.mu.Lock()
		ep := p.rotate(due)
		p.mu.Unlock()
		b = &build{e: ep, fin: make(chan struct{})}
		p.builds[due] = b
	}
	p.bmu.Unlock()
	total := int64(p.cg.rows)
	for {
		row := b.rows.Add(1) - 1
		if row >= total {
			break
		}
		p.buildRow(b.e, int(row))
		if b.done.Add(1) == total {
			p.finishBuild(due, b)
		}
	}
	<-b.fin
}

// rotate recycles a ring slot for boundary due and returns it unpublished.
// Caller holds p.bmu and p.mu (write); the write lock excludes serves, so
// no reader can observe the slot mid-reset.
func (p *Pyramid) rotate(due sim.Time) *epoch {
	victim := -1
	for i, e := range p.ring {
		if p.inFlight(e) {
			continue
		}
		if victim < 0 || e.due < p.ring[victim].due || !e.ready.Load() && p.ring[victim].ready.Load() {
			victim = i
		}
	}
	if victim < 0 {
		// Every slot hosts an in-flight build (ring depth < concurrent
		// boundaries); grow rather than corrupt one.
		p.ring = append(p.ring, &epoch{})
		victim = len(p.ring) - 1
	}
	e := p.ring[victim]
	e.ready.Store(false)
	e.due = due
	e.ingested.Store(0)
	if e.lv == nil {
		e.lv = make([][]cellAgg, p.maxLevel+1)
		for lv := range e.lv {
			e.lv[lv] = make([]cellAgg, p.lw[lv]*p.lh[lv])
		}
	} else {
		for lv := range e.lv {
			clear(e.lv[lv])
		}
	}
	// One entry per node while ids are dense; the fringe derives the reading
	// of an id beyond that. Entries are overwritten by the ingest, not
	// cleared: the grid is fixed, so every node a serve meets was ingested.
	if n := p.grid.Len(); cap(e.rd) < n {
		e.rd = make([]core.Reading, n)
	} else {
		e.rd = e.rd[:n]
	}
	return e
}

// inFlight reports whether e is owned by an unfinished build. Caller holds
// p.bmu.
func (p *Pyramid) inFlight(e *epoch) bool {
	for _, b := range p.builds {
		if b.e == e {
			return true
		}
	}
	return false
}

// buildRow ingests one cell row of an epoch: each cell's bucket is folded
// into the cell's aggregate as the grid streams it — buckets are id-sorted
// (canonical grid order), so the fold order is deterministic with nothing
// to capture or sort — with exactly the cold scan's freshness
// classification.
func (p *Pyramid) buildRow(e *epoch, cy int) {
	var agg cellAgg
	fold := func(id int32, pos geom.Point) {
		agg.nodes++
		r := core.ReadingAt(p.sample, p.fld, id, pos, e.due, p.fresh)
		if uint(id) < uint(len(e.rd)) {
			e.rd[id] = r
		}
		if !r.Fresh(p.fresh) {
			agg.stale++
			return
		}
		agg.count++
		agg.sum += r.V
		if r.V < agg.min {
			agg.min = r.V
		}
		if r.V > agg.max {
			agg.max = r.V
		}
		if r.Age > agg.maxStale {
			agg.maxStale = r.Age
		}
	}
	visited := int64(0)
	for cx := 0; cx < p.cg.cols; cx++ {
		agg = cellAgg{min: math.Inf(1), max: math.Inf(-1)}
		p.grid.VisitCell(cx, cy, fold)
		if agg.nodes == 0 {
			continue
		}
		visited += int64(agg.nodes)
		e.lv[0][cy*p.cg.cols+cx] = agg
	}
	e.ingested.Add(visited)
}

// mergeChild folds one child tile into a parent aggregate, in the same
// guarded style the serve path uses: min/max/staleness only ever come from
// tiles with contributing readings.
func mergeChild(agg *cellAgg, c *cellAgg) {
	if c.nodes == 0 {
		return
	}
	agg.nodes += c.nodes
	agg.stale += c.stale
	if c.count == 0 {
		return
	}
	agg.count += c.count
	agg.sum += c.sum
	if c.min < agg.min {
		agg.min = c.min
	}
	if c.max > agg.max {
		agg.max = c.max
	}
	if c.maxStale > agg.maxStale {
		agg.maxStale = c.maxStale
	}
}

// finishBuild rolls the cell layer up the levels and publishes the epoch.
func (p *Pyramid) finishBuild(due sim.Time, b *build) {
	e := b.e
	for lv := 1; lv <= p.maxLevel; lv++ {
		w, h := p.lw[lv], p.lh[lv]
		cw, ch := p.lw[lv-1], p.lh[lv-1]
		child := e.lv[lv-1]
		for ty := 0; ty < h; ty++ {
			for tx := 0; tx < w; tx++ {
				agg := cellAgg{min: math.Inf(1), max: math.Inf(-1)}
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						cx, cy := 2*tx+dx, 2*ty+dy
						if cx < cw && cy < ch {
							mergeChild(&agg, &child[cy*cw+cx])
						}
					}
				}
				e.lv[lv][ty*w+tx] = agg
			}
		}
	}
	p.sBuilds.Add(1)
	p.sIngested.Add(uint64(e.ingested.Load()))
	e.ready.Store(true)
	p.bmu.Lock()
	delete(p.builds, due)
	p.bmu.Unlock()
	close(b.fin)
}

// ServeWindow answers the freshness-windowed aggregate of the disk
// (center, radius) at period boundary due, implementing core.AggIndex. It
// declines (ok=false) unless it can prove the answer equals the cold scan:
// the boundary's epoch must be in the ring, built under the same freshness
// window. Covered
// tiles contribute their rolled-up partials and fringe cells their
// disk-tested nodes (ascending id within the cell — canonical grid order) as
// the deterministic coarse-to-fine recursion reaches them, so the result is
// identical whatever the shard and worker sizing.
func (p *Pyramid) ServeWindow(due sim.Time, center geom.Point, radius float64, fresh time.Duration) (core.AggServe, bool) {
	if fresh != p.fresh {
		p.sFresh.Add(1)
		return core.AggServe{}, false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	e := p.findEpoch(due)
	if e == nil {
		p.sNoEpoch.Add(1)
		return core.AggServe{}, false
	}
	sv := core.AggServe{Data: core.NewPartial()}
	r2 := radius * radius
	fringeVisited := 0
	covered, fringe := coverDisk(p.cg, p.maxLevel, center, radius,
		func(level, tx, ty int) {
			a := &e.lv[level][ty*p.lw[level]+tx]
			if a.nodes == 0 {
				return
			}
			sv.AreaNodes += int(a.nodes)
			sv.StaleNodes += int(a.stale)
			if a.count == 0 {
				return
			}
			sv.Data.Count += int(a.count)
			sv.Data.Sum += a.sum
			if a.min < sv.Data.Min {
				sv.Data.Min = a.min
			}
			if a.max > sv.Data.Max {
				sv.Data.Max = a.max
			}
			if a.maxStale > sv.MaxStaleness {
				sv.MaxStaleness = a.maxStale
			}
		},
		func(cx, cy int) {
			p.grid.VisitCell(cx, cy, func(id int32, pos geom.Point) {
				fringeVisited++
				if pos.Dist2(center) > r2 {
					return
				}
				sv.AreaNodes++
				var r core.Reading
				if uint(id) < uint(len(e.rd)) {
					r = e.rd[id]
				} else { // an id past the kept range: derived as the ingest derived it
					r = core.ReadingAt(p.sample, p.fld, id, pos, due, p.fresh)
				}
				if !r.Fresh(p.fresh) {
					sv.StaleNodes++
					return
				}
				sv.Data.Add(r.V)
				if r.Age > sv.MaxStaleness {
					sv.MaxStaleness = r.Age
				}
			})
		})
	p.sServed.Add(1)
	p.sTiles.Add(uint64(covered))
	p.sCells.Add(uint64(fringe))
	p.sFringe.Add(uint64(fringeVisited))
	p.sArea.Add(uint64(sv.AreaNodes))
	return sv, true
}
