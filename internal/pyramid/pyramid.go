package pyramid

import (
	"fmt"
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

// epoch is the pyramid state frozen at one period boundary: level 0 holds
// one core.Area per grid cell, each higher level one per 2×-coarser tile;
// the zero Area is a tile with no nodes. rd keeps the reading the ingest
// derived for each node, by node id, for the fringe of a serve to load
// instead of deriving it again. Buffers are reused from one boundary to the
// next; ready is false until the first ingest.
type epoch struct {
	due   sim.Time
	ready bool
	lv    [][]core.Area
	rd    []core.Reading
}

// Stats is a snapshot of a pyramid's lifetime counters.
type Stats struct {
	// Builds counts epoch ingests.
	Builds uint64
	// Served counts successful ServeWindow calls; the Miss counters the
	// declines, by reason: the boundary is not the one the pyramid holds, or
	// a freshness window the pyramid was not built under. In the service a
	// no-epoch miss is a catch-up boundary — the second or later period one
	// subscription serves in one Advance step — which folds cold.
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

// Pyramid is a multiresolution aggregate index over a geom.ShardedGrid: the
// per-cell partial aggregates of one period boundary, rolled up across ~4–6
// resolution levels, built once per boundary and shared by every query on
// the same (period, freshness, schedule) class. EnsureEpoch ingests a
// boundary, replacing the one held before; ServeWindow answers whole-disk
// aggregates from covered coarse tiles plus a disk-tested fringe, declining
// whenever it cannot prove equality with the cold scan.
//
// EnsureEpoch is the one writer: it must not run concurrently with itself
// or with ServeWindow. Any number of ServeWindow and Stats calls may run
// together.
type Pyramid struct {
	grid     *geom.ShardedGrid
	cg       cellGeom
	maxLevel int
	lw, lh   []int // per-level tile-space dims
	fresh    time.Duration
	sample   func(id int32, at sim.Time) (sim.Time, bool)
	fld      field.Field

	// e is the latest ingested boundary, kept behind a pointer. Embedded by
	// value, its slice headers would share cache lines with the counters
	// below, which every serve writes; measured that way, warm_paths ran
	// slower, likely from false sharing.
	e *epoch

	// The lifetime counters are atomic: concurrent serves write them, and
	// Stats may read them at any time.
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
		e:        &epoch{},
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

// EnsureEpoch ingests the per-tile aggregates for period boundary due,
// making them servable until the next boundary is ingested. Calling it for
// the boundary already held is a no-op. It is the pyramid's one writer: no
// other EnsureEpoch or ServeWindow call may run while it does.
func (p *Pyramid) EnsureEpoch(due sim.Time) {
	e := p.e
	if e.ready && e.due == due {
		return
	}
	e.ready = false
	e.due = due
	if e.lv == nil {
		e.lv = make([][]core.Area, p.maxLevel+1)
		for lv := range e.lv {
			e.lv[lv] = make([]core.Area, p.lw[lv]*p.lh[lv])
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
	var ingested int
	for cy := 0; cy < p.cg.rows; cy++ {
		ingested += p.buildRow(e, cy)
	}
	p.rollup(e)
	p.sBuilds.Add(1)
	p.sIngested.Add(uint64(ingested))
	e.ready = true
}

// buildRow ingests one cell row of an epoch and returns the nodes it
// visited: each cell's bucket is folded into the cell's Area as the grid
// streams it — buckets are id-sorted (canonical grid order), so the fold
// order is deterministic with nothing to capture or sort — with exactly the
// cold scan's freshness classification.
func (p *Pyramid) buildRow(e *epoch, cy int) int {
	var agg core.Area
	fold := func(id int32, pos geom.Point) {
		r := core.ReadingAt(p.sample, p.fld, id, pos, e.due, p.fresh)
		if uint(id) < uint(len(e.rd)) {
			e.rd[id] = r
		}
		agg.Fold(r, p.fresh)
	}
	visited := 0
	for cx := 0; cx < p.cg.cols; cx++ {
		agg = core.NewArea()
		p.grid.VisitCell(cx, cy, fold)
		if agg.AreaNodes == 0 {
			continue
		}
		visited += agg.AreaNodes
		e.lv[0][cy*p.cg.cols+cx] = agg
	}
	return visited
}

// rollup merges the cell layer up the levels.
func (p *Pyramid) rollup(e *epoch) {
	for lv := 1; lv <= p.maxLevel; lv++ {
		w, h := p.lw[lv], p.lh[lv]
		cw, ch := p.lw[lv-1], p.lh[lv-1]
		child := e.lv[lv-1]
		for ty := 0; ty < h; ty++ {
			for tx := 0; tx < w; tx++ {
				agg := core.NewArea()
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						cx, cy := 2*tx+dx, 2*ty+dy
						if cx < cw && cy < ch {
							agg.Merge(&child[cy*cw+cx], 0)
						}
					}
				}
				e.lv[lv][ty*w+tx] = agg
			}
		}
	}
}

// ServeWindow answers the freshness-windowed aggregate of the disk
// (center, radius) at period boundary due, implementing core.AggIndex. It
// declines (ok=false) unless it can prove the answer equals the cold scan:
// due must be the boundary the pyramid holds, built under the same
// freshness window. Covered tiles contribute their rolled-up partials and
// fringe cells their disk-tested nodes (ascending id within the cell —
// canonical grid order) as the deterministic coarse-to-fine recursion
// reaches them, so the result is identical whatever the worker count.
func (p *Pyramid) ServeWindow(due sim.Time, center geom.Point, radius float64, fresh time.Duration) (core.Area, bool) {
	if fresh != p.fresh {
		p.sFresh.Add(1)
		return core.Area{}, false
	}
	e := p.e
	if !e.ready || e.due != due {
		p.sNoEpoch.Add(1)
		return core.Area{}, false
	}
	sv := core.NewArea()
	r2 := radius * radius
	fringeVisited := 0
	covered, fringe := coverDisk(p.cg, p.maxLevel, center, radius,
		func(level, tx, ty int) { sv.Merge(&e.lv[level][ty*p.lw[level]+tx], 0) },
		func(cx, cy int) {
			p.grid.VisitCell(cx, cy, func(id int32, pos geom.Point) {
				fringeVisited++
				if pos.Dist2(center) > r2 {
					return
				}
				var r core.Reading
				if uint(id) < uint(len(e.rd)) {
					r = e.rd[id]
				} else { // an id past the kept range: derived as the ingest derived it
					r = core.ReadingAt(p.sample, p.fld, id, pos, due, p.fresh)
				}
				sv.Fold(r, p.fresh)
			})
		})
	p.sServed.Add(1)
	p.sTiles.Add(uint64(covered))
	p.sCells.Add(uint64(fringe))
	p.sFringe.Add(uint64(fringeVisited))
	p.sArea.Add(uint64(sv.AreaNodes))
	return sv, true
}
