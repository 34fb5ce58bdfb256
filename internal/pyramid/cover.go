// Package pyramid maintains a multiresolution tile pyramid of partial
// aggregates over a geom.ShardedGrid, answering large-area Count/Sum/Min/
// Max/Avg queries by decomposing the query disk into a handful of fully
// covered coarse tiles plus a fringe of boundary cells scanned flat — the
// multiresolution aggregate-index construction (per-cell partials rolled up
// across resolutions) that turns an O(area) radius scan into roughly
// O(perimeter + log area) work once the per-epoch ingest is amortized
// across queries.
//
// Every cell and tile holds a core.Area, the record the engine's cold scan
// and window ring keep: the ingest and a serve's fringe fold readings with
// core.Area.Fold, the rollup and a serve's covered tiles merge with
// core.Area.Merge, so a serve does the cold scan's arithmetic in another
// grouping.
//
// Exactness is the design center, in the spirit of the corridor cache: a
// pyramid serve must be provably equal to the cold radius scan it replaces.
// The decomposition guarantees member-set equality (every node the cold
// scan would fold is accounted exactly once — covered tiles hold only
// in-disk nodes, the fringe is disk-tested node by node, edge cells are
// never covered because clamping makes their extent unbounded), and the
// epoch gate guarantees state equality (same boundary, same freshness
// window, same sampling schedule). Anything unprovable is declined and the
// caller falls back to the cold scan with honest accounting.
//
// The grid a pyramid indexes must not change while it serves: an epoch is
// never re-checked against the grid it was ingested from. The query engine
// guarantees this by fixing its index once the first query registers.
//
// A pyramid holds one epoch: the latest boundary ingested. EnsureEpoch is its
// one writer and never runs concurrently with itself or with ServeWindow;
// any number of ServeWindow calls may run together. The service meets this
// contract by ingesting each popped boundary serially, before it fans the
// boundary's evaluations out to its workers.
package pyramid

import (
	"mobiquery/internal/geom"
)

// cellGeom is the cell space a decomposition runs over: the grid, whose
// CellBox and CellRect decide which cells a disk touches and where they lie,
// and its dimensions. Neither depends on the worker count, which is what
// makes decompositions identical across ServiceConfig sizings.
type cellGeom struct {
	grid       *geom.ShardedGrid
	cols, rows int
}

func geometryOf(g *geom.ShardedGrid) cellGeom {
	cols, rows := g.CellCount()
	return cellGeom{grid: g, cols: cols, rows: rows}
}

// maxLevels returns the number of rollup levels above the cells worth
// keeping: coarser than the whole grid is useless.
func (cg cellGeom) maxLevels(want int) int {
	lv := 0
	for lv < want && (cg.cols>>(lv+1)) > 0 && (cg.rows>>(lv+1)) > 0 {
		lv++
	}
	return lv
}

// levelDims returns the tile-space dimensions of level lv (level 0 = cells).
func (cg cellGeom) levelDims(lv int) (w, h int) {
	s := 1 << lv
	return (cg.cols + s - 1) / s, (cg.rows + s - 1) / s
}

// cover is one disk decomposition in flight.
type cover struct {
	cellGeom
	center                    geom.Point
	r2                        float64
	minCX, maxCX              int
	minCY, maxCY              int
	tileFn                    func(level, tx, ty int)
	cellFn                    func(cx, cy int)
	coveredTiles, fringeCells int
	prunedTiles               int
}

// coverDisk decomposes the radius-r disk around center into fully covered
// tiles (reported to tileFn, coarsest first in deterministic recursion
// order) and fringe cells (reported to cellFn) whose nodes must be
// disk-tested individually. The union of the two exactly partitions the
// in-disk portion of the cell box VisitWithin scans:
//
//   - a covered tile lies entirely inside the disk and contains no edge
//     cell, so every node stored in it is in-disk (non-edge cells hold
//     exactly the points of their rect);
//   - a pruned tile lies entirely outside the disk and contains no edge
//     cell, so every node in it would fail the cold scan's distance test;
//   - everything else — boundary-straddling tiles down to single cells,
//     and every edge cell (whose clamped extent is unbounded outward, so
//     no containment can be proven from its rect) — is fringe.
//
// It returns the covered-tile and fringe-cell counts.
func coverDisk(cg cellGeom, maxLevel int, center geom.Point, r float64, tileFn func(level, tx, ty int), cellFn func(cx, cy int)) (covered, fringe int) {
	c := cover{
		cellGeom: cg,
		center:   center,
		r2:       r * r,
		tileFn:   tileFn,
		cellFn:   cellFn,
	}
	// The box VisitWithin scans.
	c.minCX, c.minCY, c.maxCX, c.maxCY = cg.grid.CellBox(center, r)
	if c.maxCX < c.minCX || c.maxCY < c.minCY {
		return 0, 0
	}
	for ty := c.minCY >> maxLevel; ty <= c.maxCY>>maxLevel; ty++ {
		for tx := c.minCX >> maxLevel; tx <= c.maxCX>>maxLevel; tx++ {
			c.visit(maxLevel, tx, ty)
		}
	}
	return c.coveredTiles, c.fringeCells
}

func (c *cover) visit(level, tx, ty int) {
	c0x, c0y := tx<<level, ty<<level
	c1x := c0x + 1<<level - 1
	c1y := c0y + 1<<level - 1
	if c1x > c.cols-1 {
		c1x = c.cols - 1
	}
	if c1y > c.rows-1 {
		c1y = c.rows - 1
	}
	// Outside the scanned box: the cold scan never looks here.
	if c0x > c.maxCX || c1x < c.minCX || c0y > c.maxCY || c1y < c.minCY {
		return
	}
	// An edge-touching tile can never be classified by its rect: clamped
	// cells hold nodes arbitrarily far outside it.
	edge := c0x == 0 || c0y == 0 || c1x == c.cols-1 || c1y == c.rows-1
	if !edge {
		lo, hi := c.grid.CellRect(c0x, c0y), c.grid.CellRect(c1x, c1y)
		rect := geom.Rect{MinX: lo.MinX, MinY: lo.MinY, MaxX: hi.MaxX, MaxY: hi.MaxY}
		min2, max2 := rectDist2(rect, c.center)
		if min2 > c.r2 {
			// Entirely outside the disk: every node here fails the cold
			// scan's distance test, so skipping it cannot change results.
			c.prunedTiles++
			return
		}
		if max2 <= c.r2 && c0x >= c.minCX && c1x <= c.maxCX && c0y >= c.minCY && c1y <= c.maxCY {
			c.coveredTiles++
			c.tileFn(level, tx, ty)
			return
		}
	}
	if level == 0 {
		c.fringeCells++
		c.cellFn(c0x, c0y)
		return
	}
	c.visit(level-1, 2*tx, 2*ty)
	c.visit(level-1, 2*tx+1, 2*ty)
	c.visit(level-1, 2*tx, 2*ty+1)
	c.visit(level-1, 2*tx+1, 2*ty+1)
}

// rectDist2 returns the squared distances from p to the nearest and
// farthest points of rect (0 for the nearest when p is inside).
func rectDist2(rect geom.Rect, p geom.Point) (min2, max2 float64) {
	var nx, fx float64
	switch {
	case p.X < rect.MinX:
		nx = rect.MinX - p.X
	case p.X > rect.MaxX:
		nx = p.X - rect.MaxX
	}
	if d := p.X - rect.MinX; d > fx {
		fx = d
	}
	if d := rect.MaxX - p.X; d > fx {
		fx = d
	}
	var ny, fy float64
	switch {
	case p.Y < rect.MinY:
		ny = rect.MinY - p.Y
	case p.Y > rect.MaxY:
		ny = p.Y - rect.MaxY
	}
	if d := p.Y - rect.MinY; d > fy {
		fy = d
	}
	if d := rect.MaxY - p.Y; d > fy {
		fy = d
	}
	return nx*nx + ny*ny, fx*fx + fy*fy
}
