package geom

import (
	"math"
	"slices"
)

// ShardedGrid is the repository's one spatial hash: it answers "all items
// within radius r of point p" for the query engine and for the serial
// discrete-event run (radio medium, CCP, fidelity scoring). The cell space
// is one row-major array of buckets, each strictly ascending by id, and an
// id→position map beside it.
//
// Concurrency contract: serial writers, then any number of readers once
// writing has stopped. Insert and Move edit buckets in place, so no call may
// run concurrently with a write; reads (VisitWithin, VisitCell, Len) may run
// concurrently with each other. The query engine keeps this contract by
// fixing its index once the first query registers; a reader that keeps what
// it swept (a pyramid epoch, a corridor stage, a reading column) relies on
// it.
//
// The type keeps its name and NewShardedGrid its shard-count parameter only
// because the repository benchmark still passes one; the grid has no shards.
//
// The zero value is not usable; construct with NewShardedGrid.
type ShardedGrid struct {
	region     Rect
	cell       float64
	cols, rows int

	// cells[cy*cols+cx] is cell (cx, cy)'s bucket: strictly ascending by id,
	// nil when empty.
	cells [][]shardEntry
	where map[int32]Point
}

// shardEntry is one item in a cell bucket. Positions are stored inline so
// the read path never touches the id index.
type shardEntry struct {
	id int32
	p  Point
}

// NewShardedGrid creates a grid over region with the given cell size, which
// should be on the order of the typical query radius. The third argument, a
// shard count, is ignored: the grid is one array of cells. The parameter
// stays only until the repository benchmark stops passing it.
func NewShardedGrid(region Rect, cellSize float64, _ int) *ShardedGrid {
	if cellSize <= 0 {
		panic("geom: grid cell size must be positive")
	}
	cols := int(math.Ceil(region.Width()/cellSize)) + 1
	rows := int(math.Ceil(region.Height()/cellSize)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &ShardedGrid{
		region: region,
		cell:   cellSize,
		cols:   cols,
		rows:   rows,
		cells:  make([][]shardEntry, cols*rows),
		where:  make(map[int32]Point),
	}
}

// Region returns the rectangle the grid was constructed over. Items may be
// stored outside it: cellOf clamps out-of-region points into edge cells.
func (g *ShardedGrid) Region() Rect { return g.region }

// CellCount returns the cell-space dimensions: cells are addressed
// (cx, cy) with 0 <= cx < cols and 0 <= cy < rows. Together with Region
// this is the addressing contract tile pyramids build on: cell (cx, cy)
// nominally spans CellRect(cx, cy), except that edge cells
// (cx or cy at 0 or the last index) extend unboundedly outward.
func (g *ShardedGrid) CellCount() (cols, rows int) { return g.cols, g.rows }

// cellOf returns the clamped cell coordinates of p.
func (g *ShardedGrid) cellOf(p Point) (cx, cy int) {
	cx = int((p.X - g.region.MinX) / g.cell)
	cy = int((p.Y - g.region.MinY) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

// cellIndex returns the index in cells of p's cell.
func (g *ShardedGrid) cellIndex(p Point) int {
	cx, cy := g.cellOf(p)
	return cy*g.cols + cx
}

// addToCell inserts id at its id-sorted position in p's cell. Every bucket
// is strictly ascending by id at all times (removeFromCell preserves order),
// which is what makes the scan order of VisitWithin and VisitCell canonical:
// it depends on the region, the cell size and the stored items only, never
// on the order they were inserted in.
func (g *ShardedGrid) addToCell(id int32, p Point) {
	c := g.cellIndex(p)
	b := g.cells[c]
	// Scan from the tail: buckets are a handful of items and bulk loads
	// insert ascending ids, so the common case is a plain append.
	at := len(b)
	for at > 0 && b[at-1].id > id {
		at--
	}
	g.cells[c] = slices.Insert(b, at, shardEntry{id: id, p: p})
}

// removeFromCell removes id from p's cell, leaving nil when id was the last
// item: a drained cell reads exactly like one that was never written.
func (g *ShardedGrid) removeFromCell(id int32, p Point) {
	c := g.cellIndex(p)
	g.cells[c] = slices.DeleteFunc(g.cells[c], func(e shardEntry) bool { return e.id == id })
	if len(g.cells[c]) == 0 {
		g.cells[c] = nil
	}
}

// Insert adds id at position p. Inserting an existing id moves it. Not safe
// for concurrent use (see the type's contract).
func (g *ShardedGrid) Insert(id int32, p Point) {
	old, existed := g.where[id]
	if existed && old == p {
		return
	}
	g.where[id] = p
	if existed {
		g.removeFromCell(id, old)
	}
	g.addToCell(id, p)
}

// Move updates the position of id. It is equivalent to Insert.
func (g *ShardedGrid) Move(id int32, p Point) { g.Insert(id, p) }

// Len returns the number of items stored.
func (g *ShardedGrid) Len() int { return len(g.where) }

// VisitWithin calls fn for every item within radius r of p (inclusive),
// passing the item's stored position.
//
// Items are emitted in canonical grid order: cell row, then cell column,
// then ascending id within the cell. The order is a function of the region,
// the cell size and the stored items alone — not of insertion order — so a
// caller folding floats in visit order gets the same bits under any
// placement, and a row-major VisitCell sweep over a box containing the disk
// yields this sequence as a subsequence.
func (g *ShardedGrid) VisitWithin(p Point, r float64, fn func(id int32, pos Point)) {
	minCX, minCY, maxCX, maxCY := g.CellBox(p, r)
	r2 := r * r
	for cy := minCY; cy <= maxCY; cy++ {
		base := cy * g.cols
		// An index loop, not a sub-slice of the row: a disk wholly outside
		// the region gives maxCX < minCX.
		for cx := minCX; cx <= maxCX; cx++ {
			for _, e := range g.cells[base+cx] {
				if e.p.Dist2(p) <= r2 {
					fn(e.id, e.p)
				}
			}
		}
	}
}

// CellBox returns the clamped cell box a radius-r scan around p covers: the
// cells (cx, cy) with minCX <= cx <= maxCX and minCY <= cy <= maxCY. It is
// the one place that decision is made. VisitWithin scans exactly these
// cells; a row-major sweep over them, filtered to any disk inside the
// radius-r one, yields that disk's VisitWithin sequence, clamped edge cells
// (which hold the items lying outside the region) included — the corridor
// cache stages on this and the tile pyramid decomposes exactly this box.
// The box is empty (max < min) only for a disk wholly outside the region.
func (g *ShardedGrid) CellBox(p Point, r float64) (minCX, minCY, maxCX, maxCY int) {
	minCX = int((p.X - r - g.region.MinX) / g.cell)
	minCY = int((p.Y - r - g.region.MinY) / g.cell)
	maxCX = int((p.X + r - g.region.MinX) / g.cell)
	maxCY = int((p.Y + r - g.region.MinY) / g.cell)
	return max(minCX, 0), max(minCY, 0), min(maxCX, g.cols-1), min(maxCY, g.rows-1)
}

// VisitCell streams the items of one cell in ascending id order.
// Out-of-range cell coordinates are a no-op.
func (g *ShardedGrid) VisitCell(cx, cy int, fn func(id int32, pos Point)) {
	if cx < 0 || cx >= g.cols || cy < 0 || cy >= g.rows {
		return
	}
	for _, e := range g.cells[cy*g.cols+cx] {
		fn(e.id, e.p)
	}
}

// CellRect returns the spatial extent of cell (cx, cy). Edge cells extend
// past the region boundary: cellOf clamps out-of-region points into them,
// so their effective extent is unbounded outward — CellRect reports the
// nominal grid-aligned rectangle.
func (g *ShardedGrid) CellRect(cx, cy int) Rect {
	return Rect{
		MinX: g.region.MinX + float64(cx)*g.cell,
		MinY: g.region.MinY + float64(cy)*g.cell,
		MaxX: g.region.MinX + float64(cx+1)*g.cell,
		MaxY: g.region.MinY + float64(cy+1)*g.cell,
	}
}
