package geom

import (
	"math"
	"sync"
	"sync/atomic"
)

// ShardedGrid is the repository's one spatial hash: it answers "all items
// within radius r of point p" for the query engine and, with one shard, for
// the serial discrete-event run (radio medium, CCP, fidelity scoring). It is
// built for many independent writers and readers: the cell space is
// partitioned into horizontal shards with one write lock each, cell buckets
// are immutable snapshots published through atomic pointers (radius queries
// never take a lock), and the id→position index is striped by id hash so
// position updates for different items rarely contend.
//
// Consistency model: every individual cell read observes a fully formed
// bucket. A move that crosses cells is not atomic with respect to readers —
// a radius query racing with the move may miss the moving item for that one
// call (it is removed from the old cell before it appears in the new one,
// so an item is never reported twice). Nothing here brackets a multi-cell
// sweep against writers: a reader that keeps what it swept (a pyramid epoch,
// a corridor stage, a reading column) relies on the grid not changing while
// it serves — the query engine fixes its index once the first query
// registers.
//
// The zero value is not usable; construct with NewShardedGrid.
type ShardedGrid struct {
	region     Rect
	cell       float64
	cols, rows int

	rowsPerShard int
	shards       []gridShard

	stripes []posStripe
}

// shardEntry is one item in a cell bucket. Positions are stored inline so
// the read path never touches the striped index.
type shardEntry struct {
	id int32
	p  Point
}

// gridShard owns a horizontal band of cell rows. The mutex serializes
// writers; readers go straight to the atomic bucket pointers.
type gridShard struct {
	mu    sync.Mutex
	row0  int // first global cell row owned by this shard
	cells []atomic.Pointer[[]shardEntry]
}

// posStripe is one stripe of the id→position index.
type posStripe struct {
	mu    sync.RWMutex
	where map[int32]Point
}

// DefaultShards is the shard count used when NewShardedGrid is given a
// non-positive count. It trades lock granularity against per-shard overhead
// for fields in the 10⁴–10⁵ node range.
const DefaultShards = 16

// NewShardedGrid creates a sharded grid over region with the given cell
// size and shard count (<=0 selects DefaultShards). The shard count is
// capped at the number of cell rows; cell size should be on the order of
// the typical query radius.
func NewShardedGrid(region Rect, cellSize float64, shardCount int) *ShardedGrid {
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
	if shardCount <= 0 {
		shardCount = DefaultShards
	}
	if shardCount > rows {
		shardCount = rows
	}
	rps := (rows + shardCount - 1) / shardCount
	// Rounding the band height up can leave the last bands empty; shrink the
	// shard count so every shard owns at least one row.
	shardCount = (rows + rps - 1) / rps
	g := &ShardedGrid{
		region:       region,
		cell:         cellSize,
		cols:         cols,
		rows:         rows,
		rowsPerShard: rps,
		shards:       make([]gridShard, shardCount),
		stripes:      make([]posStripe, shardCount),
	}
	for s := range g.shards {
		row0 := s * rps
		bandRows := rps
		if row0+bandRows > rows {
			bandRows = rows - row0
		}
		g.shards[s].row0 = row0
		g.shards[s].cells = make([]atomic.Pointer[[]shardEntry], bandRows*cols)
	}
	for s := range g.stripes {
		g.stripes[s].where = make(map[int32]Point)
	}
	return g
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

func (g *ShardedGrid) shardFor(cy int) *gridShard {
	return &g.shards[cy/g.rowsPerShard]
}

// slot returns the shard-local bucket for global cell (cx, cy).
func (sh *gridShard) slot(cols, cx, cy int) *atomic.Pointer[[]shardEntry] {
	return &sh.cells[(cy-sh.row0)*cols+cx]
}

func (g *ShardedGrid) stripe(id int32) *posStripe {
	// Cheap avalanche over the id; ids are often sequential, and taking the
	// low bits directly would map neighbouring nodes to the same stripe.
	h := uint32(id) * 2654435761
	return &g.stripes[h%uint32(len(g.stripes))]
}

// addToCell publishes a new bucket for p's cell with id inserted at its
// id-sorted position. Every bucket is strictly ascending by id at all times
// (removeFromCell preserves order), which is what makes the scan order of
// VisitWithin and VisitCell canonical: it depends on the region, the cell
// size and the stored items only, never on the shard count or on the order
// concurrent writers happened to insert in.
func (g *ShardedGrid) addToCell(id int32, p Point) {
	cx, cy := g.cellOf(p)
	sh := g.shardFor(cy)
	sh.mu.Lock()
	slot := sh.slot(g.cols, cx, cy)
	var old []shardEntry
	if b := slot.Load(); b != nil {
		old = *b
	}
	// Scan from the tail: buckets are a handful of items and bulk loads
	// insert ascending ids, so the common case is a plain append.
	at := len(old)
	for at > 0 && old[at-1].id > id {
		at--
	}
	next := make([]shardEntry, len(old)+1)
	copy(next, old[:at])
	next[at] = shardEntry{id: id, p: p}
	copy(next[at+1:], old[at:])
	slot.Store(&next)
	sh.mu.Unlock()
}

// removeFromCell publishes a new bucket for p's cell with id removed, or
// nil when id was the last item: a drained cell reads exactly like one that
// was never written.
func (g *ShardedGrid) removeFromCell(id int32, p Point) {
	cx, cy := g.cellOf(p)
	sh := g.shardFor(cy)
	sh.mu.Lock()
	slot := sh.slot(g.cols, cx, cy)
	if old := slot.Load(); old != nil {
		next := make([]shardEntry, 0, len(*old))
		for _, e := range *old {
			if e.id != id {
				next = append(next, e)
			}
		}
		if len(next) == 0 {
			slot.Store(nil)
		} else {
			slot.Store(&next)
		}
	}
	sh.mu.Unlock()
}

// Insert adds id at position p. Inserting an existing id moves it. Distinct
// ids may be inserted concurrently; calls for the same id must be
// externally ordered (last writer wins otherwise).
func (g *ShardedGrid) Insert(id int32, p Point) {
	st := g.stripe(id)
	st.mu.Lock()
	old, existed := st.where[id]
	if existed && old == p {
		st.mu.Unlock()
		return
	}
	st.where[id] = p
	// The stripe lock doubles as the per-item move lock: holding it across
	// the cell updates keeps racing writers to the same id from interleaving
	// their remove/add pairs. Shard locks are only ever taken one at a time
	// under a stripe lock, so the lock order is acyclic.
	if existed {
		g.removeFromCell(id, old)
	}
	g.addToCell(id, p)
	st.mu.Unlock()
}

// Move updates the position of id. It is equivalent to Insert.
func (g *ShardedGrid) Move(id int32, p Point) { g.Insert(id, p) }

// Len returns the number of items stored.
func (g *ShardedGrid) Len() int {
	n := 0
	for s := range g.stripes {
		st := &g.stripes[s]
		st.mu.RLock()
		n += len(st.where)
		st.mu.RUnlock()
	}
	return n
}

// VisitWithin calls fn for every item within radius r of p (inclusive),
// passing the item's stored position. The read path takes no locks: it
// walks immutable bucket snapshots, so it runs concurrently with any number
// of writers and other readers.
//
// Items are emitted in canonical grid order: cell row, then cell column,
// then ascending id within the cell. The order is a function of the region,
// the cell size and the stored items alone — not of the shard count or of
// insertion interleaving — so a caller folding floats in visit order gets
// the same bits under any sizing, and a row-major VisitCell sweep over a
// box containing the disk yields this sequence as a subsequence.
func (g *ShardedGrid) VisitWithin(p Point, r float64, fn func(id int32, pos Point)) {
	minCX, minCY, maxCX, maxCY := g.CellBox(p, r)
	r2 := r * r
	for cy := minCY; cy <= maxCY; cy++ {
		sh := g.shardFor(cy)
		base := (cy - sh.row0) * g.cols
		for cx := minCX; cx <= maxCX; cx++ {
			bucket := sh.cells[base+cx].Load()
			if bucket == nil {
				continue
			}
			for _, e := range *bucket {
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

// VisitCell streams the items of one cell in ascending id order. Like
// VisitWithin it takes no locks — the bucket is an immutable snapshot — so
// it runs concurrently with writers. Out-of-range cell coordinates are a
// no-op.
func (g *ShardedGrid) VisitCell(cx, cy int, fn func(id int32, pos Point)) {
	if cx < 0 || cx >= g.cols || cy < 0 || cy >= g.rows {
		return
	}
	sh := g.shardFor(cy)
	bucket := sh.slot(g.cols, cx, cy).Load()
	if bucket == nil {
		return
	}
	for _, e := range *bucket {
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
