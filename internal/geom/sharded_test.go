package geom

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// within collects the ids VisitWithin emits.
func within(g *ShardedGrid, dst []int32, p Point, r float64) []int32 {
	g.VisitWithin(p, r, func(id int32, _ Point) { dst = append(dst, id) })
	return dst
}

// sweep calls fn for every cell of CellBox(p, r) in row-major order, the
// corridor cache's staging sweep.
func sweep(g *ShardedGrid, p Point, r float64, fn func(cx, cy int)) {
	minCX, minCY, maxCX, maxCY := g.CellBox(p, r)
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			fn(cx, cy)
		}
	}
}

func sorted(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestGridInsertAndWithin(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 0)
	g.Insert(1, Pt(10, 10))
	g.Insert(2, Pt(20, 10))
	g.Insert(3, Pt(90, 90))

	got := sorted(within(g, nil, Pt(10, 10), 15))
	want := []int32{1, 2}
	if len(got) != len(want) || got[0] != 1 || got[1] != 2 {
		t.Errorf("Within = %v, want %v", got, want)
	}
	if ids := within(g, nil, Pt(50, 50), 5); len(ids) != 0 {
		t.Errorf("Within empty region = %v, want none", ids)
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d, want 3", g.Len())
	}
}

func TestGridWithinInclusiveBoundary(t *testing.T) {
	g := NewShardedGrid(Square(100), 7, 0)
	g.Insert(1, Pt(0, 0))
	g.Insert(2, Pt(10, 0))
	if got := within(g, nil, Pt(0, 0), 10); len(got) != 2 {
		t.Errorf("radius exactly at distance should include boundary node, got %v", got)
	}
}

func TestGridMove(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 0)
	g.Insert(7, Pt(5, 5))
	g.Move(7, Pt(95, 95))
	if ids := within(g, nil, Pt(5, 5), 10); len(ids) != 0 {
		t.Errorf("moved node still found at old position: %v", ids)
	}
	if ids := within(g, nil, Pt(95, 95), 1); len(ids) != 1 || ids[0] != 7 {
		t.Errorf("moved node not found at new position: %v", ids)
	}
	if g.Len() != 1 {
		t.Errorf("Len after move = %d, want 1", g.Len())
	}
}

func TestGridUnknownIDs(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 0)
	g.Move(5, Pt(30, 30)) // moving an unknown id inserts it
	if g.Len() != 1 {
		t.Errorf("Len after Move of unknown id = %d, want 1", g.Len())
	}
	if ids := within(g, nil, Pt(30, 30), 1); len(ids) != 1 || ids[0] != 5 {
		t.Errorf("moved-in unknown id not findable: %v", ids)
	}
}

func TestGridOutOfRegionClamped(t *testing.T) {
	// Items slightly outside the region (mobile proxy near the boundary)
	// must still be stored and findable.
	g := NewShardedGrid(Square(100), 10, 0)
	g.Insert(1, Pt(-5, -5))
	g.Insert(2, Pt(105, 105))
	if ids := within(g, nil, Pt(0, 0), 10); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("out-of-region item not found: %v", ids)
	}
	if ids := within(g, nil, Pt(100, 100), 10); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("out-of-region item not found: %v", ids)
	}
}

func TestGridQuickInsertFindable(t *testing.T) {
	g := NewShardedGrid(Square(1000), 50, 0)
	f := func(id int32, x, y float64) bool {
		if id < 0 {
			id = -id
		}
		p := Square(1000).Clamp(Pt(x, y))
		g.Insert(id, p)
		ids := within(g, nil, p, 0.001)
		for _, got := range ids {
			if got == id {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShardedGridMatchesBruteForce(t *testing.T) {
	// Randomized insert/move traffic must leave the grid answering range
	// queries exactly like a linear scan of the stored positions.
	rng := rand.New(rand.NewSource(7))
	region := Square(450)
	ref := map[int32]Point{}
	g := NewShardedGrid(region, 105, 0)
	for step := 0; step < 2000; step++ {
		id := int32(rng.Intn(300))
		p := region.UniformPoint(rng)
		g.Insert(id, p)
		ref[id] = p
	}
	if g.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(ref))
	}
	for trial := 0; trial < 200; trial++ {
		center := region.UniformPoint(rng)
		radius := rng.Float64() * 250
		got := sorted(within(g, nil, center, radius))
		var want []int32
		for id, p := range ref {
			if p.Dist2(center) <= radius*radius {
				want = append(want, id)
			}
		}
		if want = sorted(want); !slices.Equal(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

// TestGridMatchesBruteForce cross-checks range queries on freshly built,
// insert-only grids (the static field as Open places it) against a naive
// scan, one grid per random configuration.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	region := Square(450)
	for trial := 0; trial < 50; trial++ {
		g := NewShardedGrid(region, 105, 0)
		pts := make(map[int32]Point)
		n := 50 + rng.Intn(150)
		for i := 0; i < n; i++ {
			p := region.UniformPoint(rng)
			g.Insert(int32(i), p)
			pts[int32(i)] = p
		}
		center := region.UniformPoint(rng)
		radius := rng.Float64() * 200
		got := sorted(within(g, nil, center, radius))
		var want []int32
		for id, p := range pts {
			if p.Within(center, radius) {
				want = append(want, id)
			}
		}
		if want = sorted(want); !slices.Equal(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

// TestShardedGridUnknownIDs moves unknown ids into an occupied cell: each is
// inserted, and lands in id order among the bucket's existing items.
func TestShardedGridUnknownIDs(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 0)
	g.Insert(50, Pt(12, 12))
	g.Insert(10, Pt(14, 14))
	g.Move(42, Pt(11, 11)) // moving an unknown id inserts it
	g.Move(5, Pt(19, 19))
	if g.Len() != 4 {
		t.Errorf("Len = %d, want 4", g.Len())
	}
	var got []int32
	g.VisitCell(1, 1, func(id int32, _ Point) { got = append(got, id) })
	if want := []int32{5, 10, 42, 50}; !slices.Equal(got, want) {
		t.Errorf("cell (1,1) = %v, want %v", got, want)
	}
}

// TestShardedGridMoveAcrossShards moves an item back and forth between the
// bottom and top cell rows (once separate row-band shards): each move must
// empty the old bucket to nil and leave exactly one stored copy.
func TestShardedGridMoveAcrossShards(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 0)
	bottom, top := Pt(50, 5), Pt(50, 95)
	g.Insert(9, bottom)
	for i, p := range []Point{top, bottom, top} {
		old := bottom
		if p == bottom {
			old = top
		}
		g.Move(9, p)
		if b := g.cells[g.cellIndex(old)]; b != nil {
			t.Errorf("move %d: old cell still holds %v, want nil", i, b)
		}
		if ids := within(g, nil, p, 1); len(ids) != 1 || ids[0] != 9 {
			t.Errorf("move %d: item not visible at %v: %v", i, p, ids)
		}
		if ids := within(g, nil, Pt(50, 50), 100); len(ids) != 1 {
			t.Errorf("move %d: whole-region query = %v, want one copy", i, ids)
		}
	}
}

func TestShardedGridItemsOnRegionBorder(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 0)
	border := []Point{
		1: Pt(0, 0),
		2: Pt(100, 100), // exactly on the max corner
		3: Pt(0, 100),
		4: Pt(100, 0),
		5: Pt(-3, 50), // clamped into the edge cells, like Grid
		6: Pt(50, 104),
	}
	for id := int32(1); id <= 6; id++ {
		g.Insert(id, border[id])
	}
	for id := int32(1); id <= 6; id++ {
		p := border[id]
		found := false
		for _, got := range within(g, nil, p, 0.001) {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Errorf("border item %d at %v not returned by Within", id, p)
		}
	}
	if got := sorted(within(g, nil, Pt(100, 100), 0)); len(got) != 1 || got[0] != 2 {
		t.Errorf("zero-radius corner query = %v, want [2]", got)
	}
}

// TestShardedGridCellSweepMatchesVisitWithin pins the corridor cache's core
// assumption: collecting every cell of CellBox and filtering by
// distance yields exactly the VisitWithin result — for interior disks,
// disks poking past the region, and clamped out-of-region items.
func TestShardedGridCellSweepMatchesVisitWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	region := Square(450)
	g := NewShardedGrid(region, 105, 0)
	for i := 0; i < 300; i++ {
		g.Insert(int32(i), region.UniformPoint(rng))
	}
	g.Insert(1000, Pt(-20, 225)) // clamped into an edge cell
	g.Insert(1001, Pt(470, 470))
	for trial := 0; trial < 100; trial++ {
		center := Pt(rng.Float64()*550-50, rng.Float64()*550-50)
		radius := rng.Float64() * 250
		want := map[int32]Point{}
		g.VisitWithin(center, radius, func(id int32, pos Point) { want[id] = pos })
		got := map[int32]Point{}
		r2 := radius * radius
		sweep(g, center, radius, func(cx, cy int) {
			g.VisitCell(cx, cy, func(id int32, pos Point) {
				if pos.Dist2(center) <= r2 {
					got[id] = pos
				}
			})
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: cell sweep found %d items, VisitWithin %d", trial, len(got), len(want))
		}
		for id, pos := range want {
			if got[id] != pos {
				t.Fatalf("trial %d: item %d at %v vs %v", trial, id, got[id], pos)
			}
		}
	}
}

func TestShardedGridCellRect(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 0)
	g.Insert(7, Pt(34, 56))
	var cells []Rect
	sweep(g, Pt(34, 56), 0, func(cx, cy int) {
		cells = append(cells, g.CellRect(cx, cy))
	})
	if len(cells) != 1 {
		t.Fatalf("zero-radius box spans %d cells, want 1", len(cells))
	}
	if !cells[0].Contains(Pt(34, 56)) {
		t.Errorf("CellRect %v does not contain the item's position", cells[0])
	}
	if w, h := cells[0].Width(), cells[0].Height(); w != 10 || h != 10 {
		t.Errorf("cell extent = %vx%v, want 10x10", w, h)
	}
}

func BenchmarkShardedGridWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	region := Square(450)
	g := NewShardedGrid(region, 105, 0)
	for i := 0; i < 200; i++ {
		g.Insert(int32(i), region.UniformPoint(rng))
	}
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = within(g, buf[:0], Pt(225, 225), 105)
	}
}

func TestShardedGridCellBoxMatchesBruteForce(t *testing.T) {
	// Property pin for the tile-decomposition prerequisite: for any box
	// that intersects the region, the cells CellBox spans must
	// be exactly those whose effective extent intersects the box, where
	// edge cells extend unboundedly outward (cellOf clamps out-of-region
	// points into them). Centers are drawn so the box frequently spills
	// past every region edge, exercising the clamping; boxes entirely
	// outside the region are out of contract (VisitWithin never scans them
	// — a query disk can only reach a clamped item if it also reaches the
	// region).
	rng := rand.New(rand.NewSource(42))
	for _, cellSize := range []float64{7, 33, 105} {
		g := NewShardedGrid(Square(450), cellSize, 0)
		cols, rows := g.CellCount()
		region := g.Region()
		for trial := 0; trial < 300; trial++ {
			radius := rng.Float64() * 300
			center := Pt(rng.Float64()*(450+1.6*radius)-0.8*radius,
				rng.Float64()*(450+1.6*radius)-0.8*radius)
			got := make(map[[2]int]bool)
			sweep(g, center, radius, func(cx, cy int) {
				if got[[2]int{cx, cy}] {
					t.Fatalf("cell (%d,%d) visited twice", cx, cy)
				}
				got[[2]int{cx, cy}] = true
			})
			boxMinX, boxMaxX := center.X-radius, center.X+radius
			boxMinY, boxMaxY := center.Y-radius, center.Y+radius
			want := 0
			for cy := 0; cy < rows; cy++ {
				for cx := 0; cx < cols; cx++ {
					r := g.CellRect(cx, cy)
					// Edge cells absorb everything clamped past the region.
					minX, maxX, minY, maxY := r.MinX, r.MaxX, r.MinY, r.MaxY
					if cx == 0 {
						minX = math.Inf(-1)
					}
					if cx == cols-1 {
						maxX = math.Inf(1)
					}
					if cy == 0 {
						minY = math.Inf(-1)
					}
					if cy == rows-1 {
						maxY = math.Inf(1)
					}
					overlap := minX <= boxMaxX && boxMinX < maxX && minY <= boxMaxY && boxMinY < maxY
					if overlap {
						want++
					}
					if overlap != got[[2]int{cx, cy}] {
						t.Fatalf("cell=%v center=%v r=%v cell (%d,%d): visited=%v, brute force says %v",
							cellSize, center, radius, cx, cy, got[[2]int{cx, cy}], overlap)
					}
				}
			}
			if len(got) != want {
				t.Fatalf("visited %d cells, brute force found %d", len(got), want)
			}
			_ = region
		}
	}
}

// gridOp is one scripted mutation of the canonical-order property test.
type gridOp struct {
	id int32
	p  Point
}

// canonicalOps scripts seeded Insert/Move traffic for `writers` scripts
// over disjoint id ranges, with positions straying past the region so
// clamped edge cells take part. It returns the scripts and the final
// id→position state they leave behind, which no interleaving that keeps
// each script's order can change.
func canonicalOps(seed int64, region Rect, writers, perWriter, steps int) ([][]gridOp, map[int32]Point) {
	scripts := make([][]gridOp, writers)
	final := map[int32]Point{}
	for w := range scripts {
		rng := rand.New(rand.NewSource(seed + int64(w)))
		for i := 0; i < steps; i++ {
			op := gridOp{
				id: int32(w*perWriter + rng.Intn(perWriter)),
				p:  Pt(region.MinX-40+rng.Float64()*(region.Width()+80), region.MinY-40+rng.Float64()*(region.Height()+80)),
			}
			final[op.id] = op.p
			scripts[w] = append(scripts[w], op)
		}
	}
	return scripts, final
}

// interleave merges the scripts into one sequence in an order drawn from
// seed, keeping each script's own order (and so each id's).
func interleave(seed int64, scripts [][]gridOp) []gridOp {
	rng := rand.New(rand.NewSource(seed))
	next := make([]int, len(scripts))
	var out []gridOp
	for live := len(scripts); live > 0; {
		w := rng.Intn(len(scripts))
		if next[w] == len(scripts[w]) {
			continue
		}
		out = append(out, scripts[w][next[w]])
		if next[w]++; next[w] == len(scripts[w]) {
			live--
		}
	}
	return out
}

// TestShardedGridCanonicalOrder is the invariant single-pass evaluation
// rests on: after any order of Insert/Move traffic every bucket is strictly
// ascending by id and nil when empty, so VisitWithin — and a row-major cell
// sweep over any box containing the disk — emits the stored in-disk items
// in (cell row, cell column, id) order: the same sequence for every
// interleaving of the scripts, and the one a brute-force sort of the final
// state gives.
func TestShardedGridCanonicalOrder(t *testing.T) {
	region := Square(450)
	const cell = 105
	scripts, final := canonicalOps(21, region, 4, 150, 1500)
	var grids []*ShardedGrid
	for seed := int64(0); seed < 5; seed++ {
		g := NewShardedGrid(region, cell, 0)
		for _, op := range interleave(seed, scripts) {
			g.Insert(op.id, op.p)
		}
		if g.Len() != len(final) {
			t.Fatalf("interleaving %d: %d items stored, want %d", seed, g.Len(), len(final))
		}
		for c, bucket := range g.cells {
			if bucket != nil && len(bucket) == 0 {
				t.Fatalf("interleaving %d: cell %d holds an empty bucket, want nil", seed, c)
			}
			for i := 1; i < len(bucket); i++ {
				if bucket[i-1].id >= bucket[i].id {
					t.Fatalf("interleaving %d: cell %d not strictly ascending: %v", seed, c, bucket)
				}
			}
		}
		if len(grids) > 0 && !reflect.DeepEqual(g.cells, grids[0].cells) {
			t.Fatalf("interleaving %d: cells differ from interleaving 0", seed)
		}
		grids = append(grids, g)
	}

	// The brute-force order, from the final state alone: clamp each item's
	// cell the way the grid does and sort by (row, column, id).
	cols, rows := grids[0].CellCount()
	clampCell := func(v float64, n int) int {
		return min(max(int(math.Floor(v/cell)), 0), n-1)
	}
	type item struct {
		id int32
		p  Point
	}
	all := make([]item, 0, len(final))
	for id, p := range final {
		all = append(all, item{id, p})
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if ay, by := clampCell(a.p.Y-region.MinY, rows), clampCell(b.p.Y-region.MinY, rows); ay != by {
			return ay < by
		}
		if ax, bx := clampCell(a.p.X-region.MinX, cols), clampCell(b.p.X-region.MinX, cols); ax != bx {
			return ax < bx
		}
		return a.id < b.id
	})

	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		center := Pt(rng.Float64()*550-50, rng.Float64()*550-50)
		radius := rng.Float64() * 250
		var want []item
		for _, it := range all {
			if it.p.Dist2(center) <= radius*radius {
				want = append(want, it)
			}
		}
		for seed, g := range grids {
			var got, swept []item
			g.VisitWithin(center, radius, func(id int32, p Point) { got = append(got, item{id, p}) })
			if !slices.Equal(got, want) {
				t.Fatalf("interleaving %d trial %d: VisitWithin sequence\n got %v\nwant %v", seed, trial, got, want)
			}
			// A wider box swept cell by cell, filtered to the disk: the
			// corridor cache's staging order.
			sweep(g, center, radius+rng.Float64()*120, func(cx, cy int) {
				g.VisitCell(cx, cy, func(id int32, p Point) {
					if p.Dist2(center) <= radius*radius {
						swept = append(swept, item{id, p})
					}
				})
			})
			if !slices.Equal(swept, want) {
				t.Fatalf("interleaving %d trial %d: cell sweep sequence\n got %v\nwant %v", seed, trial, swept, want)
			}
		}
	}

	// Moving every item into the corner cell leaves every other cell
	// reading as never written.
	g := grids[0]
	for id := range final {
		g.Move(id, Pt(-100, -100))
	}
	for c, bucket := range g.cells {
		if c != 0 && bucket != nil {
			t.Fatalf("cell %d not nil after draining", c)
		}
	}
	g.VisitWithin(Pt(225, 225), 100, func(id int32, _ Point) {
		t.Fatalf("drained cells still emit item %d", id)
	})
}
