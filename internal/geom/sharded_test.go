package geom

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
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

func TestShardedGridMatchesBruteForce(t *testing.T) {
	// Randomized insert/move traffic must leave the grid answering range
	// queries exactly like a linear scan of the stored positions, whatever
	// the shard count.
	rng := rand.New(rand.NewSource(7))
	region := Square(450)
	for _, shards := range []int{1, 3, 16, 1000} {
		ref := map[int32]Point{}
		sg := NewShardedGrid(region, 105, shards)
		for step := 0; step < 2000; step++ {
			id := int32(rng.Intn(300))
			p := region.UniformPoint(rng)
			sg.Insert(id, p)
			ref[id] = p
		}
		if sg.Len() != len(ref) {
			t.Fatalf("shards=%d: Len = %d, want %d", shards, sg.Len(), len(ref))
		}
		for trial := 0; trial < 50; trial++ {
			center := region.UniformPoint(rng)
			radius := rng.Float64() * 250
			got := sorted(within(sg, nil, center, radius))
			var want []int32
			for id, p := range ref {
				if p.Dist2(center) <= radius*radius {
					want = append(want, id)
				}
			}
			want = sorted(want)
			if len(got) != len(want) {
				t.Fatalf("shards=%d trial %d: got %d ids, want %d", shards, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shards=%d trial %d: got %v, want %v", shards, trial, got, want)
				}
			}
		}
	}
}

func TestShardedGridQueryStraddlesShardBoundary(t *testing.T) {
	// With 10 m cells and 4 shards over a 100 m square, the first shard
	// boundary sits at y≈30. A query circle centered on it must pull items
	// from both sides.
	g := NewShardedGrid(Square(100), 10, 4)
	g.Insert(1, Pt(50, 25)) // shard 0
	g.Insert(2, Pt(50, 35)) // shard 1
	g.Insert(3, Pt(50, 95)) // far shard
	got := sorted(within(g, nil, Pt(50, 30), 8))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("straddling query = %v, want [1 2]", got)
	}
	// A radius covering the whole region must cross every shard.
	if got := within(g, nil, Pt(50, 50), 200); len(got) != 3 {
		t.Errorf("full-region query = %v, want all 3 items", got)
	}
}

func TestShardedGridItemsOnRegionBorder(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 4)
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

func TestShardedGridUnknownIDs(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 4)
	g.Move(42, Pt(10, 10)) // moving an unknown id inserts it, as with Grid
	if ids := within(g, nil, Pt(10, 10), 1); len(ids) != 1 || ids[0] != 42 {
		t.Errorf("moved-in unknown id not findable: %v", ids)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestShardedGridMoveAcrossShards(t *testing.T) {
	g := NewShardedGrid(Square(100), 10, 4)
	g.Insert(9, Pt(50, 5))
	g.Move(9, Pt(50, 95)) // bottom band to top band
	if ids := within(g, nil, Pt(50, 5), 10); len(ids) != 0 {
		t.Errorf("item still visible in old shard: %v", ids)
	}
	if ids := within(g, nil, Pt(50, 95), 1); len(ids) != 1 || ids[0] != 9 {
		t.Errorf("item not visible in new shard: %v", ids)
	}
}

func TestShardedGridConcurrentChurn(t *testing.T) {
	// Writers insert and move disjoint id ranges while readers run radius
	// queries; run with -race to exercise the lock-free read path. Every
	// reader must see only fully formed entries (ids in range).
	region := Square(450)
	g := NewShardedGrid(region, 105, 8)
	const writers = 4
	const perWriter = 200
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	final := make([]map[int32]Point, writers)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		final[w] = map[int32]Point{}
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int32(w * perWriter)
			for i := 0; i < 3000; i++ {
				id, p := base+int32(rng.Intn(perWriter)), region.UniformPoint(rng)
				g.Insert(id, p)
				final[w][id] = p
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var buf []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = within(g, buf[:0], region.UniformPoint(rng), rng.Float64()*300)
				for _, id := range buf {
					if id < 0 || id >= writers*perWriter {
						t.Errorf("reader saw malformed id %d", id)
						return
					}
				}
				_ = g.Len()
			}
		}(r)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	// The final state must be internally consistent: every stored item is
	// findable at its last position.
	stored := 0
	for _, m := range final {
		stored += len(m)
		for id, p := range m {
			found := false
			for _, got := range within(g, nil, p, 0.001) {
				if got == id {
					found = true
				}
			}
			if !found {
				t.Errorf("item %d at %v lost from its cell after churn", id, p)
			}
		}
	}
	if g.Len() != stored {
		t.Errorf("Len = %d after churn, want %d", g.Len(), stored)
	}
}

// TestShardedGridCellSweepMatchesVisitWithin pins the corridor cache's core
// assumption: collecting every cell of CellBox and filtering by
// distance yields exactly the VisitWithin result — for interior disks,
// disks poking past the region, and clamped out-of-region items.
func TestShardedGridCellSweepMatchesVisitWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	region := Square(450)
	g := NewShardedGrid(region, 105, 8)
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
	g := NewShardedGrid(Square(100), 10, 4)
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
	g := NewShardedGrid(region, 105, 8)
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

// canonicalOps scripts seeded Insert/Move traffic for `writers`
// goroutines over disjoint id ranges (calls for one id must be externally
// ordered), with positions straying past the region so clamped edge cells
// take part. It returns the scripts and the final id→position state they
// leave behind, which no interleaving of the writers can change.
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

// TestShardedGridCanonicalOrder is the invariant single-pass evaluation
// rests on: after any interleaving of concurrent Insert/Move traffic
// every bucket is strictly ascending by id, so VisitWithin — and a
// row-major cell sweep over any box containing the disk — emits the stored
// in-disk items in (cell row, cell column, id) order, the same sequence for
// every shard count and the one a brute-force sort of the final state gives.
// Run with -race -count=10 to vary the writer interleaving.
func TestShardedGridCanonicalOrder(t *testing.T) {
	region := Square(450)
	const cell = 105
	scripts, final := canonicalOps(21, region, 4, 150, 1500)
	grids := map[int]*ShardedGrid{}
	for _, shards := range []int{1, 4, 16} {
		g := NewShardedGrid(region, cell, shards)
		var wg sync.WaitGroup
		for _, script := range scripts {
			wg.Add(1)
			go func(script []gridOp) {
				defer wg.Done()
				for _, op := range script {
					g.Insert(op.id, op.p)
				}
			}(script)
		}
		wg.Wait()
		if g.Len() != len(final) {
			t.Fatalf("shards=%d: %d items stored, want %d", shards, g.Len(), len(final))
		}
		for s := range g.shards {
			for c := range g.shards[s].cells {
				bucket := g.shards[s].cells[c].Load()
				if bucket == nil {
					continue
				}
				if len(*bucket) == 0 {
					t.Fatalf("shards=%d: shard %d cell %d holds an empty bucket, want nil", shards, s, c)
				}
				for i := 1; i < len(*bucket); i++ {
					if (*bucket)[i-1].id >= (*bucket)[i].id {
						t.Fatalf("shards=%d: shard %d cell %d not strictly ascending: %v", shards, s, c, *bucket)
					}
				}
			}
		}
		grids[shards] = g
	}

	// The brute-force order, from the final state alone: clamp each item's
	// cell the way the grid does and sort by (row, column, id).
	cols, rows := grids[1].CellCount()
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
		for shards, g := range grids {
			var got, swept []item
			g.VisitWithin(center, radius, func(id int32, p Point) { got = append(got, item{id, p}) })
			if !slices.Equal(got, want) {
				t.Fatalf("shards=%d trial %d: VisitWithin sequence\n got %v\nwant %v", shards, trial, got, want)
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
				t.Fatalf("shards=%d trial %d: cell sweep sequence\n got %v\nwant %v", shards, trial, swept, want)
			}
		}
	}

	// Moving every item into the corner cell leaves every other cell
	// reading as never written.
	for shards, g := range grids {
		for id := range final {
			g.Move(id, Pt(-100, -100))
		}
		for s := range g.shards {
			for c := range g.shards[s].cells {
				if (s != 0 || c != 0) && g.shards[s].cells[c].Load() != nil {
					t.Fatalf("shards=%d: shard %d cell %d not nil after draining", shards, s, c)
				}
			}
		}
		g.VisitWithin(Pt(225, 225), 100, func(id int32, _ Point) {
			t.Fatalf("shards=%d: drained cells still emit item %d", shards, id)
		})
	}
}
