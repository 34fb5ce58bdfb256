package geom

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The TestGrid tests pin the grid as the serial discrete-event run uses it:
// one shard, static id-ordered inserts, the odd mobile proxy moving.

// newSerialGrid is the one-shard grid the radio medium, CCP and the fidelity
// scorer index on.
func newSerialGrid(region Rect, cell float64) *ShardedGrid {
	return NewShardedGrid(region, cell, 1)
}

func sorted(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestGridInsertAndWithin(t *testing.T) {
	g := newSerialGrid(Square(100), 10)
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
	g := newSerialGrid(Square(100), 7)
	g.Insert(1, Pt(0, 0))
	g.Insert(2, Pt(10, 0))
	if got := within(g, nil, Pt(0, 0), 10); len(got) != 2 {
		t.Errorf("radius exactly at distance should include boundary node, got %v", got)
	}
}

func TestGridMove(t *testing.T) {
	g := newSerialGrid(Square(100), 10)
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
	g := newSerialGrid(Square(100), 10)
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
	g := newSerialGrid(Square(100), 10)
	g.Insert(1, Pt(-5, -5))
	g.Insert(2, Pt(105, 105))
	if ids := within(g, nil, Pt(0, 0), 10); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("out-of-region item not found: %v", ids)
	}
	if ids := within(g, nil, Pt(100, 100), 10); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("out-of-region item not found: %v", ids)
	}
}

// TestGridMatchesBruteForce cross-checks grid range queries against a naive
// scan on random configurations.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	region := Square(450)
	for trial := 0; trial < 50; trial++ {
		g := newSerialGrid(region, 105)
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
		want = sorted(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestGridQuickInsertFindable(t *testing.T) {
	g := newSerialGrid(Square(1000), 50)
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
