package ccp

import (
	"math/rand"
	"testing"

	"mobiquery/internal/deploy"
	"mobiquery/internal/geom"
)

func paperTopology(seed int64) deploy.Topology {
	rng := rand.New(rand.NewSource(seed))
	return deploy.Uniform(geom.Square(450), 200, rng)
}

func TestSelectCoversAndConnects(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(1); seed <= 5; seed++ {
		topo := paperTopology(seed)
		res := Select(topo.Region, topo.Positions, cfg, rand.New(rand.NewSource(seed)))
		if err := Verify(topo.Region, topo.Positions, res.Active, cfg); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if res.NumActive == 0 || res.NumActive == len(topo.Positions) {
			t.Errorf("seed %d: degenerate backbone size %d of %d", seed, res.NumActive, len(topo.Positions))
		}
	}
}

func TestBackboneFractionReasonable(t *testing.T) {
	// With 200 nodes at Rs=50 in 450x450, a sensible cover uses well under
	// 60% of nodes and at least the area lower bound (~26 disks).
	cfg := DefaultConfig()
	topo := paperTopology(7)
	res := Select(topo.Region, topo.Positions, cfg, rand.New(rand.NewSource(7)))
	frac := float64(res.NumActive) / float64(len(topo.Positions))
	if frac < 0.10 || frac > 0.60 {
		t.Errorf("backbone fraction = %.2f (%d nodes), want within [0.10, 0.60]",
			frac, res.NumActive)
	}
}

func TestSelectDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	topo := paperTopology(3)
	a := Select(topo.Region, topo.Positions, cfg, rand.New(rand.NewSource(9)))
	b := Select(topo.Region, topo.Positions, cfg, rand.New(rand.NewSource(9)))
	for i := range a.Active {
		if a.Active[i] != b.Active[i] {
			t.Fatalf("selection differs at node %d for identical seeds", i)
		}
	}
}

func TestSelectEmpty(t *testing.T) {
	cfg := DefaultConfig()
	res := Select(geom.Square(450), nil, cfg, rand.New(rand.NewSource(1)))
	if res.NumActive != 0 || len(res.Active) != 0 {
		t.Errorf("empty selection = %+v", res)
	}
}

func TestSingleNodeStaysActive(t *testing.T) {
	cfg := DefaultConfig()
	res := Select(geom.Square(100), []geom.Point{geom.Pt(50, 50)}, cfg, rand.New(rand.NewSource(1)))
	if !res.Active[0] {
		t.Error("a lone node must stay active")
	}
}

func TestRedundantClusterSleepsSomeNodes(t *testing.T) {
	// Many co-located nodes: almost all should be able to sleep.
	cfg := DefaultConfig()
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Pt(50+float64(i%5), 50+float64(i/5))
	}
	res := Select(geom.Square(100), pts, cfg, rand.New(rand.NewSource(1)))
	if res.NumActive > 4 {
		t.Errorf("tight cluster kept %d nodes active, want <= 4", res.NumActive)
	}
	if err := Verify(geom.Square(100), pts, res.Active, cfg); err != nil {
		t.Error(err)
	}
}

func TestSparseLineAllActive(t *testing.T) {
	// Nodes spaced exactly at 2*Rs cannot cover for each other.
	cfg := DefaultConfig()
	pts := []geom.Point{geom.Pt(50, 50), geom.Pt(150, 50), geom.Pt(250, 50)}
	res := Select(geom.Square(300), pts, cfg, rand.New(rand.NewSource(1)))
	if res.NumActive != 3 {
		t.Errorf("sparse line kept %d active, want 3", res.NumActive)
	}
}

func TestConnectivityRepairBridgesGap(t *testing.T) {
	// Two dense clusters far apart with a chain of sparse bridge nodes:
	// the bridge must be activated to connect the backbone.
	cfg := DefaultConfig()
	var pts []geom.Point
	for i := 0; i < 9; i++ {
		pts = append(pts, geom.Pt(30+float64(i%3)*20, 30+float64(i/3)*20))
	}
	for i := 0; i < 9; i++ {
		pts = append(pts, geom.Pt(370+float64(i%3)*20, 370+float64(i/3)*20))
	}
	// Bridge chain (each diagonal hop is 99 m < Rc).
	for i := 1; i <= 4; i++ {
		pts = append(pts, geom.Pt(70+float64(i)*70, 70+float64(i)*70))
	}
	res := Select(geom.Square(450), pts, cfg, rand.New(rand.NewSource(2)))
	if c := components(pts, res.Active, commRange); c.count != 1 {
		t.Errorf("backbone has %d components after repair", c.count)
	}
}

func TestVerifyDetectsUncovered(t *testing.T) {
	cfg := DefaultConfig()
	pts := []geom.Point{geom.Pt(50, 50), geom.Pt(300, 300)}
	active := []bool{true, false} // node 1's area uncovered
	if err := Verify(geom.Square(450), pts, active, cfg); err == nil {
		t.Error("Verify should detect the uncovered region")
	}
}

func TestVerifyDetectsPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridStep = 500 // effectively skip the coverage portion
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(400, 400)}
	active := []bool{true, true}
	if err := Verify(geom.Square(450), pts, active, cfg); err == nil {
		t.Error("Verify should detect the partitioned backbone")
	}
}

func TestVerifyLengthMismatch(t *testing.T) {
	cfg := DefaultConfig()
	if err := Verify(geom.Square(10), []geom.Point{{}}, nil, cfg); err == nil {
		t.Error("Verify should reject mismatched lengths")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{{GridStep: 0}, {GridStep: -1}}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func BenchmarkSelect200Nodes(b *testing.B) {
	cfg := DefaultConfig()
	topo := paperTopology(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select(topo.Region, topo.Positions, cfg, rand.New(rand.NewSource(int64(i))))
	}
}
