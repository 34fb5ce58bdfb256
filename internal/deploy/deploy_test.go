package deploy

import (
	"math"
	"math/rand"
	"testing"

	"mobiquery/internal/geom"
)

func TestUniformPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	region := geom.Square(450)
	topo := Uniform(region, 200, rng)
	if len(topo.Positions) != 200 {
		t.Fatalf("%d positions, want 200", len(topo.Positions))
	}
	for i, p := range topo.Positions {
		if !region.Contains(p) {
			t.Fatalf("node %d at %v outside region", i, p)
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(geom.Square(450), 50, rand.New(rand.NewSource(5)))
	b := Uniform(geom.Square(450), 50, rand.New(rand.NewSource(5)))
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatal("same seed produced different topologies")
		}
	}
}

func TestUniformZeroNodes(t *testing.T) {
	topo := Uniform(geom.Square(450), 0, rand.New(rand.NewSource(1)))
	if len(topo.Positions) != 0 {
		t.Errorf("%d positions, want 0", len(topo.Positions))
	}
}

func TestUniformNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative count should panic")
		}
	}()
	Uniform(geom.Square(450), -1, rand.New(rand.NewSource(1)))
}

func TestDensity(t *testing.T) {
	topo := Uniform(geom.Square(450), 200, rand.New(rand.NewSource(1)))
	want := 200.0 / (450 * 450)
	if got := topo.Density(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Density = %v, want %v", got, want)
	}
}

func TestSuggestPickupRadius(t *testing.T) {
	topo := Uniform(geom.Square(450), 200, rand.New(rand.NewSource(1)))
	rp := SuggestPickupRadius(topo, 0.3, 0.9)
	if rp < 20 || rp > 120 {
		t.Errorf("Rp = %.1f m, want a plausible anycast radius", rp)
	}
	// Higher confidence needs a larger radius.
	if SuggestPickupRadius(topo, 0.3, 0.99) <= rp {
		t.Error("higher confidence should give larger Rp")
	}
	// Denser backbone needs a smaller radius.
	if SuggestPickupRadius(topo, 0.6, 0.9) >= rp {
		t.Error("denser backbone should give smaller Rp")
	}
}

func TestSuggestPickupRadiusPanics(t *testing.T) {
	topo := Uniform(geom.Square(450), 10, rand.New(rand.NewSource(1)))
	for _, args := range [][2]float64{{0, 0.9}, {0.3, 0}, {0.3, 1}} {
		func() {
			defer func() { _ = recover() }()
			SuggestPickupRadius(topo, args[0], args[1])
			t.Errorf("SuggestPickupRadius(%v) should panic", args)
		}()
	}
}
