package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2), Pt(1, 2), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); !almostEqual(got, tt.want*tt.want, 1e-9) {
				t.Errorf("Dist2(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
			}
		})
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Constrain to a sane coordinate range to avoid overflow noise.
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		d := a.Dist(b)
		return almostEqual(d*d, a.Dist2(b), 1e-6*(1+d*d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithin(t *testing.T) {
	p := Pt(0, 0)
	if !p.Within(Pt(3, 4), 5) {
		t.Error("point at distance 5 should be within radius 5 (inclusive)")
	}
	if p.Within(Pt(3, 4), 4.999) {
		t.Error("point at distance 5 should not be within radius 4.999")
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
	// Extrapolation beyond the segment.
	if got := p.Lerp(q, 2); got != Pt(20, 40) {
		t.Errorf("Lerp(2) = %v, want (20,40)", got)
	}
}

func TestVecOps(t *testing.T) {
	v := V(3, 4)
	if got := v.Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := v.Scale(2); got != V(6, 8) {
		t.Errorf("Scale(2) = %v, want (6,8)", got)
	}
	if got := v.Dot(V(1, 0)); got != 3 {
		t.Errorf("Dot = %v, want 3", got)
	}
}

func TestFromAngleRoundTrip(t *testing.T) {
	for _, theta := range []float64{0, math.Pi / 4, math.Pi / 2, -math.Pi / 2, 3} {
		v := FromAngle(theta)
		if !almostEqual(v.Len(), 1, 1e-12) {
			t.Errorf("FromAngle(%v) not unit length", theta)
		}
		if got := math.Atan2(v.DY, v.DX); !almostEqual(got, theta, 1e-12) {
			t.Errorf("direction of FromAngle(%v) = %v", theta, got)
		}
	}
}

func TestCircle(t *testing.T) {
	c := Circle{C: Pt(0, 0), R: 10}
	if !c.Contains(Pt(10, 0)) {
		t.Error("boundary point should be contained")
	}
	if c.Contains(Pt(10.01, 0)) {
		t.Error("outside point should not be contained")
	}
}

func TestRect(t *testing.T) {
	r := NewRect(10, 20, 0, 5)
	if r != (Rect{0, 5, 10, 20}) {
		t.Fatalf("NewRect did not normalize corners: %+v", r)
	}
	if r.Width() != 10 || r.Height() != 15 {
		t.Errorf("Width/Height = %v/%v, want 10/15", r.Width(), r.Height())
	}
	if r.Area() != 150 {
		t.Errorf("Area = %v, want 150", r.Area())
	}
	if !r.Contains(Pt(0, 5)) || !r.Contains(Pt(10, 20)) {
		t.Error("rect should contain its corners")
	}
	if r.Contains(Pt(-0.1, 10)) {
		t.Error("rect should not contain points outside")
	}
	if got := r.Clamp(Pt(-5, 100)); got != Pt(0, 20) {
		t.Errorf("Clamp = %v, want (0,20)", got)
	}
}

func TestSquare(t *testing.T) {
	s := Square(450)
	if s.Width() != 450 || s.Height() != 450 {
		t.Errorf("Square(450) = %+v", s)
	}
	if !s.Contains(Pt(0, 0)) || !s.Contains(Pt(450, 450)) {
		t.Error("square should contain its corners")
	}
}

func TestUniformPointInRect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRect(5, 10, 15, 30)
	for i := 0; i < 1000; i++ {
		p := r.UniformPoint(rng)
		if !r.Contains(p) {
			t.Fatalf("sample %v outside rect %+v", p, r)
		}
	}
}

func TestUniformInDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := Pt(100, 100)
	const radius = 10.0
	inner := 0
	const n = 20000
	for i := 0; i < n; i++ {
		p := UniformInDisk(rng, c, radius)
		if !c.Within(p, radius) {
			t.Fatalf("sample %v outside disk", p)
		}
		if c.Within(p, radius/2) {
			inner++
		}
	}
	// Uniform density: inner disk of half radius holds one quarter of the
	// samples in expectation.
	frac := float64(inner) / n
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("inner-disk fraction = %v, want about 0.25", frac)
	}
}

func TestReflect(t *testing.T) {
	r := Square(100)
	tests := []struct {
		name string
		p    Point
		dir  Vec
		want Vec
	}{
		{"interior unchanged", Pt(50, 50), V(1, 1), V(1, 1)},
		{"east wall flips x", Pt(100, 50), V(1, 0), V(-1, 0)},
		{"west wall flips x", Pt(0, 50), V(-1, 0.5), V(1, 0.5)},
		{"north wall flips y", Pt(50, 100), V(0.5, 1), V(0.5, -1)},
		{"corner flips both", Pt(100, 100), V(1, 1), V(-1, -1)},
		{"moving away unchanged", Pt(100, 50), V(-1, 0), V(-1, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Reflect(tt.p, tt.dir); got != tt.want {
				t.Errorf("Reflect(%v, %v) = %v, want %v", tt.p, tt.dir, got, tt.want)
			}
		})
	}
}
