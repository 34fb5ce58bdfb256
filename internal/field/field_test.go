package field

import (
	"math"
	"testing"
	"time"

	"mobiquery/internal/geom"
)

func TestUniform(t *testing.T) {
	f := Uniform{Value: 21.5}
	if got := f.Sample(geom.Pt(1, 2), 0); got != 21.5 {
		t.Errorf("Sample = %v", got)
	}
	if got := f.Sample(geom.Pt(400, 400), time.Hour); got != 21.5 {
		t.Errorf("Sample = %v", got)
	}
}

func TestGradient(t *testing.T) {
	f := Gradient{Origin: geom.Pt(0, 0), Slope: geom.V(0.1, 0), Base: 20}
	if got := f.Sample(geom.Pt(0, 0), 0); got != 20 {
		t.Errorf("base = %v", got)
	}
	if got := f.Sample(geom.Pt(100, 55), 0); math.Abs(got-30) > 1e-12 {
		t.Errorf("Sample(100,55) = %v, want 30", got)
	}
	if got := f.Sample(geom.Pt(-100, 0), 0); math.Abs(got-10) > 1e-12 {
		t.Errorf("Sample(-100,0) = %v, want 10", got)
	}
}

func TestGaussianPlumePeakAndDecay(t *testing.T) {
	f := GaussianPlume{Center: geom.Pt(100, 100), Amplitude: 500, Sigma: 30}
	if got := f.Sample(geom.Pt(100, 100), 0); got != 500 {
		t.Errorf("peak = %v, want 500", got)
	}
	near := f.Sample(geom.Pt(110, 100), 0)
	far := f.Sample(geom.Pt(200, 100), 0)
	if !(near < 500 && far < near) {
		t.Errorf("plume not decaying: near=%v far=%v", near, far)
	}
	// One sigma out: amplitude * exp(-0.5).
	want := 500 * math.Exp(-0.5)
	if got := f.Sample(geom.Pt(130, 100), 0); math.Abs(got-want) > 1e-9 {
		t.Errorf("1-sigma = %v, want %v", got, want)
	}
}

func TestGaussianPlumeDrift(t *testing.T) {
	f := GaussianPlume{Center: geom.Pt(0, 0), Amplitude: 100, Sigma: 10, Drift: geom.V(2, 0)}
	// After 50s the peak has moved to x=100.
	if got := f.Sample(geom.Pt(100, 0), 50*time.Second); got != 100 {
		t.Errorf("drifted peak = %v, want 100", got)
	}
	if got := f.Sample(geom.Pt(0, 0), 50*time.Second); got >= 1 {
		t.Errorf("old center still hot: %v", got)
	}
}

func TestFunc(t *testing.T) {
	f := Func(func(p geom.Point, t2 time.Duration) float64 { return p.X + t2.Seconds() })
	if got := f.Sample(geom.Pt(3, 0), 2*time.Second); got != 5 {
		t.Errorf("Func = %v", got)
	}
}
