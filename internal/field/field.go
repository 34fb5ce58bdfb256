// Package field provides synthetic scalar sensor fields (temperature,
// gas concentration, ...) that nodes sample when answering queries. The
// MobiQuery protocol is agnostic to sensor semantics; these fields give the
// examples and experiments physically meaningful values, e.g. a drifting
// Gaussian hot spot standing in for the paper's wild-fire scenario.
package field

import (
	"math"

	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// Field yields a scalar sensor reading at any point and time.
type Field interface {
	Sample(p geom.Point, t sim.Time) float64
}

// Uniform is a constant field.
type Uniform struct {
	Value float64
}

// Sample implements Field.
func (u Uniform) Sample(geom.Point, sim.Time) float64 { return u.Value }

// Gradient is a planar ramp: Base plus Slope dotted with the offset from
// Origin. Useful for terrain-like data.
type Gradient struct {
	Origin geom.Point
	Slope  geom.Vec // units per meter
	Base   float64
}

// Sample implements Field.
func (g Gradient) Sample(p geom.Point, _ sim.Time) float64 {
	return g.Base + g.Slope.Dot(p.Sub(g.Origin))
}

// GaussianPlume is a bell-shaped hot spot of the given Amplitude and width
// Sigma whose center drifts at Drift meters/second — a toy fire front.
type GaussianPlume struct {
	Center    geom.Point
	Amplitude float64
	Sigma     float64
	Drift     geom.Vec
}

// Sample implements Field.
func (g GaussianPlume) Sample(p geom.Point, t sim.Time) float64 {
	c := g.Center.Add(g.Drift.Scale(t.Seconds()))
	d2 := p.Dist2(c)
	return g.Amplitude * math.Exp(-d2/(2*g.Sigma*g.Sigma))
}

// Func adapts a plain function to the Field interface.
type Func func(p geom.Point, t sim.Time) float64

// Sample implements Field.
func (f Func) Sample(p geom.Point, t sim.Time) float64 { return f(p, t) }
