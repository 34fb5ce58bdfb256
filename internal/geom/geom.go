// Package geom provides the 2-D geometric primitives used throughout the
// MobiQuery simulator: points, vectors, circles, rectangles, linear
// interpolation along paths, and uniform random sampling.
//
// All coordinates are in meters. The package is purely computational and has
// no dependencies on the simulation engine.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the 2-D plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String renders the point with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns the point translated by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for hot-path range comparisons.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Within reports whether q lies within radius r of p (inclusive).
func (p Point) Within(q Point, r float64) bool {
	return p.Dist2(q) <= r*r
}

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
// t outside [0,1] extrapolates along the same line.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Vec is a displacement or velocity in the 2-D plane.
type Vec struct {
	DX, DY float64
}

// V is shorthand for Vec{dx, dy}.
func V(dx, dy float64) Vec { return Vec{DX: dx, DY: dy} }

// Scale returns v multiplied by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.DX * s, v.DY * s} }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.DX, v.DY) }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.DX*w.DX + v.DY*w.DY }

// FromAngle returns the unit vector pointing in direction theta (radians).
func FromAngle(theta float64) Vec {
	return Vec{math.Cos(theta), math.Sin(theta)}
}

// Circle is a disk of radius R centered at C.
type Circle struct {
	C Point
	R float64
}

// Contains reports whether p lies inside or on the circle.
func (c Circle) Contains(p Point) bool { return c.C.Within(p, c.R) }

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the given corners regardless of
// argument order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	return Rect{
		MinX: math.Min(x0, x1), MinY: math.Min(y0, y1),
		MaxX: math.Max(x0, x1), MaxY: math.Max(y0, y1),
	}
}

// Square returns the square [0,side] x [0,side]; the standard deployment
// region shape used by the paper (450 m x 450 m).
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r in square meters.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns the nearest point to p inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.MinX, math.Min(r.MaxX, p.X)),
		Y: math.Max(r.MinY, math.Min(r.MaxY, p.Y)),
	}
}

// UniformPoint samples a point uniformly at random inside r.
func (r Rect) UniformPoint(rng *rand.Rand) Point {
	return Point{
		X: r.MinX + rng.Float64()*r.Width(),
		Y: r.MinY + rng.Float64()*r.Height(),
	}
}

// UniformInDisk samples a point uniformly at random inside the disk of
// radius radius centered at c. It is used for GPS error injection.
func UniformInDisk(rng *rand.Rand, c Point, radius float64) Point {
	// Inverse-CDF sampling: radius must be sqrt-distributed for a uniform
	// density over the disk area.
	r := radius * math.Sqrt(rng.Float64())
	theta := rng.Float64() * 2 * math.Pi
	return Point{c.X + r*math.Cos(theta), c.Y + r*math.Sin(theta)}
}

// Reflect bounces a direction vector off the boundary of r for a mover at p.
// It flips the X component if p is outside the horizontal extent and the Y
// component if outside the vertical extent, returning the adjusted
// direction. Used by the random-direction mobility model.
func (r Rect) Reflect(p Point, dir Vec) Vec {
	out := dir
	if (p.X <= r.MinX && dir.DX < 0) || (p.X >= r.MaxX && dir.DX > 0) {
		out.DX = -out.DX
	}
	if (p.Y <= r.MinY && dir.DY < 0) || (p.Y >= r.MaxY && dir.DY > 0) {
		out.DY = -out.DY
	}
	return out
}
