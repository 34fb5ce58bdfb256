// Package mobility models the mobile user of a spatiotemporal query: ground
// truth trajectories (the random-direction course of the paper's
// evaluation), motion profiles with the paper's (ts, Tv, tg) timing model,
// and the motion-profile generators compared in Section 6 — an oracle, a
// planner-style exact profiler with configurable advance time Ta, and a
// history-based GPS predictor with location error.
package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// Waypoint is a (time, position) sample of a piecewise-linear path.
type Waypoint struct {
	T sim.Time
	P geom.Point
}

// Trajectory is a piecewise-linear path through space. Between waypoints
// position is interpolated linearly; before the first waypoint it clamps,
// and past the last waypoint it extrapolates with the final segment's
// velocity (a motion profile keeps predicting "straight ahead").
type Trajectory struct {
	wps []Waypoint
}

// NewTrajectory builds a trajectory from waypoints, which must be in
// strictly increasing time order.
func NewTrajectory(wps []Waypoint) Trajectory {
	if len(wps) == 0 {
		panic("mobility: trajectory needs at least one waypoint")
	}
	for i := 1; i < len(wps); i++ {
		if wps[i].T <= wps[i-1].T {
			panic(fmt.Sprintf("mobility: waypoint times not increasing at %d", i))
		}
	}
	return Trajectory{wps: append([]Waypoint(nil), wps...)}
}

// LinearPath is a trajectory moving from start at constant velocity v
// (meters/second) over [t0, t1].
func LinearPath(start geom.Point, v geom.Vec, t0, t1 sim.Time) Trajectory {
	if t1 <= t0 {
		panic("mobility: LinearPath needs t1 > t0")
	}
	end := start.Add(v.Scale((t1 - t0).Seconds()))
	return NewTrajectory([]Waypoint{{T: t0, P: start}, {T: t1, P: end}})
}

// Stationary is a trajectory that stays at p from t0 on.
func Stationary(p geom.Point, t0 sim.Time) Trajectory {
	return Trajectory{wps: []Waypoint{{T: t0, P: p}}}
}

// End returns the last waypoint time.
func (tr Trajectory) End() sim.Time { return tr.wps[len(tr.wps)-1].T }

// Waypoints returns a copy of the underlying waypoints.
func (tr Trajectory) Waypoints() []Waypoint {
	return append([]Waypoint(nil), tr.wps...)
}

// segmentAt returns the index of the segment containing t: the largest i
// with wps[i].T <= t, clamped to a valid segment start.
func (tr Trajectory) segmentAt(t sim.Time) int {
	i := sort.Search(len(tr.wps), func(k int) bool { return tr.wps[k].T > t }) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(tr.wps)-1 {
		i = len(tr.wps) - 2
	}
	return i
}

// PosAt returns the position at time t (clamping before the start,
// extrapolating past the end).
func (tr Trajectory) PosAt(t sim.Time) geom.Point {
	if t <= tr.wps[0].T || len(tr.wps) == 1 {
		return tr.wps[0].P
	}
	i := tr.segmentAt(t)
	a, b := tr.wps[i], tr.wps[i+1]
	frac := float64(t-a.T) / float64(b.T-a.T)
	return a.P.Lerp(b.P, frac)
}

// VelAt returns the velocity (m/s) at time t: the containing segment's
// velocity, zero for single-waypoint trajectories, and the final segment's
// velocity past the end.
func (tr Trajectory) VelAt(t sim.Time) geom.Vec {
	if len(tr.wps) == 1 {
		return geom.Vec{}
	}
	i := tr.segmentAt(t)
	a, b := tr.wps[i], tr.wps[i+1]
	return b.P.Sub(a.P).Scale(1 / (b.T - a.T).Seconds())
}

// Slice returns the sub-trajectory covering [t0, t1], with interpolated
// endpoints. t1 must exceed t0.
func (tr Trajectory) Slice(t0, t1 sim.Time) Trajectory {
	if t1 <= t0 {
		panic("mobility: Slice needs t1 > t0")
	}
	out := []Waypoint{{T: t0, P: tr.PosAt(t0)}}
	for _, w := range tr.wps {
		if w.T > t0 && w.T < t1 {
			out = append(out, w)
		}
	}
	out = append(out, Waypoint{T: t1, P: tr.PosAt(t1)})
	return Trajectory{wps: out}
}

// CourseSpec configures the random-direction ground-truth course used in
// the paper's evaluation: the user starts at a region corner and picks a
// new random heading and speed every ChangeInterval, reflecting off region
// boundaries.
type CourseSpec struct {
	Region         geom.Rect
	Start          geom.Point
	SpeedMin       float64 // m/s
	SpeedMax       float64 // m/s
	ChangeInterval time.Duration
	Duration       time.Duration
}

// Validate reports specification errors.
func (s CourseSpec) Validate() error {
	switch {
	case s.Region.Width() <= 0 || s.Region.Height() <= 0:
		return fmt.Errorf("mobility: empty region")
	case s.SpeedMin <= 0 || s.SpeedMax < s.SpeedMin:
		return fmt.Errorf("mobility: invalid speed range [%v, %v]", s.SpeedMin, s.SpeedMax)
	case s.ChangeInterval <= 0:
		return fmt.Errorf("mobility: ChangeInterval must be positive")
	case s.Duration <= 0:
		return fmt.Errorf("mobility: Duration must be positive")
	}
	return nil
}

// Course is a ground-truth user trajectory plus the instants at which the
// motion pattern changed (heading/speed re-draws).
type Course struct {
	Trajectory
	Changes []sim.Time // strictly increasing, excludes t=0
}

// NewRandomCourse generates a course per spec. The same rng state yields
// the same course.
func NewRandomCourse(spec CourseSpec, rng *rand.Rand) Course {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	pos := spec.Region.Clamp(spec.Start)
	wps := []Waypoint{{T: 0, P: pos}}
	var changes []sim.Time
	now := sim.Time(0)
	for now < spec.Duration {
		if now > 0 {
			changes = append(changes, now)
		}
		speed := spec.SpeedMin + rng.Float64()*(spec.SpeedMax-spec.SpeedMin)
		dir := geom.FromAngle(rng.Float64() * 2 * math.Pi).Scale(speed)
		legEnd := now + spec.ChangeInterval
		if legEnd > spec.Duration {
			legEnd = spec.Duration
		}
		pos, now = advanceWithReflection(&wps, spec.Region, pos, dir, now, legEnd)
	}
	return Course{Trajectory: Trajectory{wps: wps}, Changes: changes}
}

// advanceWithReflection walks from pos at velocity v from t0 to t1,
// appending waypoints at each boundary bounce, and returns the final
// position and time.
func advanceWithReflection(wps *[]Waypoint, region geom.Rect, pos geom.Point, v geom.Vec, t0, t1 sim.Time) (geom.Point, sim.Time) {
	now := pos
	t := t0
	for t < t1 {
		remain := (t1 - t).Seconds()
		hit := remain
		// Time to each wall along the current heading.
		if v.DX > 0 {
			hit = math.Min(hit, (region.MaxX-now.X)/v.DX)
		} else if v.DX < 0 {
			hit = math.Min(hit, (region.MinX-now.X)/v.DX)
		}
		if v.DY > 0 {
			hit = math.Min(hit, (region.MaxY-now.Y)/v.DY)
		} else if v.DY < 0 {
			hit = math.Min(hit, (region.MinY-now.Y)/v.DY)
		}
		if hit < 0 {
			hit = 0
		}
		step := sim.Time(hit * float64(time.Second))
		if step <= 0 {
			// On (or within float noise of) a wall: reflect and continue
			// without advancing. If reflection cannot change the heading
			// (float noise placed us just inside the wall), nudge onto it.
			reflected := region.Reflect(now, v)
			if reflected == v {
				now = snapToWall(region, now)
				reflected = region.Reflect(now, v)
			}
			if reflected == v || reflected.Len() == 0 {
				break // degenerate geometry; stop extending this leg
			}
			v = reflected
			continue
		}
		now = region.Clamp(now.Add(v.Scale(hit)))
		t += step
		*wps = append(*wps, Waypoint{T: t, P: now})
		if t < t1 {
			v = region.Reflect(now, v)
		}
	}
	return now, t1
}

// snapToWall moves a point sitting within float noise of a region boundary
// exactly onto it, so Reflect recognizes the wall contact.
func snapToWall(region geom.Rect, p geom.Point) geom.Point {
	const eps = 1e-9
	if p.X-region.MinX < eps {
		p.X = region.MinX
	}
	if region.MaxX-p.X < eps {
		p.X = region.MaxX
	}
	if p.Y-region.MinY < eps {
		p.Y = region.MinY
	}
	if region.MaxY-p.Y < eps {
		p.Y = region.MaxY
	}
	return p
}
