package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// Profile is a motion profile per Section 4.1.2 of the paper: a predicted
// path annotated with the three timing parameters (ts, Tv, tg).
type Profile struct {
	// Path predicts the user's position from TS onward; past its last
	// waypoint it extrapolates with the final velocity.
	Path Trajectory
	// TS is when the profile takes effect (ts).
	TS sim.Time
	// Validity is the interval the prediction is claimed to hold (Tv).
	Validity time.Duration
	// Generated is when the profile was created (tg).
	Generated sim.Time
	// Version orders profiles; a higher version supersedes lower ones.
	Version int
}

// AdvanceTime returns Ta = ts - tg: positive when the profile is available
// before it takes effect (a motion planner), negative when it arrives after
// the fact (a history-based predictor).
func (p Profile) AdvanceTime() time.Duration { return p.TS - p.Generated }

// Expiry returns ts + Tv.
func (p Profile) Expiry() sim.Time { return p.TS + p.Validity }

// PredictAt returns the predicted user position at time t.
func (p Profile) PredictAt(t sim.Time) geom.Point { return p.Path.PosAt(t) }

// TimedProfile pairs a profile with the instant the proxy receives it.
type TimedProfile struct {
	Deliver sim.Time
	Profile Profile
}

// Profiler produces the sequence of motion profiles the proxy will receive
// over a run. Profiles are precomputed — they depend only on the course and
// the profiler's own randomness — which keeps runs deterministic.
type Profiler interface {
	// Profiles returns profiles ordered by delivery time.
	Profiles() []TimedProfile
}

// OracleProfiler delivers a single exact profile of the entire course at
// time zero: the "accurate motion profiles" setting of Section 6.2.
type OracleProfiler struct {
	Course Course
}

// Profiles implements Profiler.
func (o OracleProfiler) Profiles() []TimedProfile {
	return []TimedProfile{{
		Deliver: 0,
		Profile: Profile{
			Path:      o.Course.Trajectory,
			TS:        0,
			Validity:  o.Course.End(),
			Generated: 0,
			Version:   1,
		},
	}}
}

// ExactProfiler models the Section 6.3 "advance time" experiments: at every
// motion change the proxy receives an exact profile of the new leg, Ta
// before the change occurs (Ta < 0 means after). This matches a motion
// planner for Ta > 0 and an idealized error-free predictor for Ta < 0.
type ExactProfiler struct {
	Course Course
	Ta     time.Duration
}

// Profiles implements Profiler.
func (e ExactProfiler) Profiles() []TimedProfile {
	legs := legStarts(e.Course)
	out := make([]TimedProfile, 0, len(legs))
	for i, ts := range legs {
		legEnd := e.Course.End()
		if i+1 < len(legs) {
			legEnd = legs[i+1]
		}
		if legEnd <= ts {
			continue
		}
		deliver := ts - e.Ta
		if deliver < 0 {
			deliver = 0
		}
		out = append(out, TimedProfile{
			Deliver: deliver,
			Profile: Profile{
				Path:      e.Course.Slice(ts, legEnd),
				TS:        ts,
				Validity:  legEnd - ts,
				Generated: deliver,
				Version:   i + 1,
			},
		})
	}
	return out
}

// GPSPredictor models the Section 4.1.1 history-based motion predictor used
// in the Section 6.3 "location error" experiments. The proxy samples GPS
// every Sampling seconds, each reading carrying a uniform error within a
// disk of radius Err meters. Whenever the latest reading diverges from the
// active profile's prediction by more than Threshold (or no profile exists
// yet), it estimates a velocity from the last two readings and issues a new
// straight-line profile — so a motion change is detected within roughly one
// sampling period (the paper's "provided to MQ-JIT 8 s after a motion
// change occurs"), and drift during long straight legs is also corrected.
type GPSPredictor struct {
	Course   Course
	Sampling time.Duration // GPS sampling period delta (paper: 8 s)
	Err      float64       // max location error in meters (paper: 5 or 10)
	// Threshold is the divergence (m) that triggers a new profile; zero
	// selects a default that stays above the GPS noise floor.
	Threshold float64
	RNG       *rand.Rand
}

// DefaultThreshold returns the re-profiling divergence threshold a
// GPSPredictor with the given error radius uses when Threshold is zero:
// re-profiling on pure measurement noise is wasted warmup, so the default
// stays above the worst-case reading disagreement. Exported so error
// models built on the predictor (corridor inflation, experiment bounds)
// share one definition.
func DefaultThreshold(err float64) float64 { return 20 + err }

// Profiles implements Profiler.
func (g GPSPredictor) Profiles() []TimedProfile {
	if g.Sampling <= 0 {
		panic(fmt.Sprintf("mobility: GPS sampling period %v must be positive", g.Sampling))
	}
	if g.Err < 0 {
		panic("mobility: GPS error must be non-negative")
	}
	threshold := g.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold(g.Err)
	}
	var out []TimedProfile
	var cur Profile
	haveProfile := false
	var prevT sim.Time
	var prevP geom.Point
	havePrev := false
	version := 0
	for t := sim.Time(0); t <= g.Course.End(); t += sim.Time(g.Sampling) {
		r := g.reading(t)
		diverged := !haveProfile || r.Dist(cur.PredictAt(t)) > threshold
		if diverged && havePrev {
			vel := r.Sub(prevP).Scale(1 / (t - prevT).Seconds())
			version++
			// The path nominally runs to the session end; PredictAt
			// extrapolates past it with the same velocity regardless.
			end := g.Course.End() + sim.Time(g.Sampling)
			if end <= t {
				end = t + sim.Time(g.Sampling)
			}
			cur = Profile{
				Path:      LinearPath(r, vel, t, end),
				TS:        t,
				Validity:  end - t,
				Generated: t,
				Version:   version,
			}
			haveProfile = true
			out = append(out, TimedProfile{Deliver: t, Profile: cur})
		}
		prevT, prevP, havePrev = t, r, true
	}
	return out
}

// reading samples the true position at t with GPS error.
func (g GPSPredictor) reading(t sim.Time) geom.Point {
	p := g.Course.PosAt(t)
	if g.Err <= 0 {
		return p
	}
	return geom.UniformInDisk(g.RNG, p, g.Err)
}

// legStarts returns the start instants of every motion leg, including 0.
func legStarts(c Course) []sim.Time {
	out := make([]sim.Time, 0, len(c.Changes)+1)
	out = append(out, 0)
	out = append(out, c.Changes...)
	return out
}
