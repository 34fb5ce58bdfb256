package mobility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

func sec(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }

func TestLinearPathPosAt(t *testing.T) {
	tr := LinearPath(geom.Pt(0, 0), geom.V(2, 0), 0, sec(10))
	tests := []struct {
		at   sim.Time
		want geom.Point
	}{
		{0, geom.Pt(0, 0)},
		{sec(5), geom.Pt(10, 0)},
		{sec(10), geom.Pt(20, 0)},
		{sec(15), geom.Pt(30, 0)}, // extrapolates
		{-sec(5), geom.Pt(0, 0)},  // clamps before start
	}
	for _, tt := range tests {
		if got := tr.PosAt(tt.at); got.Dist(tt.want) > 1e-9 {
			t.Errorf("PosAt(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestVelAt(t *testing.T) {
	tr := NewTrajectory([]Waypoint{
		{T: 0, P: geom.Pt(0, 0)},
		{T: sec(10), P: geom.Pt(10, 0)},
		{T: sec(20), P: geom.Pt(10, 30)},
	})
	if got := tr.VelAt(sec(5)); geom.Pt(got.DX, got.DY).Dist(geom.Pt(1, 0)) > 1e-9 {
		t.Errorf("VelAt(5s) = %v, want (1,0)", got)
	}
	if got := tr.VelAt(sec(15)); geom.Pt(got.DX, got.DY).Dist(geom.Pt(0, 3)) > 1e-9 {
		t.Errorf("VelAt(15s) = %v, want (0,3)", got)
	}
	// Past the end: final segment velocity.
	if got := tr.VelAt(sec(100)); geom.Pt(got.DX, got.DY).Dist(geom.Pt(0, 3)) > 1e-9 {
		t.Errorf("VelAt(100s) = %v, want (0,3)", got)
	}
	if got := Stationary(geom.Pt(1, 1), 0).VelAt(sec(5)); got != (geom.Vec{}) {
		t.Errorf("stationary VelAt = %v", got)
	}
}

func TestSlice(t *testing.T) {
	tr := NewTrajectory([]Waypoint{
		{T: 0, P: geom.Pt(0, 0)},
		{T: sec(10), P: geom.Pt(10, 0)},
		{T: sec(20), P: geom.Pt(10, 10)},
	})
	s := tr.Slice(sec(5), sec(15))
	if s.wps[0].T != sec(5) || s.End() != sec(15) {
		t.Fatalf("Slice bounds [%v, %v]", s.wps[0].T, s.End())
	}
	if got := s.PosAt(sec(5)); got.Dist(geom.Pt(5, 0)) > 1e-9 {
		t.Errorf("slice start pos = %v", got)
	}
	if got := s.PosAt(sec(10)); got.Dist(geom.Pt(10, 0)) > 1e-9 {
		t.Errorf("slice keeps interior waypoint: %v", got)
	}
	if got := s.PosAt(sec(15)); got.Dist(geom.Pt(10, 5)) > 1e-9 {
		t.Errorf("slice end pos = %v", got)
	}
}

// TestSliceEdges pins the boundary behavior the prefetch planner leans on:
// slices clamped before the start, slices that end exactly on a waypoint,
// slices entirely past the end (pure extrapolation), and degenerate
// zero-length spatial segments.
func TestSliceEdges(t *testing.T) {
	tr := NewTrajectory([]Waypoint{
		{T: sec(10), P: geom.Pt(0, 0)},
		{T: sec(20), P: geom.Pt(10, 0)},
	})
	// Slicing from before the first waypoint clamps to the start position.
	s := tr.Slice(sec(0), sec(15))
	if got := s.PosAt(sec(5)); got.Dist(geom.Pt(0, 0)) > 1e-9 {
		t.Errorf("pre-start slice should clamp: PosAt(5s) = %v", got)
	}
	// A slice ending exactly on a waypoint keeps strictly increasing times
	// (the interior loop excludes t1 itself) and the interpolated endpoint.
	s = tr.Slice(sec(12), sec(20))
	if s.End() != sec(20) {
		t.Errorf("slice end = %v", s.End())
	}
	wps := s.Waypoints()
	for i := 1; i < len(wps); i++ {
		if wps[i].T <= wps[i-1].T {
			t.Fatalf("slice to a waypoint produced non-increasing times: %+v", wps)
		}
	}
	// A slice entirely past the end extrapolates with the final velocity.
	s = tr.Slice(sec(30), sec(40))
	if got := s.PosAt(sec(40)); got.Dist(geom.Pt(30, 0)) > 1e-9 {
		t.Errorf("past-end slice: PosAt(40s) = %v, want (30, 0)", got)
	}
	// Zero-length spatial segments (a pause) interpolate in place.
	pause := NewTrajectory([]Waypoint{
		{T: 0, P: geom.Pt(5, 5)},
		{T: sec(10), P: geom.Pt(5, 5)},
		{T: sec(20), P: geom.Pt(15, 5)},
	})
	if got := pause.VelAt(sec(5)); got.Len() != 0 {
		t.Errorf("paused segment velocity = %v, want zero", got)
	}
	if got := pause.Slice(sec(2), sec(8)).PosAt(sec(5)); got.Dist(geom.Pt(5, 5)) > 1e-9 {
		t.Errorf("slice inside a pause moved: %v", got)
	}
	// Slice rejects empty windows.
	defer func() {
		if recover() == nil {
			t.Error("Slice(t, t) should panic")
		}
	}()
	tr.Slice(sec(12), sec(12))
}

// TestProfileExpiryEdges pins expiry semantics: prediction keeps
// extrapolating past Expiry (the claim ends, not the math), a zero-advance
// profile has Ta = 0, and the planner-facing zero-Validity convention
// leaves Expiry degenerate rather than panicking.
func TestProfileExpiryEdges(t *testing.T) {
	p := Profile{
		Path:      LinearPath(geom.Pt(0, 0), geom.V(2, 0), 0, sec(10)),
		TS:        0,
		Validity:  10 * time.Second,
		Generated: 0,
	}
	if p.AdvanceTime() != 0 {
		t.Errorf("zero-advance profile Ta = %v", p.AdvanceTime())
	}
	if got := p.PredictAt(p.Expiry() + sec(5)); got.Dist(geom.Pt(30, 0)) > 1e-9 {
		t.Errorf("prediction past expiry = %v, want straight-ahead (30, 0)", got)
	}
	unbounded := Profile{Path: Stationary(geom.Pt(1, 1), 0)}
	if unbounded.Expiry() != unbounded.TS {
		t.Errorf("zero-validity Expiry = %v, want TS", unbounded.Expiry())
	}
}

// TestExactProfilerZeroLengthLeg pins the leg-boundary edge: a motion
// change recorded at the course end makes a zero-length final leg, which
// the profiler must skip without emitting an empty profile.
func TestExactProfilerZeroLengthLeg(t *testing.T) {
	tr := NewTrajectory([]Waypoint{
		{T: 0, P: geom.Pt(0, 0)},
		{T: sec(10), P: geom.Pt(10, 0)},
	})
	c := Course{Trajectory: tr, Changes: []sim.Time{sec(5), sec(10)}}
	ps := ExactProfiler{Course: c, Ta: sec(2)}.Profiles()
	if len(ps) != 2 { // legs [0,5) and [5,10); the zero-length [10,10) is dropped
		t.Fatalf("profiles = %d, want 2 (zero-length leg skipped)", len(ps))
	}
	for _, tp := range ps {
		if tp.Profile.Validity <= 0 {
			t.Errorf("emitted a profile with non-positive validity: %+v", tp.Profile)
		}
	}
}

// TestGPSPredictorExpiryCoversCourse pins the predictor's validity
// bookkeeping: every emitted profile expires strictly after its effective
// time, and the last profile's path still covers the course end (the
// predictor extends the nominal path one sampling period past it).
func TestGPSPredictorExpiryCoversCourse(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(11)))
	ps := GPSPredictor{Course: c, Sampling: 8 * time.Second, Err: 5, RNG: rand.New(rand.NewSource(2))}.Profiles()
	if len(ps) == 0 {
		t.Fatal("no profiles")
	}
	for i, tp := range ps {
		if tp.Profile.Validity <= 0 {
			t.Fatalf("profile %d validity %v", i, tp.Profile.Validity)
		}
		if tp.Profile.Expiry() <= tp.Profile.TS {
			t.Fatalf("profile %d expires at %v, before its ts %v", i, tp.Profile.Expiry(), tp.Profile.TS)
		}
	}
	last := ps[len(ps)-1].Profile
	if last.Expiry() < c.End() {
		t.Errorf("last profile expires at %v, before the course end %v", last.Expiry(), c.End())
	}
}

// TestGPSPredictorLateCourseChange pins detection at the last leg boundary:
// a motion change inside the final sampling window still yields a profile
// whose ts never exceeds the course end.
func TestGPSPredictorLateCourseChange(t *testing.T) {
	spec := courseSpec()
	spec.Duration = 84 * time.Second // not a multiple of the 8 s sampling
	c := NewRandomCourse(spec, rand.New(rand.NewSource(12)))
	ps := GPSPredictor{Course: c, Sampling: 8 * time.Second, Err: 0, RNG: rand.New(rand.NewSource(3))}.Profiles()
	for i, tp := range ps {
		if tp.Profile.TS > c.End() {
			t.Errorf("profile %d effective at %v, past the course end %v", i, tp.Profile.TS, c.End())
		}
		if tp.Deliver != tp.Profile.Generated {
			t.Errorf("profile %d delivered at %v but generated at %v", i, tp.Deliver, tp.Profile.Generated)
		}
	}
}

func TestNewTrajectoryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing waypoints should panic")
		}
	}()
	NewTrajectory([]Waypoint{{T: sec(1)}, {T: sec(1)}})
}

func courseSpec() CourseSpec {
	return CourseSpec{
		Region:         geom.Square(450),
		Start:          geom.Pt(0, 0),
		SpeedMin:       3,
		SpeedMax:       5,
		ChangeInterval: 50 * time.Second,
		Duration:       400 * time.Second,
	}
}

func TestRandomCourseStaysInRegion(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(seed)))
		for dt := sim.Time(0); dt <= sec(400); dt += sec(1) {
			p := c.PosAt(dt)
			if !courseSpec().Region.Contains(p) {
				t.Fatalf("seed %d: position %v at %v outside region", seed, p, dt)
			}
		}
	}
}

func TestRandomCourseSpeedWithinRange(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(3)))
	for dt := sec(1); dt < sec(399); dt += sec(7) {
		v := c.VelAt(dt).Len()
		if v < 2.99 || v > 5.01 {
			t.Errorf("speed %v at %v outside [3, 5]", v, dt)
		}
	}
}

func TestRandomCourseChangeTimes(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(4)))
	// 400s duration, change every 50s: changes at 50..350.
	if len(c.Changes) != 7 {
		t.Fatalf("changes = %v, want 7 instants", c.Changes)
	}
	for i, ch := range c.Changes {
		if ch != sec(50*float64(i+1)) {
			t.Errorf("change %d at %v, want %v", i, ch, sec(50*float64(i+1)))
		}
	}
}

func TestRandomCourseDeterministic(t *testing.T) {
	a := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(9)))
	b := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(9)))
	for dt := sim.Time(0); dt <= sec(400); dt += sec(13) {
		if a.PosAt(dt) != b.PosAt(dt) {
			t.Fatal("same seed produced different courses")
		}
	}
}

func TestQuickCourseContinuity(t *testing.T) {
	// Positions never jump by more than max speed times the step.
	f := func(seed int64) bool {
		c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(seed)))
		prev := c.PosAt(0)
		for dt := sec(0.5); dt <= sec(400); dt += sec(0.5) {
			p := c.PosAt(dt)
			if p.Dist(prev) > 5*0.5+1e-6 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestProfileTimingParams(t *testing.T) {
	p := Profile{
		Path:      LinearPath(geom.Pt(0, 0), geom.V(1, 0), sec(10), sec(30)),
		TS:        sec(10),
		Validity:  20 * time.Second,
		Generated: sec(4),
	}
	if got := p.AdvanceTime(); got != 6*time.Second {
		t.Errorf("AdvanceTime = %v, want 6s", got)
	}
	if got := p.Expiry(); got != sec(30) {
		t.Errorf("Expiry = %v, want 30s", got)
	}
	if got := p.PredictAt(sec(20)); got.Dist(geom.Pt(10, 0)) > 1e-9 {
		t.Errorf("PredictAt = %v", got)
	}
}

func TestOracleProfiler(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(5)))
	ps := OracleProfiler{Course: c}.Profiles()
	if len(ps) != 1 || ps[0].Deliver != 0 {
		t.Fatalf("oracle profiles = %+v", ps)
	}
	// The oracle's prediction is exact everywhere.
	for dt := sec(1); dt < sec(400); dt += sec(37) {
		if ps[0].Profile.PredictAt(dt).Dist(c.PosAt(dt)) > 1e-9 {
			t.Errorf("oracle mispredicts at %v", dt)
		}
	}
}

func TestExactProfilerPositiveTa(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(6)))
	ps := ExactProfiler{Course: c, Ta: 6 * time.Second}.Profiles()
	if len(ps) != 8 { // leg 0 plus 7 changes
		t.Fatalf("profiles = %d, want 8", len(ps))
	}
	if ps[0].Deliver != 0 {
		t.Errorf("first profile delivered at %v, want 0 (clamped)", ps[0].Deliver)
	}
	// Subsequent profiles arrive Ta before their legs start.
	for _, tp := range ps[1:] {
		if tp.Profile.TS-tp.Deliver != sec(6) {
			t.Errorf("profile ts %v delivered %v: advance != 6s", tp.Profile.TS, tp.Deliver)
		}
		// Exact within the leg.
		mid := tp.Profile.TS + sec(25)
		if tp.Profile.PredictAt(mid).Dist(c.PosAt(mid)) > 1e-9 {
			t.Errorf("exact profile mispredicts its own leg at %v", mid)
		}
	}
}

func TestExactProfilerNegativeTa(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(7)))
	ps := ExactProfiler{Course: c, Ta: -8 * time.Second}.Profiles()
	for _, tp := range ps[1:] {
		if tp.Deliver-tp.Profile.TS != sec(8) {
			t.Errorf("negative Ta: profile ts %v delivered %v", tp.Profile.TS, tp.Deliver)
		}
	}
}

func TestGPSPredictorErrorFree(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(8)))
	ps := GPSPredictor{Course: c, Sampling: 8 * time.Second, Err: 0, RNG: rand.New(rand.NewSource(1))}.Profiles()
	if len(ps) == 0 {
		t.Fatal("no profiles")
	}
	// Error-free: exactly one profile per straight stretch (the first fix
	// pair), reissued only after changes/bounces — never on noise.
	if len(ps) > 3*len(c.Changes)+3 {
		t.Errorf("error-free predictor reissued too often: %d profiles for %d changes",
			len(ps), len(c.Changes))
	}
	for _, tp := range ps {
		if tp.Deliver != tp.Profile.TS {
			t.Errorf("GPS profile should take effect at delivery")
		}
		// Error-free samples on a straight stretch: prediction matches
		// truth until the first change or boundary bounce after TS (the
		// straight-line predictor cannot know about walls). A bounce inside
		// the sampling window itself corrupts the velocity estimate, so
		// skip those. Profiles issued mid-stretch track the current leg.
		isChange := func(at sim.Time) bool {
			for _, ch := range c.Changes {
				if at == ch {
					return true
				}
			}
			return false
		}
		sampledAcrossBounce := false
		checkUntil := tp.Profile.Expiry()
		for _, ch := range c.Changes {
			if ch > tp.Profile.TS-sec(8) && ch <= tp.Profile.TS {
				sampledAcrossBounce = true // velocity estimate spans a change
				break
			}
			if ch > tp.Profile.TS && ch < checkUntil {
				checkUntil = ch
				break
			}
		}
		for _, w := range c.Waypoints() {
			if isChange(w.T) {
				continue
			}
			if w.T > tp.Profile.TS-sec(8) && w.T <= tp.Profile.TS {
				sampledAcrossBounce = true
				break
			}
			if w.T > tp.Profile.TS && w.T < checkUntil {
				checkUntil = w.T // first bounce inside the leg
				break
			}
		}
		if sampledAcrossBounce {
			continue
		}
		for at := tp.Profile.TS; at < checkUntil; at += sec(5) {
			if tp.Profile.PredictAt(at).Dist(c.PosAt(at)) > 1e-6 {
				t.Errorf("error-free GPS mispredicts at %v", at)
				break
			}
		}
	}
}

func TestGPSPredictorErrorBounded(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(9)))
	ps := GPSPredictor{Course: c, Sampling: 8 * time.Second, Err: 10, RNG: rand.New(rand.NewSource(2))}.Profiles()
	if len(ps) == 0 {
		t.Fatal("no profiles")
	}
	for _, tp := range ps {
		// At its effective time the prediction is within GPS error of truth.
		d := tp.Profile.PredictAt(tp.Profile.TS).Dist(c.PosAt(tp.Profile.TS))
		if d > 10+1e-9 {
			t.Errorf("initial prediction error %v m exceeds GPS error bound", d)
		}
	}
}

func TestGPSPredictorDivergenceMonitor(t *testing.T) {
	// On a long straight course with noisy fixes, the predictor must
	// reissue profiles when velocity-estimate error accumulates, keeping
	// the prediction error bounded near the threshold.
	course := Course{Trajectory: LinearPath(geom.Pt(0, 225), geom.V(4, 0), 0, sec(400))}
	ps := GPSPredictor{Course: course, Sampling: 8 * time.Second, Err: 10, RNG: rand.New(rand.NewSource(5))}.Profiles()
	if len(ps) < 2 {
		t.Fatalf("divergence monitor never reissued: %d profiles", len(ps))
	}
	// Between consecutive profiles, prediction error at the handover point
	// stays within threshold + noise.
	for i := 1; i < len(ps); i++ {
		at := ps[i].Deliver
		d := ps[i-1].Profile.PredictAt(at).Dist(course.PosAt(at))
		if d > (20+10)+10+4*8+1e-9 { // threshold + reading noise + one sample of drift
			t.Errorf("divergence %v m at reissue %d exceeds plausible bound", d, i)
		}
	}
}

func TestGPSPredictorDeterministicWithSeed(t *testing.T) {
	c := NewRandomCourse(courseSpec(), rand.New(rand.NewSource(10)))
	a := GPSPredictor{Course: c, Sampling: 8 * time.Second, Err: 5, RNG: rand.New(rand.NewSource(3))}.Profiles()
	b := GPSPredictor{Course: c, Sampling: 8 * time.Second, Err: 5, RNG: rand.New(rand.NewSource(3))}.Profiles()
	if len(a) != len(b) {
		t.Fatal("profile counts differ")
	}
	for i := range a {
		if a[i].Profile.PredictAt(sec(100)) != b[i].Profile.PredictAt(sec(100)) {
			t.Fatal("same seed produced different GPS profiles")
		}
	}
}

func TestCourseShortLastLeg(t *testing.T) {
	// Duration not a multiple of the change interval: last leg truncated.
	spec := courseSpec()
	spec.Duration = 120 * time.Second
	c := NewRandomCourse(spec, rand.New(rand.NewSource(11)))
	if c.End() != sec(120) {
		t.Errorf("End = %v, want 120s", c.End())
	}
	if len(c.Changes) != 2 {
		t.Errorf("changes = %v, want [50s 100s]", c.Changes)
	}
}

func TestReflectionKeepsDistanceBudget(t *testing.T) {
	// Even with reflections, total travel per leg equals speed * time.
	spec := courseSpec()
	spec.Start = geom.Pt(445, 445) // near a corner to force bounces
	c := NewRandomCourse(spec, rand.New(rand.NewSource(12)))
	wps := c.Waypoints()
	legDist := 0.0
	legStart := sim.Time(0)
	var speed float64
	for i := 1; i < len(wps); i++ {
		seg := wps[i].P.Dist(wps[i-1].P)
		dt := (wps[i].T - wps[i-1].T).Seconds()
		if dt <= 0 {
			t.Fatal("non-increasing waypoints")
		}
		segSpeed := seg / dt
		if speed == 0 {
			speed = segSpeed
		}
		legDist += seg
		if wps[i].T >= legStart+sec(50) || i == len(wps)-1 {
			wantDist := speed * (wps[i].T - legStart).Seconds()
			if math.Abs(legDist-wantDist) > 1e-6*wantDist+1e-9 {
				t.Fatalf("leg ending %v traveled %v, want %v", wps[i].T, legDist, wantDist)
			}
			legStart = wps[i].T
			legDist = 0
			speed = 0
		}
	}
}
