package mobiquery

// Session-path tests of QuerySpec.Corridor, which the service validates and
// otherwise ignores: a spec with a corridor streams exactly what the same
// spec without one streams, at any engine sizing, and is refused where it
// always was. Also the profile sources' own contracts: PlannedMotion
// follows its course and re-plans once per leg, and GPSPredictedMotion
// refuses bad configurations.

import (
	"context"
	"testing"
	"time"
)

// corridorSpec is prefetchSpec plus a corridor of lookahead boundaries under
// a small error bound.
func corridorSpec(lookahead int) QuerySpec {
	spec := prefetchSpec(JITStrategy())
	spec.Corridor = CorridorSpec{Lookahead: lookahead, ErrorModel: ErrorModel{Base: 2}}
	return spec
}

// TestCorridorWarmServesIdenticalResults pins that a corridor changes
// nothing a subscriber sees: JIT subscriptions over PlannedMotion's exact
// per-leg profiles and over GPSPredictedMotion's noisy ones, each with and
// without a corridor, stream equal results field for field — CorridorHit
// included, never set — and equal PrefetchStats, at Workers 1 and 4. Every
// period is classed planned; the corridor class stays 0 in the metrics. The
// legs outlast the equation-10 margin, so plans serve prefetched readings.
func TestCorridorWarmServesIdenticalResults(t *testing.T) {
	course := CourseConfig{Seed: 7, RegionSide: 450, Start: Pt(220, 220), SpeedMin: 3, SpeedMax: 5,
		ChangeInterval: 10 * time.Second, Duration: 90 * time.Second}
	planned, err := PlannedMotion(course)
	if err != nil {
		t.Fatal(err)
	}
	gps, err := GPSPredictedMotion(course, GPSConfig{Seed: 11, Sampling: 2 * time.Second, Error: 5})
	if err != nil {
		t.Fatal(err)
	}
	type stream struct {
		results []QueryResult
		stats   PrefetchStats
	}
	run := func(src ProfileSource, workers int, corridor bool) stream {
		nc := sleepyNetwork()
		nc.Service = ServiceConfig{Workers: workers}
		svc, err := Open(context.Background(), nc, WithResultBuffer(128))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		spec := prefetchSpec(JITStrategy())
		if corridor {
			spec = corridorSpec(3)
		}
		sub, err := svc.Subscribe(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 90; i++ {
			if err := svc.Advance(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		st, ok := sub.PrefetchStats()
		if !ok {
			t.Fatal("JIT subscription has no prefetch stats")
		}
		class := func(c string) uint64 {
			return svc.Metrics().Counter("mobiquery_periods_evaluated_total", `class="`+c+`"`, "").Load()
		}
		if n, plan := class("corridor"), class("planned"); n != 0 || plan != 90 {
			t.Fatalf("workers=%d corridor=%v: %d corridor and %d planned periods, want 0 and 90", workers, corridor, n, plan)
		}
		return stream{drain(sub), st}
	}
	for _, m := range []struct {
		name string
		src  ProfileSource
	}{{"planned", planned}, {"gps", gps}} {
		ref := run(m.src, 1, false)
		if len(ref.results) != 90 || ref.stats.Served == 0 || ref.stats.Replans == 0 {
			t.Fatalf("%s: %d results, ledger %+v; want 90 results, re-planned and served in part from prefetch", m.name, len(ref.results), ref.stats)
		}
		for _, workers := range []int{1, 4} {
			for _, corridor := range []bool{false, true} {
				got := run(m.src, workers, corridor)
				if got.stats != ref.stats {
					t.Errorf("%s workers=%d corridor=%v: stats %+v, want %+v", m.name, workers, corridor, got.stats, ref.stats)
				}
				if len(got.results) != len(ref.results) {
					t.Fatalf("%s workers=%d corridor=%v: %d results, want %d", m.name, workers, corridor, len(got.results), len(ref.results))
				}
				for i := range got.results {
					if got.results[i] != ref.results[i] {
						t.Fatalf("%s workers=%d corridor=%v: period %d diverged:\n got %+v\nwant %+v", m.name, workers, corridor, i+1, got.results[i], ref.results[i])
					}
				}
			}
		}
	}
}

// TestCorridorLookaheadZeroIsDisabled pins the zero corridor on a motion
// source whose profile the service synthesizes: a spec with
// Corridor.Lookahead 0 behaves exactly like one without a corridor — same
// results, same ledger.
func TestCorridorLookaheadZeroIsDisabled(t *testing.T) {
	run := func(spec QuerySpec) ([]QueryResult, PrefetchStats) {
		svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(64))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		sub, err := svc.Subscribe(context.Background(), spec, LinearMotion(Pt(150, 250), 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := svc.Advance(300 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		st, _ := sub.PrefetchStats()
		return drain(sub), st
	}
	zero := corridorSpec(0)
	zero.Corridor.ErrorModel = ErrorModel{} // lookahead 0 ignores the model
	gotR, gotS := run(zero)
	wantR, wantS := run(prefetchSpec(JITStrategy()))
	if len(gotR) != len(wantR) {
		t.Fatalf("%d results vs %d", len(gotR), len(wantR))
	}
	for i := range gotR {
		if gotR[i] != wantR[i] {
			t.Fatalf("period %d diverged with a zero-lookahead corridor:\n got %+v\nwant %+v", i+1, gotR[i], wantR[i])
		}
	}
	if gotS != wantS {
		t.Errorf("zero-lookahead stats %+v differ from corridor-less %+v", gotS, wantS)
	}
}

// TestCorridorInvariantAcrossEngineSizing extends the concurrency
// invariant to specs with a corridor: worker counts never change their
// results, none of which reports a corridor hit.
func TestCorridorInvariantAcrossEngineSizing(t *testing.T) {
	run := func(workers int) []QueryResult {
		nc := sleepyNetwork()
		nc.Service = ServiceConfig{Workers: workers}
		svc, err := Open(context.Background(), nc, WithResultBuffer(64))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var subs []*Subscription
		for i := 0; i < 4; i++ {
			look := i % 3 // mix of disabled and enabled corridors
			sub, err := svc.Subscribe(context.Background(), corridorSpec(look),
				LinearMotion(Pt(120+40*float64(i), 160), 2, -1))
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		for i := 0; i < 40; i++ {
			if err := svc.Advance(300 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		var all []QueryResult
		for _, sub := range subs {
			all = append(all, drain(sub)...)
		}
		return all
	}
	ref := run(0)
	for i, r := range ref {
		if r.CorridorHit {
			t.Fatalf("result %d reports a corridor hit", i)
		}
	}
	for _, workers := range []int{1, 3} {
		got := run(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results vs %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result %d diverged:\n got %+v\nwant %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestPlannedMotionNeverMispredicts drives a course from PlannedMotion's
// exact per-leg profiles: positions follow the course GPSPredictedMotion
// lays its noisy predictions over, and the plan is replaced once per leg
// and at no other boundary. A bad course is refused as GPSPredictedMotion
// refuses it.
func TestPlannedMotionNeverMispredicts(t *testing.T) {
	course := CourseConfig{Seed: 7, RegionSide: 450, Start: Pt(220, 220), SpeedMin: 3, SpeedMax: 5,
		ChangeInterval: 5 * time.Second, Duration: 90 * time.Second}
	src, err := PlannedMotion(course)
	if err != nil {
		t.Fatal(err)
	}
	gps, err := GPSPredictedMotion(course, GPSConfig{Seed: 11, Sampling: 2 * time.Second, Error: 5})
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Duration(0); at <= course.Duration; at += time.Second {
		if src.PositionAt(at) != gps.PositionAt(at) {
			t.Fatalf("t=%v: planned position %v, course %v", at, src.PositionAt(at), gps.PositionAt(at))
		}
	}
	svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(128))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe(context.Background(), prefetchSpec(JITStrategy()), src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		if err := svc.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := sub.PrefetchStats()
	if !ok {
		t.Fatal("JIT subscription has no prefetch stats")
	}
	if legs := int(course.Duration / course.ChangeInterval); st.Replans != legs-1 {
		t.Errorf("%d replans, want one per leg after the first (%d)", st.Replans, legs-1)
	}
	course.SpeedMin = 0
	if _, err := PlannedMotion(course); err == nil {
		t.Error("zero SpeedMin accepted")
	}
}

// TestGPSPredictedMotionValidation pins constructor errors.
func TestGPSPredictedMotionValidation(t *testing.T) {
	good := CourseConfig{Seed: 1, RegionSide: 450, Start: Pt(10, 10), SpeedMin: 1, SpeedMax: 2,
		ChangeInterval: 5 * time.Second, Duration: 30 * time.Second}
	if _, err := GPSPredictedMotion(good, GPSConfig{Sampling: time.Second}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.SpeedMin = 0
	if _, err := GPSPredictedMotion(bad, GPSConfig{Sampling: time.Second}); err == nil {
		t.Error("zero SpeedMin accepted")
	}
	if _, err := GPSPredictedMotion(good, GPSConfig{Sampling: 0}); err == nil {
		t.Error("zero GPS sampling accepted")
	}
	if _, err := GPSPredictedMotion(good, GPSConfig{Sampling: time.Second, Error: -1}); err == nil {
		t.Error("negative GPS error accepted")
	}
}

// TestCorridorRequiresPrefetchingStrategy pins validation: a corridor on an
// on-demand spec is rejected, as are negative lookaheads and models.
func TestCorridorRequiresPrefetchingStrategy(t *testing.T) {
	svc, err := Open(context.Background(), sleepyNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := prefetchSpec(OnDemandStrategy())
	spec.Corridor = CorridorSpec{Lookahead: 2}
	if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225))); err == nil {
		t.Error("corridor without a prefetching strategy accepted")
	}
	spec = prefetchSpec(JITStrategy())
	spec.Corridor = CorridorSpec{Lookahead: -1}
	if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225))); err == nil {
		t.Error("negative lookahead accepted")
	}
	spec = prefetchSpec(JITStrategy())
	spec.Corridor = CorridorSpec{Lookahead: 2, ErrorModel: ErrorModel{Base: -1}}
	if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225))); err == nil {
		t.Error("negative error model accepted")
	}
}
