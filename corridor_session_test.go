package mobiquery

// Session-path tests of corridor prefetching: warm serves are bit-identical
// to cold scans, a zero lookahead is exactly the pre-corridor behavior,
// results are invariant to engine sizing, and noisy GPS-predicted motion
// produces mispredicts that re-plan immediately while keeping honest
// accounting.

import (
	"context"
	"testing"
	"time"
)

// corridorSpec is prefetchSpec plus a corridor: 3 boundaries of lookahead
// under a small error bound (the synthesized profiles of plain motion
// sources are exact up to float noise).
func corridorSpec(lookahead int) QuerySpec {
	spec := prefetchSpec(JITStrategy())
	spec.Corridor = CorridorSpec{Lookahead: lookahead, ErrorModel: ErrorModel{Base: 2}}
	return spec
}

// stripCorridorHit zeroes the one field allowed to differ between a warm
// and a cold serve.
func stripCorridorHit(rs []QueryResult) []QueryResult {
	out := append([]QueryResult(nil), rs...)
	for i := range out {
		out[i].CorridorHit = false
	}
	return out
}

// TestCorridorWarmServesIdenticalResults runs a corridor subscription and a
// plain-JIT twin over the same service and clock: every period's values
// must match exactly (the corridor only changes how nodes are enumerated),
// the corridor twin must actually serve warm periods, and its ledger must
// show them.
func TestCorridorWarmServesIdenticalResults(t *testing.T) {
	svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	motion := func() MotionSource { return LinearMotion(Pt(200, 200), 2, 1) }
	plain, err := svc.Subscribe(context.Background(), prefetchSpec(JITStrategy()), motion())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := svc.Subscribe(context.Background(), corridorSpec(3), motion())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := svc.Advance(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	pr, wr := drain(plain), drain(warm)
	if len(pr) != 30 || len(wr) != 30 {
		t.Fatalf("streamed %d/%d periods, want 30 each", len(pr), len(wr))
	}
	hits := 0
	for i := range wr {
		if wr[i].CorridorHit {
			hits++
		}
		stripped := wr[i]
		stripped.CorridorHit = false
		if stripped != pr[i] {
			t.Fatalf("period %d diverged between corridor and plain JIT:\nwarm %+v\ncold %+v", i+1, wr[i], pr[i])
		}
		if pr[i].CorridorHit {
			t.Fatalf("period %d: corridor-less subscription reports a hit", i+1)
		}
	}
	if hits == 0 {
		t.Fatal("corridor subscription never served a warm period")
	}
	st, ok := warm.PrefetchStats()
	if !ok {
		t.Fatal("corridor subscription has no planner stats")
	}
	if st.CorridorHits != int64(hits) {
		t.Errorf("ledger hits = %d, results show %d", st.CorridorHits, hits)
	}
	if st.CorridorHits+st.CorridorMisses != 30 {
		t.Errorf("hits %d + misses %d != 30 evaluations", st.CorridorHits, st.CorridorMisses)
	}
	if st.CorridorStaged == 0 {
		t.Error("ledger shows no staged boundaries")
	}
	if st.CorridorMispredicts != 0 {
		t.Errorf("exact synthesized profiles produced %d mispredicts", st.CorridorMispredicts)
	}
	if pst, _ := plain.PrefetchStats(); pst.CorridorHits != 0 || pst.CorridorStaged != 0 {
		t.Errorf("plain subscription carries corridor counters: %+v", pst)
	}
}

// TestCorridorLookaheadZeroIsDisabled pins the nil-hook contract: a spec
// with Corridor.Lookahead 0 behaves exactly like one without a corridor —
// same results, no corridor counters.
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
// invariant to the corridor path: shard and worker counts never change a
// corridor subscription's results — including which periods were served
// warm.
func TestCorridorInvariantAcrossEngineSizing(t *testing.T) {
	run := func(shards, workers int) []QueryResult {
		nc := sleepyNetwork()
		nc.Service = ServiceConfig{Shards: shards, Workers: workers}
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
	ref := run(0, 0)
	warmRef := 0
	for _, r := range ref {
		if r.CorridorHit {
			warmRef++
		}
	}
	if warmRef == 0 {
		t.Fatal("reference run served no warm periods; the invariance check is vacuous")
	}
	for _, cfg := range [][2]int{{1, 1}, {16, 3}} {
		got := run(cfg[0], cfg[1])
		if len(got) != len(ref) {
			t.Fatalf("shards=%d workers=%d: %d results vs %d", cfg[0], cfg[1], len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d workers=%d: result %d diverged:\n got %+v\nwant %+v", cfg[0], cfg[1], i, got[i], ref[i])
			}
		}
	}
}

// TestGPSPredictedMotionMispredicts drives a corridor subscription from a
// noisy GPS predictor over a turning course with a deliberately tight
// error model: straight stretches serve warm, sharp prediction misses are
// detected as mispredicts (served cold, with an immediate re-plan), and
// the stream never wedges.
func TestGPSPredictedMotionMispredicts(t *testing.T) {
	src, err := GPSPredictedMotion(CourseConfig{
		Seed:           7,
		RegionSide:     450,
		Start:          Pt(220, 220),
		SpeedMin:       3,
		SpeedMax:       5,
		ChangeInterval: 5 * time.Second,
		Duration:       90 * time.Second,
	}, GPSConfig{Seed: 11, Sampling: 2 * time.Second, Error: 5})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(128))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := prefetchSpec(JITStrategy())
	spec.Corridor = CorridorSpec{Lookahead: 3, ErrorModel: ErrorModel{Base: 25}}
	sub, err := svc.Subscribe(context.Background(), spec, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		if err := svc.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	results := drain(sub)
	if len(results) != 90 {
		t.Fatalf("streamed %d periods, want 90", len(results))
	}
	st, ok := sub.PrefetchStats()
	if !ok {
		t.Fatal("no planner stats")
	}
	if st.CorridorHits == 0 {
		t.Error("noisy predictions never served a warm period; the model is uselessly tight")
	}
	if st.CorridorMispredicts == 0 {
		t.Error("a tight model over noisy predictions produced no mispredicts; the detection path is untested")
	}
	if st.Replans == 0 {
		t.Error("neither the predictor stream nor mispredicts re-planned")
	}
	// Honest accounting: a fully staged, credited period is warm; the
	// ledger's warm count matches the per-result flags.
	hits := 0
	for _, r := range results {
		if r.CorridorHit {
			hits++
		}
	}
	if int64(hits) != st.CorridorHits {
		t.Errorf("per-result warm count %d vs ledger %d", hits, st.CorridorHits)
	}
}

// TestPlannedMotionNeverMispredicts drives the same course as the GPS test
// from PlannedMotion's exact per-leg profiles: positions follow the course,
// every leg re-plans once, and a corridor of two meters serves warm without
// a single mispredict. A bad course is refused as GPSPredictedMotion
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
	spec := prefetchSpec(JITStrategy())
	spec.Corridor = CorridorSpec{Lookahead: 3, ErrorModel: ErrorModel{Base: 2}}
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
	if !ok || st.CorridorHits == 0 || st.CorridorMispredicts != 0 {
		t.Fatalf("planned corridor ledger %+v/%v: want warm periods and no mispredict", st, ok)
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

// TestCorridorReplanRacesAdvance hammers waypoint updates (which re-sweep
// the corridor) against the service clock; run under -race. The stream
// must keep delivering and the ledger must stay coherent.
func TestCorridorReplanRacesAdvance(t *testing.T) {
	svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(256))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var subs []*Subscription
	for i := 0; i < 6; i++ {
		sub, err := svc.Subscribe(context.Background(), corridorSpec(3),
			LinearMotion(Pt(120+30*float64(i), 200), 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 150; i++ {
			sub := subs[i%len(subs)]
			if err := sub.UpdateWaypoint(Pt(150+float64(i), 210)); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 60; i++ {
		if err := svc.Advance(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	for _, sub := range subs {
		if sub.Stats().Delivered == 0 {
			t.Fatal("stream wedged under concurrent corridor replans")
		}
		st, ok := sub.PrefetchStats()
		if !ok || st.CorridorStaged == 0 {
			t.Fatalf("corridor ledger empty under churn: %+v/%v", st, ok)
		}
	}
}
