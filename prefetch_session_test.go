package mobiquery

// Session-path tests of the prefetch planner: strategy selection on
// QuerySpec, equation-16 warmup on Subscribe, equation-10 staging versus
// on-demand tick accounting, hold-time staleness under Greedy, and
// re-planning on UpdateWaypoint.

import (
	"context"
	"testing"
	"time"
)

// sleepyNetwork is a field with a long duty cycle relative to the tests'
// freshness windows: nodes refresh every 3 s, so on-demand evaluation sees
// mostly stale readings while prefetched periods stay fresh.
func sleepyNetwork() NetworkConfig {
	nc := DefaultNetworkConfig()
	nc.SamplePeriod = 3 * time.Second
	return nc
}

// prefetchSpec is the shared contract: 1 s periods with 100 ms deadline
// slack and a 1 s freshness window (equation-10 margin Tsleep+2Tfresh=5 s).
func prefetchSpec(s Strategy) QuerySpec {
	return QuerySpec{
		Radius:    150,
		Period:    time.Second,
		Deadline:  100 * time.Millisecond,
		Freshness: time.Second,
		Strategy:  s,
	}
}

// drain closes the subscription and collects everything it streamed.
func drain(sub *Subscription) []QueryResult {
	sub.Close()
	var out []QueryResult
	for r := range sub.Results() {
		out = append(out, r)
	}
	return out
}

// TestPrefetchStatsOutstandingMatchesStorageBounds pins the live storage
// ledger (equations 11 and 12) at the session: past its warmup a JIT
// subscription holds exactly the equation-12 constant of chains outstanding,
// a greedy one its lookahead, and an on-demand one has no ledger at all.
func TestPrefetchStatsOutstandingMatchesStorageBounds(t *testing.T) {
	nc := sleepyNetwork()
	svc, err := Open(context.Background(), nc, WithResultBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	subscribe := func(s Strategy) *Subscription {
		sub, err := svc.Subscribe(context.Background(), prefetchSpec(s), LinearMotion(Pt(150, 150), 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	jit, greedy, onDemand := subscribe(JITStrategy()), subscribe(GreedyStrategy(9)), subscribe(OnDemandStrategy())
	for i := 0; i < 20; i++ {
		if err := svc.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	spec := prefetchSpec(JITStrategy())
	st, ok := jit.PrefetchStats()
	if !ok || st.WarmupUntil >= svc.Now() {
		t.Fatalf("JIT stats %+v/%v: want a ledger past its warmup at %v", st, ok, svc.Now())
	}
	if want := JITStorageBound(nc.SamplePeriod, spec.Freshness, spec.Period); st.Outstanding != want {
		t.Errorf("JIT outstanding = %d, want the equation-12 constant %d", st.Outstanding, want)
	}
	if st, ok := greedy.PrefetchStats(); !ok || st.Outstanding != 9 {
		t.Errorf("greedy(9) stats %+v/%v: want 9 chains outstanding", st, ok)
	}
	if st, ok := onDemand.PrefetchStats(); ok || st.Outstanding != 0 {
		t.Errorf("on-demand subscription reports a prefetch ledger: %+v/%v", st, ok)
	}
}

// TestPrefetchReducesLatenessAndStaleness is the headline property: against
// the same sleepy field and the same coarse 300 ms service clock, the JIT
// subscriber's post-warmup periods are staged at their boundaries (on time,
// fully fresh, served from prefetched readings) while the on-demand twin
// keeps accumulating late periods from tick misalignment and stale
// exclusions from the 3 s duty cycle.
func TestPrefetchReducesLatenessAndStaleness(t *testing.T) {
	svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	motion := func() MotionSource { return LinearMotion(Pt(200, 200), 2, 1) }
	onDemand, err := svc.Subscribe(context.Background(), prefetchSpec(OnDemandStrategy()), motion())
	if err != nil {
		t.Fatal(err)
	}
	jit, err := svc.Subscribe(context.Background(), prefetchSpec(JITStrategy()), motion())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // 30 virtual seconds in 300 ms ticks
		if err := svc.Advance(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	od, jt := drain(onDemand), drain(jit)
	if len(od) != 30 || len(jt) != 30 {
		t.Fatalf("streamed %d/%d periods, want 30 each", len(od), len(jt))
	}

	lateOD, lateJIT, staleOD := 0, 0, 0
	for i := range od {
		if !od[i].OnTime {
			lateOD++
		}
		staleOD += od[i].StaleNodes
		if od[i].Warmup || od[i].PrefetchedNodes != 0 {
			t.Fatalf("on-demand period %d carries prefetch fields: %+v", i+1, od[i])
		}
	}
	sawWarmup := false
	for i := range jt {
		if !jt[i].OnTime {
			lateJIT++
		}
		if jt[i].Warmup {
			sawWarmup = true
			continue
		}
		// Post-warmup: staged at the boundary, fully fresh, all prefetched.
		if !jt[i].OnTime || jt[i].EvaluatedAt != jt[i].Deadline {
			t.Errorf("staged period %d evaluated at %v (deadline %v)", jt[i].K, jt[i].EvaluatedAt, jt[i].Deadline)
		}
		if jt[i].StaleNodes != 0 || jt[i].MaxStaleness != 0 {
			t.Errorf("staged period %d stale: %d nodes / %v", jt[i].K, jt[i].StaleNodes, jt[i].MaxStaleness)
		}
		if jt[i].PrefetchedNodes == 0 || jt[i].PrefetchedNodes != jt[i].Contributors {
			t.Errorf("staged period %d served %d prefetched of %d contributors", jt[i].K, jt[i].PrefetchedNodes, jt[i].Contributors)
		}
	}
	if !sawWarmup {
		t.Error("a zero-advance subscription should start in warmup (equation 16)")
	}
	if jt[len(jt)-1].Warmup {
		t.Error("warmup never ended over 30 periods")
	}
	if staleOD == 0 {
		t.Error("the sleepy field produced no stale exclusions on demand; the comparison is vacuous")
	}
	if lateOD == 0 {
		t.Error("the misaligned clock produced no late on-demand periods; the comparison is vacuous")
	}
	if lateJIT >= lateOD {
		t.Errorf("JIT late periods (%d) not below on-demand (%d)", lateJIT, lateOD)
	}
	if _, ok := onDemand.PrefetchStats(); ok {
		t.Error("on-demand subscription reports planner stats")
	}
	if st, ok := jit.PrefetchStats(); !ok || st.Served == 0 {
		t.Errorf("JIT planner ledger = %+v/%v, want served readings", st, ok)
	}
}

// TestGreedyHoldsReadings pins Greedy's capture semantics: readings are
// taken when the freshness window opens and held to the boundary, so
// post-warmup periods are on time but exactly Freshness old — the
// equation-10 hold ledger in action.
func TestGreedyHoldsReadings(t *testing.T) {
	svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := prefetchSpec(GreedyStrategy(0))
	sub, err := svc.Subscribe(context.Background(), spec, LinearMotion(Pt(200, 200), 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := svc.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	post := 0
	for _, r := range drain(sub) {
		if r.Warmup {
			continue
		}
		post++
		if !r.OnTime || r.PrefetchedNodes == 0 {
			t.Errorf("period %d: on-time %v, %d prefetched", r.K, r.OnTime, r.PrefetchedNodes)
		}
		if r.MaxStaleness != spec.Freshness {
			t.Errorf("period %d: held reading age %v, want the window-open capture %v", r.K, r.MaxStaleness, spec.Freshness)
		}
	}
	if post == 0 {
		t.Fatal("no post-warmup periods observed")
	}
}

// TestFreshnessBeyondPeriodOnlyForPrefetch pins the relaxed validation: a
// freshness window outliving the period is rejected on demand (the paper's
// feasibility assumption) but legal under a prefetching strategy, whose
// hold windows span periods by design.
func TestFreshnessBeyondPeriodOnlyForPrefetch(t *testing.T) {
	svc, err := Open(context.Background(), sleepyNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := prefetchSpec(OnDemandStrategy())
	spec.Freshness = 3 * time.Second // > the 1 s period
	if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225))); err == nil {
		t.Fatal("freshness beyond the period should be rejected for on-demand sampling")
	}
	spec.Strategy = JITStrategy()
	sub, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatalf("prefetching spec with freshness > period rejected: %v", err)
	}
	sub.Close()
	// Strategy validation still applies.
	spec.Strategy = Strategy{Lookahead: 3} // lookahead without greedy
	if _, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225))); err == nil {
		t.Fatal("lookahead on a non-greedy strategy should be rejected")
	}
}

// TestUpdateWaypointReplans pins the re-plan path: a ground-truth waypoint
// update restarts the equation-16 warmup clock, and the planner ledger
// counts the replan.
func TestUpdateWaypointReplans(t *testing.T) {
	svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe(context.Background(), prefetchSpec(JITStrategy()), LinearMotion(Pt(150, 150), 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := svc.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The user actually turned: report ground truth off the predicted path.
	if err := sub.UpdateWaypoint(Pt(300, 150)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if err := svc.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := sub.PrefetchStats()
	if !ok || st.Replans != 1 {
		t.Fatalf("planner stats after update = %+v/%v, want one replan", st, ok)
	}
	results := drain(sub)
	if len(results) != 25 {
		t.Fatalf("streamed %d periods, want 25", len(results))
	}
	// Period 10 (pre-update) had left warmup; period 11 is back in it.
	if results[9].Warmup {
		t.Error("period 10 should have left the initial warmup")
	}
	if !results[10].Warmup {
		t.Error("period 11 should re-enter warmup after the waypoint replan")
	}
	if results[24].Warmup {
		t.Error("warmup never ended after the replan")
	}
	if results[24].PrefetchedNodes == 0 {
		t.Error("post-replan staged period served no prefetched readings")
	}
}

// TestReplanRacesAdvance hammers the replan path from a second goroutine
// while the service clock runs: waypoint updates re-plan planners mid-batch
// and must never race evaluation (run under -race) or wedge the stream.
func TestReplanRacesAdvance(t *testing.T) {
	svc, err := Open(context.Background(), sleepyNetwork(), WithResultBuffer(256))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var subs []*Subscription
	for i := 0; i < 8; i++ {
		sub, err := svc.Subscribe(context.Background(), prefetchSpec(JITStrategy()),
			LinearMotion(Pt(100+30*float64(i), 200), 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			sub := subs[i%len(subs)]
			if err := sub.UpdateWaypoint(Pt(150+float64(i), 210)); err != nil {
				return // subscription closed under us: fine
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
		if st, ok := sub.PrefetchStats(); !ok || st.Replans == 0 {
			t.Fatalf("planner saw no replans (%+v, %v)", st, ok)
		}
		if sub.Stats().Delivered == 0 {
			t.Fatal("stream wedged under concurrent replans")
		}
	}
}

// TestPrefetchInvariantAcrossEngineSizing pins the concurrency invariant on
// the new path: worker counts never change prefetched results.
func TestPrefetchInvariantAcrossEngineSizing(t *testing.T) {
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
			strat := JITStrategy()
			if i%2 == 1 {
				strat = GreedyStrategy(0)
			}
			sub, err := svc.Subscribe(context.Background(), prefetchSpec(strat),
				LinearMotion(Pt(100+50*float64(i), 150), 2, -1))
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
