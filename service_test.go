package mobiquery

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// testNetwork is the shared small field: 200 nodes over 450 m, sampling
// once per second, constant readings of 20.
func testNetwork() NetworkConfig { return DefaultNetworkConfig() }

// centerSpec is a query over the middle of the field that comfortably
// covers many nodes.
func centerSpec() QuerySpec {
	return QuerySpec{
		Radius:    150,
		Period:    2 * time.Second,
		Freshness: time.Second,
	}
}

func mustOpen(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := Open(context.Background(), testNetwork(), opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func TestOpenReturnsConfigErrors(t *testing.T) {
	bad := []NetworkConfig{
		{Nodes: 0, RegionSide: 100},
		{Nodes: 10, RegionSide: 0},
		{Nodes: 10, RegionSide: 100, SamplePeriod: -1},
		{Nodes: 10, RegionSide: 100, Service: ServiceConfig{Shards: -1}},
	}
	for i, nc := range bad {
		if _, err := Open(context.Background(), nc); err == nil {
			t.Errorf("config %d: expected an error, got a service", i)
		}
	}
	if _, err := Open(context.Background(), testNetwork(), WithResultBuffer(0)); err == nil {
		t.Error("zero result buffer should be an error")
	}
	if _, err := Open(context.Background(), testNetwork(), WithRealTime(-time.Second)); err == nil {
		t.Error("negative tick should be an error")
	}
}

func TestSubscribeReturnsSpecErrors(t *testing.T) {
	svc := mustOpen(t)
	src := StaticPosition(Pt(225, 225))
	bad := []QuerySpec{
		{Radius: 0, Period: time.Second},
		{Radius: 100, Period: 0},
		{Radius: 100, Period: time.Second, Deadline: -1},
		{Radius: 100, Period: time.Second, Freshness: 2 * time.Second},
		{Radius: 100, Period: time.Second, Aggregate: AggKind(99)},
		{Radius: 100, Period: 2 * time.Second, Lifetime: time.Second},
	}
	for i, spec := range bad {
		if _, err := svc.Subscribe(context.Background(), spec, src); err == nil {
			t.Errorf("spec %d (%+v): expected an error", i, spec)
		}
	}
	if _, err := svc.Subscribe(context.Background(), centerSpec(), nil); err == nil {
		t.Error("nil motion source should be an error")
	}
	svc.Close()
	if _, err := svc.Subscribe(context.Background(), centerSpec(), src); err == nil {
		t.Error("subscribe on a closed service should be an error")
	}
	if err := svc.Advance(time.Second); err == nil {
		t.Error("advance on a closed service should be an error")
	}
}

func TestSubscriptionStreamsPerPeriodResults(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling())
	sub, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := svc.Advance(2 * time.Second); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	sub.Close()
	var got []QueryResult
	for r := range sub.Results() {
		got = append(got, r)
	}
	if len(got) != 3 {
		t.Fatalf("received %d results, want 3", len(got))
	}
	for i, r := range got {
		if r.K != i+1 || r.Deadline != time.Duration(i+1)*2*time.Second {
			t.Errorf("result %d: header K=%d deadline=%v", i, r.K, r.Deadline)
		}
		if !r.Received || !r.OnTime || r.Lateness != 0 {
			t.Errorf("result %d: delivery flags %+v", i, r)
		}
		if r.EvaluatedAt != r.Deadline {
			t.Errorf("result %d: evaluated at %v, want at the deadline %v", i, r.EvaluatedAt, r.Deadline)
		}
		// Aligned sampling and a deadline on a whole second: readings are
		// taken exactly at the deadline, so nothing is stale.
		if r.MaxStaleness != 0 || r.StaleNodes != 0 {
			t.Errorf("result %d: staleness %v / %d stale nodes, want none", i, r.MaxStaleness, r.StaleNodes)
		}
		if r.Value != 20 || r.Contributors == 0 || r.Contributors != r.AreaNodes {
			t.Errorf("result %d: value %v from %d/%d nodes", i, r.Value, r.Contributors, r.AreaNodes)
		}
		if r.Fidelity != 1 || !r.Success {
			t.Errorf("result %d: fidelity %v success %v", i, r.Fidelity, r.Success)
		}
	}
	st := sub.Stats()
	if st.Delivered != 3 || st.Dropped != 0 || st.Late != 0 || st.NextPeriod != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStalenessPinned pins the freshness ledger exactly: with aligned 1 s
// sampling and a 2.5 s period, every reading is 500 ms old at the
// deadline. A window of 1 s admits them all; a window of 400 ms excludes
// every node.
func TestStalenessPinned(t *testing.T) {
	spec := centerSpec()
	spec.Period = 2500 * time.Millisecond
	src := StaticPosition(Pt(225, 225))

	svc := mustOpen(t, WithAlignedSampling())
	sub, err := svc.Subscribe(context.Background(), spec, src)
	if err != nil {
		t.Fatal(err)
	}
	svc.Advance(spec.Period)
	r := <-sub.Results()
	if r.MaxStaleness != 500*time.Millisecond {
		t.Errorf("MaxStaleness = %v, want exactly 500ms", r.MaxStaleness)
	}
	if r.StaleNodes != 0 || r.Contributors == 0 || r.Fidelity != 1 {
		t.Errorf("1s window rejected readings: %+v", r)
	}

	strict := spec
	strict.Freshness = 400 * time.Millisecond
	svc2 := mustOpen(t, WithAlignedSampling())
	sub2, err := svc2.Subscribe(context.Background(), strict, src)
	if err != nil {
		t.Fatal(err)
	}
	svc2.Advance(spec.Period)
	r2 := <-sub2.Results()
	if r2.Contributors != 0 || r2.StaleNodes != r.AreaNodes || r2.Fidelity != 0 {
		t.Errorf("400ms window: %d contributors, %d stale of %d area nodes, fidelity %v",
			r2.Contributors, r2.StaleNodes, r2.AreaNodes, r2.Fidelity)
	}
	if !math.IsNaN(r2.Value) {
		t.Errorf("Avg over zero fresh readings = %v, want NaN", r2.Value)
	}
	if r2.Success {
		t.Error("a result with zero fidelity cannot be a success")
	}
}

// TestLatenessPinned pins the deadline ledger exactly: one coarse 6 s
// advance over a 2 s period makes periods 1 and 2 late by 4 s and 2 s
// while period 3 lands on time.
func TestLatenessPinned(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling())
	sub, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	svc.Advance(6 * time.Second)
	want := []struct {
		onTime   bool
		lateness time.Duration
	}{
		{false, 4 * time.Second},
		{false, 2 * time.Second},
		{true, 0},
	}
	for i, w := range want {
		r := <-sub.Results()
		if r.K != i+1 || r.OnTime != w.onTime || r.Lateness != w.lateness {
			t.Errorf("result %d: K=%d onTime=%v lateness=%v, want onTime=%v lateness=%v",
				i, r.K, r.OnTime, r.Lateness, w.onTime, w.lateness)
		}
		if r.EvaluatedAt != 6*time.Second {
			t.Errorf("result %d evaluated at %v, want 6s", i, r.EvaluatedAt)
		}
		if !w.onTime && r.Success {
			t.Errorf("result %d: late result marked success", i)
		}
	}
	if st := sub.Stats(); st.Late != 2 || st.Delivered != 3 {
		t.Errorf("stats = %+v, want 2 late of 3", st)
	}

	// A deadline slack wider than the overshoot forgives the same pattern.
	slack := centerSpec()
	slack.Deadline = 4 * time.Second
	svc2 := mustOpen(t, WithAlignedSampling())
	sub2, _ := svc2.Subscribe(context.Background(), slack, StaticPosition(Pt(225, 225)))
	svc2.Advance(6 * time.Second)
	for i := 0; i < 3; i++ {
		if r := <-sub2.Results(); !r.OnTime || r.Lateness != 0 {
			t.Errorf("slack result %d: onTime=%v lateness=%v, want forgiven", i, r.OnTime, r.Lateness)
		}
	}
}

// TestChurnDoesNotAffectOtherSubscribers is the acceptance invariant:
// a subscriber's stream is identical whether it runs alone or while other
// users join and leave around it.
func TestChurnDoesNotAffectOtherSubscribers(t *testing.T) {
	spec := centerSpec()
	spec.Period = time.Second
	spec.Freshness = 500 * time.Millisecond
	motion := func() MotionSource { return LinearMotion(Pt(50, 100), 4, 0) }

	collect := func(sub *Subscription) []QueryResult {
		sub.Close()
		var out []QueryResult
		for r := range sub.Results() {
			out = append(out, r)
		}
		return out
	}

	// Reference: the subscriber alone, ten 1 s steps.
	ref, err := Open(context.Background(), testNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	solo, err := ref.Subscribe(context.Background(), spec, motion())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ref.Advance(time.Second)
	}
	want := collect(solo)
	if len(want) != 10 {
		t.Fatalf("reference stream has %d results, want 10", len(want))
	}

	// Same field, same subscriber, same clock — but two other users join,
	// stream, and leave mid-run.
	churny, err := Open(context.Background(), testNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer churny.Close()
	watched, err := churny.Subscribe(context.Background(), spec, motion())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		churny.Advance(time.Second)
	}
	guest1, err := churny.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		churny.Advance(time.Second)
	}
	guest2, err := churny.Subscribe(context.Background(), spec, LinearMotion(Pt(400, 400), -3, -3))
	if err != nil {
		t.Fatal(err)
	}
	guest1.Close()
	for i := 0; i < 4; i++ {
		churny.Advance(time.Second)
	}
	guest2.Close()
	got := collect(watched)

	if len(got) != len(want) {
		t.Fatalf("stream length %d with churn, %d alone", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d diverged under churn:\n  with churn: %+v\n  alone:      %+v", i, got[i], want[i])
		}
	}
	if churny.Subscribers() != 0 {
		t.Errorf("subscribers after all closed = %d", churny.Subscribers())
	}
}

func TestUpdateWaypointOverridesMotion(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling())
	sub, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	svc.Advance(2 * time.Second)
	if r := <-sub.Results(); r.AreaNodes == 0 {
		t.Fatal("query over the field center found no nodes")
	}
	// The user reports they actually walked far outside the field.
	if err := sub.UpdateWaypoint(Pt(5000, 5000)); err != nil {
		t.Fatal(err)
	}
	svc.Advance(2 * time.Second)
	r := <-sub.Results()
	if r.AreaNodes != 0 || r.Contributors != 0 {
		t.Errorf("after moving out of the field: %d area nodes, %d contributors", r.AreaNodes, r.Contributors)
	}
	if r.Fidelity != 1 {
		t.Errorf("empty-area fidelity = %v, want the vacuous 1", r.Fidelity)
	}
	sub.Close()
	if err := sub.UpdateWaypoint(Pt(0, 0)); err == nil {
		t.Error("waypoint update on a closed subscription should be an error")
	}
}

func TestBackpressureDropsInsteadOfStalling(t *testing.T) {
	svc := mustOpen(t, WithResultBuffer(2))
	sub, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		svc.Advance(2 * time.Second)
	}
	st := sub.Stats()
	if st.Delivered != 2 || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want 2 delivered / 2 dropped", st)
	}
	// The two oldest results survived; the overflow was discarded newest.
	if r := <-sub.Results(); r.K != 1 {
		t.Errorf("first buffered result is K=%d, want 1", r.K)
	}
	if r := <-sub.Results(); r.K != 2 {
		t.Errorf("second buffered result is K=%d, want 2", r.K)
	}
}

// TestDropAccountingUnderFullBuffer pins the Subscribe contract for slow
// consumers: every period is accounted exactly once — delivered or
// dropped, never both, never lost — NextPeriod keeps advancing past drops,
// and a drained buffer resumes delivery with the periods that overflowed
// counted only in Dropped.
func TestDropAccountingUnderFullBuffer(t *testing.T) {
	svc := mustOpen(t, WithResultBuffer(1))
	sub, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := svc.Advance(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st := sub.Stats()
	if st.Delivered != 1 || st.Dropped != 4 {
		t.Fatalf("stats = %+v, want 1 delivered / 4 dropped", st)
	}
	if st.Delivered+st.Dropped != st.NextPeriod-1 {
		t.Fatalf("accounting leak: %d delivered + %d dropped != %d periods evaluated",
			st.Delivered, st.Dropped, st.NextPeriod-1)
	}
	// The oldest result survived; the overflow was discarded newest-first.
	if r := <-sub.Results(); r.K != 1 {
		t.Errorf("buffered result is K=%d, want 1", r.K)
	}
	// Draining made room: the next period delivers again and the dropped
	// periods stay dropped (K jumps over them).
	if err := svc.Advance(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r := <-sub.Results(); r.K != 6 {
		t.Errorf("post-drain result is K=%d, want 6", r.K)
	}
	st = sub.Stats()
	if st.Delivered != 2 || st.Dropped != 4 || st.NextPeriod != 7 {
		t.Fatalf("post-drain stats = %+v, want 2 delivered / 4 dropped / next 7", st)
	}
}

func TestLifetimeEndsSubscription(t *testing.T) {
	spec := centerSpec()
	spec.Lifetime = 4 * time.Second // two periods
	svc := mustOpen(t)
	sub, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	svc.Advance(10 * time.Second)
	var ks []int
	for r := range sub.Results() {
		ks = append(ks, r.K)
	}
	if len(ks) != 2 || ks[0] != 1 || ks[1] != 2 {
		t.Fatalf("lifetime-bounded stream delivered %v, want [1 2]", ks)
	}
	if svc.Subscribers() != 0 {
		t.Errorf("expired subscription still counted: %d", svc.Subscribers())
	}
}

// TestLifetimeClosesAtExactBoundary is the regression guard for the
// stream staying open forever when the clock stops exactly at
// t0+Lifetime: the final period's delivery must also close the channel.
func TestLifetimeClosesAtExactBoundary(t *testing.T) {
	spec := centerSpec()
	spec.Lifetime = 4 * time.Second // two periods
	svc := mustOpen(t)
	sub, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	svc.Advance(2 * time.Second)
	svc.Advance(2 * time.Second) // clock now exactly at the lifetime
	var ks []int
	for r := range sub.Results() { // must terminate without more advances
		ks = append(ks, r.K)
	}
	if len(ks) != 2 {
		t.Fatalf("delivered %v, want both periods before the channel closed", ks)
	}
	if svc.Subscribers() != 0 {
		t.Errorf("expired subscription still counted: %d", svc.Subscribers())
	}
}

// TestSubscribeWatcherDoesNotLeak pins that the per-subscription context
// watcher exits when the subscription closes, not only when the whole
// service shuts down.
func TestSubscribeWatcherDoesNotLeak(t *testing.T) {
	svc := mustOpen(t)
	before := runtime.NumGoroutine()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		sub, err := svc.Subscribe(ctx, centerSpec(), StaticPosition(Pt(225, 225)))
		if err != nil {
			t.Fatal(err)
		}
		sub.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+5 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 50 subscribe/close cycles", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeAllocations pins what a session costs the heap: a
// subscription stores its engine query and its trace ring's header in place,
// so Subscribe+Close with default options allocates four objects — the
// Subscription, its result channel, the channel's buffer and the trace
// ring's spans — and no separate query or ring.
func TestSubscribeAllocations(t *testing.T) {
	svc, err := Open(context.Background(), DefaultNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := QuerySpec{Radius: 150, Period: time.Second, Freshness: time.Second, Aggregate: Count}
	src := StaticPosition(Pt(225, 225))
	allocs := testing.AllocsPerRun(200, func() {
		sub, err := svc.Subscribe(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		sub.Close()
	})
	if allocs != 4 {
		t.Fatalf("Subscribe+Close allocates %v objects, want 4", allocs)
	}
}

// TestContextBoundSubscriptionsAddNoGoroutines pins that tying
// subscriptions to a cancellable context costs no goroutine each — the
// context itself calls Close when it ends — and that cancelling it still
// closes every one of them.
func TestContextBoundSubscriptionsAddNoGoroutines(t *testing.T) {
	svc := mustOpen(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 200
	before := runtime.NumGoroutine()
	subs := make([]*Subscription, n)
	for i := range subs {
		sub, err := svc.Subscribe(ctx, centerSpec(), StaticPosition(Pt(225, 225)))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d context-bound subscriptions grew goroutines from %d to %d", n, before, after)
	}
	// One closed by hand detaches itself; the cancellation must cope.
	subs[0].Close()
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d subscriptions still registered after cancellation", svc.Subscribers(), n)
		}
		time.Sleep(time.Millisecond)
	}
	for i, sub := range subs {
		select {
		case _, open := <-sub.Results():
			if open {
				t.Errorf("subscription %d delivered a result with no Advance", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("subscription %d: Results not closed after cancellation", i)
		}
	}
}

func TestContextCancellationClosesSubscription(t *testing.T) {
	svc := mustOpen(t)
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := svc.Subscribe(ctx, centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, open := <-sub.Results():
			if !open {
				if svc.Subscribers() != 0 {
					t.Errorf("canceled subscription still registered")
				}
				return
			}
		case <-deadline:
			t.Fatal("subscription did not close after context cancellation")
		}
	}
}

func TestContextCancellationClosesService(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := Open(ctx, testNetwork())
	if err != nil {
		t.Fatal(err)
	}
	// No watcher goroutine parks on the context (Open's dispatch workers may
	// take a moment to exit).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("Open under a cancelable context grew goroutines from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	for svc.Advance(time.Second) == nil {
		if time.Now().After(deadline) {
			t.Fatal("service did not close after context cancellation")
		}
		time.Sleep(time.Millisecond)
	}

	// Closed by hand first, the service detaches from its context: the
	// cancellation that follows has nothing left to run.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	svc, err = Open(ctx, testNetwork())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if svc.stopCtx() {
		t.Error("Close left the context callback attached")
	}
	cancel()
	if err := svc.Close(); err != nil {
		t.Errorf("Close after cancellation: %v", err)
	}
}

// TestRealTimeDrive smoke-tests the wall-clock driver: results stream
// without any Advance call.
func TestRealTimeDrive(t *testing.T) {
	svc, err := Open(context.Background(), testNetwork(),
		WithRealTime(2*time.Millisecond), WithAlignedSampling())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := QuerySpec{Radius: 150, Period: 10 * time.Millisecond}
	sub, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case r := <-sub.Results():
			if r.Value != 20 {
				t.Errorf("streamed value = %v, want 20", r.Value)
			}
		case <-deadline:
			t.Fatal("real-time service delivered nothing")
		}
	}
}

// TestRealTimeClockCatchesUp drives the real-time clock loop through its
// fire channel: ten fires, each owing three ticks of wall time (the ticker
// dropped two fires while each step overran), must leave virtual time at
// thirty ticks, not ten.
func TestRealTimeClockCatchesUp(t *testing.T) {
	svc := mustOpen(t)
	const tick = 10 * time.Millisecond
	var wall atomic.Int64
	fire := make(chan time.Time)
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.runClock(fire, func() time.Duration { return time.Duration(wall.Load()) })
	}()
	for i := 1; i <= 10; i++ {
		wall.Store(int64(time.Duration(3*i) * tick))
		fire <- time.Time{}
	}
	// An eleventh fire owes nothing, and is received only once the tenth
	// step has finished.
	fire <- time.Time{}
	if got := svc.Now(); got != 30*tick {
		t.Errorf("virtual time after ten fires owing three ticks each: %v, want %v", got, 30*tick)
	}
	svc.Close()
	<-done
}

func TestServiceCloseIsIdempotent(t *testing.T) {
	svc := mustOpen(t)
	sub, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-sub.Results(); open {
		t.Error("results channel still open after service close")
	}
}

// TestSamplerPhaseTable pins the phase table Open precomputes to the hash it
// replaced: for every node id the tabled phase is the hashed one and the
// sampler answers the standard schedule over it, and aligned sampling stays
// phase 0 with no table at all.
func TestSamplerPhaseTable(t *testing.T) {
	svc := mustOpen(t)
	period, seed := svc.cfg.SamplePeriod, uint64(svc.cfg.Seed)
	if len(svc.phases) != svc.cfg.Nodes {
		t.Fatalf("phase table holds %d nodes, want %d", len(svc.phases), svc.cfg.Nodes)
	}
	sample := svc.sample
	at := 7*period + period/3
	for id := 0; id < svc.cfg.Nodes; id++ {
		want := time.Duration(splitmix64(seed^(uint64(id)+0x9E3779B97F4A7C15)) % uint64(period))
		if svc.phases[id] != want {
			t.Fatalf("node %d: tabled phase %v, hashed %v", id, svc.phases[id], want)
		}
		if got, ok := sample(int32(id), at); !ok || got != want+(at-want)/period*period {
			t.Fatalf("node %d: sample at %v = %v/%v, want %v", id, at, got, ok, want+(at-want)/period*period)
		}
		if _, ok := sample(int32(id), want-1); ok && want > 0 {
			t.Fatalf("node %d sampled before its first phase %v", id, want)
		}
	}

	aligned := mustOpen(t, WithAlignedSampling())
	if aligned.phases != nil {
		t.Error("aligned sampling built a phase table")
	}
	sample = aligned.sample
	for id := int32(0); id < int32(aligned.cfg.Nodes); id++ {
		if got, ok := sample(id, at); !ok || got != 7*period {
			t.Fatalf("aligned node %d: sample at %v = %v/%v, want %v", id, at, got, ok, 7*period)
		}
	}
}
