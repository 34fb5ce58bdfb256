package mobiquery

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiquery/internal/core"
)

// buffered reads what is waiting on the subscription's Results channel
// without blocking, and reports whether the channel is closed behind it.
func buffered(sub *Subscription) (got []QueryResult, closed bool) {
	for {
		select {
		case r, ok := <-sub.Results():
			if !ok {
				return got, true
			}
			got = append(got, r)
		default:
			return got, false
		}
	}
}

// TestCoarseAdvanceDeliversEachStreamInOrder pins the delivery order the
// service promises, which is per subscription: whatever the step size and the
// Workers sizing, each Results channel carries K = 1, 2, 3, … with no
// gap, a subscription whose Lifetime ends inside a step closes right behind
// its last result, and the ledger accounts for every evaluated period. Forty
// subscriptions of four periods and three serve classes are driven by one
// coarse step spanning at least four periods of each, against buffers small
// enough that the fastest streams overflow. No order across subscriptions is
// promised, and none is asserted.
func TestCoarseAdvanceDeliversEachStreamInOrder(t *testing.T) {
	const (
		subs     = 40
		buffer   = 8
		expiring = 5  // Lifetime runs out inside the coarse step
		leaver   = 11 // closed between the two steps
		warm     = 2500 * time.Millisecond
		coarse   = 10 * time.Second
	)
	periods := []time.Duration{time.Second, 1500 * time.Millisecond, 2 * time.Second, 2500 * time.Millisecond}
	specOf := func(i int) QuerySpec {
		spec := QuerySpec{Radius: 150, Period: periods[i%len(periods)], Freshness: time.Second, Aggregate: Count}
		switch {
		case i%3 == 0:
			spec.Radius = 50 // below the pyramid threshold: cold scans
		case i%10 == 9:
			spec.Strategy = JITStrategy()
		}
		if i == expiring {
			spec.Lifetime = 3 * spec.Period
		}
		return spec
	}

	run := func(sc ServiceConfig) [][]string {
		nc := testNetwork()
		nc.Service = sc
		svc, err := Open(context.Background(), nc, WithResultBuffer(buffer))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer svc.Close()
		all := make([]*Subscription, subs)
		for i := range all {
			all[i], err = svc.Subscribe(context.Background(), specOf(i), LinearMotion(Pt(120+5*float64(i), 200), 1, 0.5))
			if err != nil {
				t.Fatalf("Subscribe %d: %v", i, err)
			}
		}
		if err := svc.Advance(warm); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		all[leaver].Close()
		if err := svc.Advance(coarse); err != nil {
			t.Fatalf("Advance: %v", err)
		}

		streams := make([][]string, subs)
		for i, sub := range all {
			got, closed := buffered(sub)
			// How many periods fell due while the subscription was live, and
			// how many of them the buffer could hold.
			evaluated := int((warm + coarse) / sub.Spec().Period)
			switch i {
			case expiring:
				evaluated = 3
			case leaver:
				evaluated = int(warm / sub.Spec().Period)
			}
			want := min(evaluated, buffer)
			if len(got) != want {
				t.Errorf("%+v sub %d: %d results on the channel, want %d", sc, i, len(got), want)
			}
			for j, r := range got {
				if r.K != j+1 || r.Deadline != time.Duration(j+1)*sub.Spec().Period {
					t.Errorf("%+v sub %d: result %d is period %d due %v", sc, i, j, r.K, r.Deadline)
				}
				// PyramidHit is the serve route, not the answer, and under a
				// step that spans more boundaries than a pyramid keeps epochs
				// the route depends on how the workers interleave: one may
				// rotate an epoch out between another's ingest and its serve,
				// which then falls back to the cold scan — same values.
				r.PyramidHit = false
				streams[i] = append(streams[i], fmt.Sprintf("%+v", r))
			}
			if wantClosed := i == expiring || i == leaver; closed != wantClosed {
				t.Errorf("%+v sub %d: channel closed = %v, want %v", sc, i, closed, wantClosed)
			}
			if st := sub.Stats(); st.Delivered != want || st.Dropped != evaluated-want || st.NextPeriod != evaluated+1 {
				t.Errorf("%+v sub %d: ledger %+v, want %d delivered + %d dropped", sc, i, st, want, evaluated-want)
			}
		}

		st := svc.Stats()
		var byClass uint64
		for _, c := range svc.obs.classCount {
			byClass += c.Load()
		}
		if st.Delivered+st.Dropped != byClass || st.Dropped == 0 {
			t.Errorf("%+v: delivered %d + dropped %d, per-class evaluated %d (and the fast streams must overflow)",
				sc, st.Delivered, st.Dropped, byClass)
		}
		if want := subs - 2; st.Subscribers != want {
			t.Errorf("%+v: %d subscribers after one expiry and one close, want %d", sc, st.Subscribers, want)
		}
		return streams
	}

	serial := run(ServiceConfig{Workers: 1})
	parallel := run(ServiceConfig{Workers: 4})
	for i := range serial {
		if strings.Join(serial[i], "\n") != strings.Join(parallel[i], "\n") {
			t.Errorf("sub %d: stream differs between Workers 1 and Workers 4:\n%v\n%v", i, serial[i], parallel[i])
		}
	}
}

// TestReadingColumnIsInvisibleInDeliveredStreams is the one place both fold
// paths answer the same boundaries of the same run. Stepped a second at a
// time every boundary is popped, so every one of them gets a reading column;
// in one five-second step only each subscription's first boundary is popped
// and columned, and step folds boundaries 2…K of the step directly.
// The streams must be byte-identical, at Workers 1 and 4, apart from what
// the step size itself decides: EvaluatedAt (the deadline slack is wide
// enough that nothing is late either way) and the serve route below.
func TestReadingColumnIsInvisibleInDeliveredStreams(t *testing.T) {
	const subs, span = 450, 5
	specOf := func(i int) QuerySpec {
		spec := QuerySpec{Radius: 150, Period: time.Second, Deadline: span * time.Second, Freshness: 600 * time.Millisecond, Aggregate: Avg}
		if i%2 == 1 {
			spec.Period = 2500 * time.Millisecond
		}
		switch i % 10 {
		case 4:
			spec.Window = 3 // pyramid-served, like the next: the column is not theirs
		case 6:
			spec.Radius = 400
		case 9:
			spec.Strategy = JITStrategy() // its own sampler: never columned
		}
		return spec
	}
	run := func(workers int, steps []time.Duration) ([][]string, core.ColumnStats) {
		nc := NetworkConfig{Seed: 1, Nodes: 3000, RegionSide: 2000, SamplePeriod: time.Second, Service: ServiceConfig{Workers: workers}}
		svc, err := Open(context.Background(), nc, WithResultBuffer(2*span))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer svc.Close()
		all := make([]*Subscription, subs)
		for i := range all {
			at := Pt(300+3*float64(i), 1700-3*float64(i))
			if all[i], err = svc.Subscribe(context.Background(), specOf(i), LinearMotion(at, 1, 0.5)); err != nil {
				t.Fatalf("Subscribe %d: %v", i, err)
			}
		}
		for _, d := range steps {
			if err := svc.Advance(d); err != nil {
				t.Fatalf("Advance: %v", err)
			}
		}
		streams := make([][]string, subs)
		for i, sub := range all {
			got, _ := buffered(sub)
			if want := int(span * time.Second / sub.Spec().Period); len(got) != want {
				t.Fatalf("workers=%d steps=%v sub %d: %d results, want %d", workers, steps, i, len(got), want)
			}
			for _, r := range got {
				if !r.OnTime {
					t.Fatalf("workers=%d steps=%v sub %d: period %d late; the slack must cover the whole step", workers, steps, i, r.K)
				}
				r.EvaluatedAt = 0
				// PyramidHit is the serve route, not the answer, and under a
				// step that spans more boundaries than a pyramid keeps epochs
				// the route depends on how the workers interleave: one may
				// rotate an epoch out between another's ingest and its serve,
				// which then falls back to the cold scan — same values.
				r.PyramidHit = false
				streams[i] = append(streams[i], fmt.Sprintf("%+v", r))
			}
		}
		return streams, svc.engine.ColumnStats()
	}
	fine := []time.Duration{time.Second, time.Second, time.Second, time.Second, time.Second}
	coarse := []time.Duration{span * time.Second}
	// Stepped by the second, six columns: the 1 s class at each of its five
	// boundaries, the 2.5 s class at 2.5 s (popped at 3 s); at 5 s the two
	// share a boundary. In one coarse step, the two first boundaries.
	want, _ := run(1, fine)
	for _, c := range []struct {
		workers int
		steps   []time.Duration
		builds  uint64
	}{{1, fine, 6}, {1, coarse, 2}, {4, coarse, 2}, {4, fine, 6}} {
		got, st := run(c.workers, c.steps)
		if st.Builds != c.builds || st.Scans == 0 {
			t.Fatalf("workers=%d steps=%v: column stats %+v, want %d built and used", c.workers, c.steps, st, c.builds)
		}
		for i := range got {
			if strings.Join(got[i], "\n") != strings.Join(want[i], "\n") {
				t.Errorf("workers=%d steps=%v sub %d: stream differs from the one stepped by the second at Workers 1:\n%v\n%v", c.workers, c.steps, i, got[i], want[i])
			}
		}
	}
}

// TestSubscriberCountFollowsTheEngineRegistry pins the one registry: the
// three surfaces that report live subscriptions — Subscribers, ServiceStats
// and the mobiquery_subscribers gauge — agree with each other and with
// opened − closed through every way a subscription can end.
func TestSubscriberCountFollowsTheEngineRegistry(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling())
	check := func(when string, want int) {
		t.Helper()
		st := svc.Stats()
		var sb strings.Builder
		if err := svc.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		gauge := fmt.Sprintf("mobiquery_subscribers %d\n", want)
		if svc.Subscribers() != want || st.Subscribers != want || int(st.Opened-st.Closed) != want ||
			st.SchedLen != want || !strings.Contains(sb.String(), gauge) {
			t.Errorf("%s: Subscribers %d, Stats %d, opened-closed %d, scheduled %d, gauge line %q present: %v; want %d",
				when, svc.Subscribers(), st.Subscribers, st.Opened-st.Closed, st.SchedLen, gauge,
				strings.Contains(sb.String(), gauge), want)
		}
	}
	check("empty", 0)

	short := centerSpec()
	short.Lifetime = 2 * short.Period
	var subs []*Subscription
	for _, spec := range []QuerySpec{centerSpec(), smallSpec(), short} {
		sub, err := svc.Subscribe(context.Background(), spec, StaticPosition(Pt(225, 225)))
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		subs = append(subs, sub)
	}
	check("three subscribed", 3)

	// A refused Subscribe leaves nothing behind.
	bad := centerSpec()
	bad.Radius = -1
	if _, err := svc.Subscribe(context.Background(), bad, StaticPosition(Pt(0, 0))); err == nil {
		t.Fatal("negative radius accepted")
	}
	check("after a refused subscribe", 3)

	subs[0].Close()
	subs[0].Close() // idempotent: counted once
	check("one closed", 2)

	if err := svc.Advance(3 * short.Period); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if _, closed := buffered(subs[2]); !closed {
		t.Error("the lifetime-bound subscription did not end")
	}
	check("one expired", 1)

	svc.Close()
	check("service closed", 0)
	if _, closed := buffered(subs[1]); !closed {
		t.Error("Service.Close left a Results channel open")
	}
}

// TestSubscribeOnAnEndedContext pins the one path on which a subscription
// can be closing while Subscribe is still returning it: the context was
// already over, so its AfterFunc runs Close at once, on another goroutine,
// with no service lock between the two. Every such subscription must end,
// exactly once, while the clock keeps stepping. Meaningful under -race.
func TestSubscribeOnAnEndedContext(t *testing.T) {
	svc := mustOpen(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stepping := make(chan struct{})
	go func() {
		defer close(stepping)
		for i := 0; i < 50; i++ {
			svc.Advance(500 * time.Millisecond)
		}
	}()
	var subs []*Subscription
	for i := 0; i < 50; i++ {
		sub, err := svc.Subscribe(ctx, smallSpec(), StaticPosition(Pt(225, 225)))
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		subs = append(subs, sub)
	}
	<-stepping
	for _, sub := range subs {
		for range sub.Results() { // ends once the AfterFunc has closed it
		}
	}
	// The channel closes before the query is deregistered; wait that out.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := svc.Stats(); st.Subscribers != 0 || st.Opened != 50 || st.Closed != 50 {
		t.Fatalf("after 50 subscribes on an ended context: %d live, %d opened, %d closed", st.Subscribers, st.Opened, st.Closed)
	}
}

// TestCloseStormAgainstAdvanceAndSubscribe is the contract one schedule lock
// makes more important: Close, Subscribe and Advance meet on it from
// different goroutines, and nothing may be lost or brought back. Eight
// goroutines close half of 2000 subscriptions of four periods and three
// serve classes while one goroutine steps the clock and another subscribes
// replacements, each paced by the step counter so the closes spread over
// every stage of many steps. A last goroutine meanwhile reads and moves live
// cold and JIT subscriptions through every accessor — UpdateWaypoint (a JIT
// one re-plans through planner and cache locks while a worker evaluates under
// the query lock and asks the plan for its period status), Stats,
// PrefetchStats, TraceSpans — so the race detector sees the one session lock
// under each of them, not only under Close. Afterwards the schedule holds
// exactly the live
// subscriptions, every channel carries K = 1, 2, 3, … with no gap, a stream
// ends where its Close cut it, and there is one ledger: periods evaluated by
// class == spans published == Σ per-subscription delivered + dropped, a
// Close meeting a step included — a period is either not evaluated or handed
// over, never evaluated and delivered to no one.
func TestCloseStormAgainstAdvanceAndSubscribe(t *testing.T) {
	const (
		initial = 2000
		closers = 8
		spread  = 24 // steps the closes and the replacements are paced over
		tick    = 250 * time.Millisecond
		settle  = 2500 * time.Millisecond // the longest period
	)
	periods := []time.Duration{time.Second, 1500 * time.Millisecond, 2 * time.Second, settle}
	specOf := func(i int) QuerySpec {
		spec := QuerySpec{Radius: 150, Period: periods[i%len(periods)], Freshness: time.Second, Aggregate: Count}
		switch {
		case i%3 == 0:
			spec.Radius = 50 // below the pyramid threshold: cold scans
		case i%10 == 9:
			spec.Strategy = JITStrategy()
		}
		return spec
	}
	nc := testNetwork()
	nc.Service = ServiceConfig{Workers: 4}
	svc, err := Open(context.Background(), nc, WithResultBuffer(64))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	subscribe := func(i int) *Subscription {
		sub, err := svc.Subscribe(context.Background(), specOf(i), LinearMotion(Pt(100+float64(i%200), 200), 1, 0.5))
		if err != nil {
			t.Errorf("Subscribe %d: %v", i, err)
		}
		return sub
	}
	subs := make([]*Subscription, initial)
	for i := range subs {
		if subs[i] = subscribe(i); subs[i] == nil {
			t.FailNow()
		}
	}
	if err := svc.Advance(settle); err != nil {
		t.Fatalf("Advance: %v", err)
	}

	// paced runs fn(0..n-1), holding call j back until the clock has taken
	// j·spread/n steps of the storm.
	var steps atomic.Int64
	paced := func(n int, fn func(j int)) {
		for j := 0; j < n; j++ {
			for steps.Load() < int64(j*spread/n) {
				runtime.Gosched()
			}
			fn(j)
		}
	}
	var storm sync.WaitGroup
	for c := 0; c < closers; c++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			// Closer c owns the even subscriptions c, c+closers, … of the half.
			paced(initial/2/closers, func(j int) { subs[2*(c+closers*j)].Close() })
		}()
	}
	replacements := make([]*Subscription, initial/2)
	storm.Add(1)
	go func() {
		defer storm.Done()
		paced(len(replacements), func(j int) { replacements[j] = subscribe(initial + j) })
	}()
	// The odd subscriptions of the first generation are never closed; take
	// the cold and the JIT ones among them.
	var touched []int
	for i := 1; i < initial; i += 2 {
		if spec := specOf(i); spec.Radius == 50 || spec.Strategy.Prefetching() {
			touched = append(touched, i)
		}
	}
	storm.Add(1)
	go func() {
		defer storm.Done()
		paced(4*spread, func(j int) {
			i := touched[j*7%len(touched)]
			sub := subs[i]
			if err := sub.UpdateWaypoint(Pt(100+float64(i%200), 200+float64(j))); err != nil {
				t.Errorf("UpdateWaypoint on live sub %d: %v", i, err)
			}
			if led := sub.Stats(); led.NextPeriod < 1 {
				t.Errorf("sub %d: ledger %+v", i, led)
			}
			if _, ok := sub.PrefetchStats(); ok != sub.Spec().Strategy.Prefetching() {
				t.Errorf("sub %d: PrefetchStats ok = %v", i, ok)
			}
			spans := sub.TraceSpans(nil)
			for k := 1; k < len(spans); k++ {
				if spans[k].K != spans[k-1].K+1 {
					t.Errorf("sub %d: trace ring holds period %d after %d", i, spans[k].K, spans[k-1].K)
				}
			}
		})
	}()
	stormOver := make(chan struct{})
	go func() { storm.Wait(); close(stormOver) }()
	for over := false; !over; steps.Add(1) {
		if err := svc.Advance(tick); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		select {
		case <-stormOver:
			over = true
		default:
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	// Quiescent from here: one more step long enough that every live
	// subscription falls due again, so a re-arm the storm lost would show.
	if err := svc.Advance(settle); err != nil {
		t.Fatalf("Advance: %v", err)
	}

	st := svc.Stats()
	if want := initial; st.SchedLen != want || svc.Subscribers() != want || int(st.Opened-st.Closed) != want {
		t.Errorf("scheduled %d, subscribers %d, opened-closed %d; want %d each (a lost re-arm or a resurrected entry)",
			st.SchedLen, svc.Subscribers(), st.Opened-st.Closed, want)
	}
	var byClass uint64
	for _, c := range svc.obs.classCount {
		byClass += c.Load()
	}
	if st.Delivered+st.Dropped != byClass {
		t.Errorf("delivered %d + dropped %d, per-class evaluated %d", st.Delivered, st.Dropped, byClass)
	}
	var perSub, perSubDropped uint64
	now := svc.Now()
	for i, sub := range append(subs, replacements...) {
		got, closed := buffered(sub)
		for j, r := range got {
			if r.K != j+1 {
				t.Fatalf("sub %d: result %d on the channel is period %d", i, j, r.K)
			}
		}
		if wantClosed := i < initial && i%2 == 0; closed != wantClosed {
			t.Errorf("sub %d: channel closed = %v, want %v", i, closed, wantClosed)
		}
		// A live stream has every period up to now (the first generation
		// started at 0, so how many is known), and the ledger says the same;
		// a closed one stops where Close cut it, never past it.
		led := sub.Stats()
		if led.Dropped != 0 || led.Delivered != len(got) {
			t.Errorf("sub %d: ledger %+v beside %d results on the channel", i, led, len(got))
		}
		perSub += uint64(led.Delivered + led.Dropped)
		perSubDropped += uint64(led.Dropped)
		switch all := int(now / sub.Spec().Period); {
		case closed && len(got) >= all:
			t.Errorf("sub %d: closed mid-storm yet holds all %d periods of the run", i, len(got))
		case !closed && i < initial && len(got) != all:
			t.Errorf("sub %d: %d results for %d periods elapsed", i, len(got), all)
		case !closed && len(got) == 0:
			t.Errorf("sub %d: live through a %v step and nothing delivered", i, settle)
		}
	}
	if _, published, _ := svc.FirehoseSpans(nil); byClass != published || byClass != perSub || st.Dropped != perSubDropped {
		t.Errorf("evaluated by class %d, spans published %d, per-subscription delivered+dropped %d; service dropped %d, per-subscription %d",
			byClass, published, perSub, st.Dropped, perSubDropped)
	}
}

// closingSource stands at p and runs closeOther the one time it is asked for
// the position at instant at.
type closingSource struct {
	p          Point
	at         time.Duration
	closeOther func()
}

func (c closingSource) PositionAt(t time.Duration) Point {
	if t == c.at {
		c.closeOther()
	}
	return c.p
}

// TestPeriodEvaluatedBeforeCloseIsDelivered pins, deterministically, the
// outcome one lock hold per period removes: a period evaluated, counted by
// class, and delivered to no one. At Workers 1 two subscriptions of one
// period are stepped in id order; B's motion source closes A when B's first
// boundary is read — after A's first period has been evaluated, before the
// step's re-arm flush. A's stream must hold that period and end behind it,
// its ledger must say so, nothing is counted dropped, and A's batched re-arm
// must be declined rather than resurrect its schedule entry.
func TestPeriodEvaluatedBeforeCloseIsDelivered(t *testing.T) {
	nc := testNetwork()
	nc.Service = ServiceConfig{Workers: 1}
	svc, err := Open(context.Background(), nc)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	spec := smallSpec()
	at := Pt(225, 225)
	a, err := svc.Subscribe(context.Background(), spec, StaticPosition(at))
	if err != nil {
		t.Fatalf("Subscribe A: %v", err)
	}
	b, err := svc.Subscribe(context.Background(), spec, closingSource{p: at, at: spec.Period, closeOther: func() { a.Close() }})
	if err != nil {
		t.Fatalf("Subscribe B: %v", err)
	}
	for step := 1; step <= 2; step++ {
		if err := svc.Advance(spec.Period); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if st := svc.Stats(); st.SchedLen != 1 || st.Subscribers != 1 || st.Dropped != 0 {
			t.Errorf("after step %d: %d scheduled, %d subscribers, %d dropped; want 1, 1, 0", step, st.SchedLen, st.Subscribers, st.Dropped)
		}
	}
	got, closed := buffered(a)
	if len(got) != 1 || got[0].K != 1 || !closed {
		t.Errorf("A's channel: %d results (closed %v), want period 1 and then the end: %+v", len(got), closed, got)
	}
	if st := a.Stats(); st.Delivered != 1 || st.Dropped != 0 || st.NextPeriod != 2 {
		t.Errorf("A's ledger %+v, want one period delivered", st)
	}
	if got, closed := buffered(b); len(got) != 2 || closed {
		t.Errorf("B's channel: %d results (closed %v), want 2 and open", len(got), closed)
	}
}
