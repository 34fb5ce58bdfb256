package mobiquery

// Tests of a subscription's serve machinery, driven through Subscribe and
// Advance: the install-once rule for a predicted profile stream, and the
// inert on-demand path.

import (
	"context"
	"testing"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
)

const (
	pathPeriod   = time.Second
	pathDeadline = 100 * time.Millisecond
	pathRadius   = 60.0
)

// pathService is a 1 km square of 2500 nodes, every node sampling once a
// second in phase, on a manual clock.
func pathService(t *testing.T) *Service {
	t.Helper()
	nc := NetworkConfig{
		Seed:         1,
		Nodes:        2500,
		RegionSide:   1000,
		SamplePeriod: time.Second,
		Service:      ServiceConfig{Workers: 2},
	}
	svc, err := Open(context.Background(), nc, WithAlignedSampling())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// pathSpec is the shared contract under strategy s.
func pathSpec(s Strategy) QuerySpec {
	return QuerySpec{
		Radius:    pathRadius,
		Period:    pathPeriod,
		Deadline:  pathDeadline,
		Freshness: time.Second,
		Strategy:  s,
	}
}

// scriptedMotion is a ProfileSource with a hand-written ground truth and
// prediction stream.
type scriptedMotion struct {
	pos      func(t time.Duration) Point
	profiles []mobility.TimedProfile
}

func (m scriptedMotion) PositionAt(t time.Duration) Point { return m.pos(t) }

func (m scriptedMotion) predictedProfiles() []mobility.TimedProfile { return m.profiles }

// served takes the one result the last Advance delivered to sub, and the
// serve class its span recorded.
func served(t *testing.T, sub *Subscription) (QueryResult, obs.Class) {
	t.Helper()
	got, _ := buffered(sub)
	if len(got) != 1 {
		t.Fatalf("step delivered %d results, want 1", len(got))
	}
	spans := sub.TraceSpans(nil)
	return got[0], spans[len(spans)-1].Class
}

// TestStreamProfileInstalledOnceBeforeItsBoundary subscribes a
// ProfileSource with one prediction delivered by the epoch and a second
// delivered between the second and third boundaries. Subscribe plans from
// the first; the second is installed exactly once, ahead of the first
// boundary at or after its delivery.
func TestStreamProfileInstalledOnceBeforeItsBoundary(t *testing.T) {
	svc := pathService(t)
	start := geom.Pt(300, 300)
	first := lineProfile(start, geom.V(5, 0), 0, pathPeriod)
	deliverAt := 2*pathPeriod + pathPeriod/2
	second := lineProfile(geom.Pt(320, 330), geom.V(0, 5), deliverAt, pathPeriod)
	src := scriptedMotion{
		pos:      func(time.Duration) Point { return start },
		profiles: []mobility.TimedProfile{{Deliver: 0, Profile: first}, {Deliver: deliverAt, Profile: second}},
	}
	sub, err := svc.Subscribe(context.Background(), pathSpec(JITStrategy()), src)
	if err != nil {
		t.Fatal(err)
	}
	centre := func(k int) geom.Point {
		t.Helper()
		e, ok := sub.planner.EntryFor(time.Duration(k) * pathPeriod)
		if !ok {
			t.Fatalf("no plan entry for boundary %d", k)
		}
		return e.Center
	}
	if st, _ := sub.PrefetchStats(); st.Replans != 0 {
		t.Fatalf("Subscribe counted %d replans", st.Replans)
	}
	if got, want := centre(4), first.PredictAt(4*pathPeriod); got != want {
		t.Fatalf("plan starts from %v at boundary 4, want the delivered prediction's %v, not the bootstrap", got, want)
	}

	for k := 1; k <= 4; k++ {
		wantReplans := 0
		if k >= 3 {
			wantReplans = 1 // boundary 4 follows the delivery too, and installs nothing twice
		}
		if err := svc.Advance(pathPeriod); err != nil {
			t.Fatal(err)
		}
		if r, _ := served(t, sub); r.K != k {
			t.Fatalf("boundary %d: evaluated K=%d", k, r.K)
		}
		st, _ := sub.PrefetchStats()
		if st.Replans != wantReplans {
			t.Fatalf("after boundary %d: %d replans, want %d", k, st.Replans, wantReplans)
		}
		if wantReplans == 1 && st.Epoch != deliverAt {
			t.Errorf("boundary %d: plan epoch %v, want the delivery instant %v", k, st.Epoch, deliverAt)
		}
	}
	if got, want := centre(5), second.PredictAt(5*pathPeriod); got != want {
		t.Errorf("plan centred at %v for boundary 5, want the second prediction's %v", got, want)
	}
}

// TestUnplannedPathIsInert pins the shape an on-demand subscription relies
// on: it attaches nothing, has no prefetch ledger, ignores re-plans and
// classifies its serves cold. That attaching it allocates nothing is
// TestSubscribeAllocations'.
func TestUnplannedPathIsInert(t *testing.T) {
	svc := pathService(t)
	start := geom.Pt(500, 500)
	sub, err := svc.Subscribe(context.Background(), pathSpec(OnDemandStrategy()), StaticPosition(start))
	if err != nil {
		t.Fatal(err)
	}
	if sub.planner != nil || sub.pyramid != nil {
		t.Fatal("on-demand subscription attached serve machinery")
	}
	if _, ok := sub.PrefetchStats(); ok {
		t.Error("on-demand subscription has prefetch stats")
	}
	if err := sub.UpdateWaypoint(start); err != nil {
		t.Fatal(err)
	}
	if err := svc.Advance(pathPeriod); err != nil {
		t.Fatal(err)
	}
	if _, class := served(t, sub); class != obs.ClassCold {
		t.Errorf("on-demand serve classified %v", class)
	}
}
