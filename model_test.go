package mobiquery

import (
	"bytes"
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobiquery/internal/geom"
)

// modelService is the naive reference service: every node in one slice,
// every subscription in another, and an advance that walks both linearly —
// no schedule, no index, no caches, no concurrency. It shares with Service
// only its inputs: the seeded placement and the sampling phases.
type modelService struct {
	nc    NetworkConfig
	now   time.Duration
	nodes []modelNode // in the grid's scan order: (cell row, cell column, id)
	subs  []*modelSub
}

// modelBuffer is the result buffer of the real service under test.
const modelBuffer = 4

type modelNode struct {
	pos   Point
	phase time.Duration
}

type modelSub struct {
	spec     QuerySpec
	src      MotionSource // a waypoint replaces it with a static position
	t0       time.Duration
	closed   bool
	buffered int // results handed over since the harness last drained
	stats    SubscriptionStats
	results  []QueryResult
	window   []modelPeriod // a windowed spec's last Window periods, oldest first
}

// modelPeriod is one period's scan of its disk, at its own boundary and
// position, as a windowed result merges it.
type modelPeriod struct {
	due                       time.Duration
	contributors, area, stale int
	sum, lo, hi               float64
	maxStaleness              time.Duration
}

func newModel(nc NetworkConfig) *modelService {
	m := &modelService{nc: nc}
	rng := rand.New(rand.NewSource(nc.Seed))
	for i := 0; i < nc.Nodes; i++ {
		m.nodes = append(m.nodes, modelNode{geom.Square(nc.RegionSide).UniformPoint(rng), samplePhase(nc.Seed, int32(i), nc.SamplePeriod)})
	}
	// Sums fold in scan order: RegionSide/32 cells row by row, ascending id
	// within a cell, which the stable sort keeps.
	cell := nc.RegionSide / 32
	slices.SortStableFunc(m.nodes, func(a, b modelNode) int {
		return cmp.Or(cmp.Compare(int(a.pos.Y/cell), int(b.pos.Y/cell)), cmp.Compare(int(a.pos.X/cell), int(b.pos.X/cell)))
	})
	return m
}

func (s *modelSub) due() time.Duration {
	return s.t0 + time.Duration(s.stats.NextPeriod)*s.spec.Period
}

// advance serves every period due by the new time. A subscription with a
// period due serves all of them, then ends right behind the last one its
// Lifetime holds. The first period it serves in the step is the boundary the
// service popped and built its class's pyramid epoch for, so an on-demand
// spec with a large area or a lookback window is pyramid-served there; the
// catch-up periods after it have no epoch and fold cold.
func (m *modelService) advance(d time.Duration) {
	m.now += d
	for _, s := range m.subs {
		pyramid := !s.spec.Strategy.Prefetching() && (s.spec.Window > 1 || s.spec.Radius >= 6*m.nc.RegionSide/32)
		for !s.closed && s.due() <= m.now {
			m.evaluate(s, s.due(), pyramid)
			pyramid = false
			s.closed = s.spec.Lifetime > 0 && s.due() > s.t0+s.spec.Lifetime
		}
	}
}

func (m *modelService) evaluate(s *modelSub, due time.Duration, pyramid bool) {
	pos := s.src.PositionAt(due - s.t0)
	p := modelPeriod{due: due, lo: math.Inf(1), hi: math.Inf(-1)}
	for _, n := range m.nodes {
		if n.pos.Dist2(pos) > s.spec.Radius*s.spec.Radius {
			continue
		}
		p.area++
		sample := n.phase + (due-n.phase)/m.nc.SamplePeriod*m.nc.SamplePeriod
		if due < n.phase || (s.spec.Freshness > 0 && due-sample > s.spec.Freshness) {
			p.stale++
			continue
		}
		v := m.nc.Field.Sample(n.pos, sample)
		p.contributors++
		p.sum, p.lo, p.hi = p.sum+v, min(p.lo, v), max(p.hi, v)
		p.maxStaleness = max(p.maxStaleness, due-sample)
	}
	// A windowed result sums its last Window periods' scans, oldest first,
	// and ages each one's staleness by the boundaries since its own.
	periods := []modelPeriod{p}
	r := QueryResult{K: s.stats.NextPeriod, Deadline: due, Received: true, EvaluatedAt: m.now, Fidelity: 1, PyramidHit: pyramid}
	if s.spec.Window > 1 {
		if s.window = append(s.window, p); len(s.window) > s.spec.Window {
			s.window = s.window[1:]
		}
		periods, r.WindowPeriods = s.window, len(s.window)
	}
	sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	for _, w := range periods {
		r.Contributors += w.contributors
		r.AreaNodes += w.area
		r.StaleNodes += w.stale
		sum, lo, hi = sum+w.sum, min(lo, w.lo), max(hi, w.hi)
		if w.contributors > 0 {
			r.MaxStaleness = max(r.MaxStaleness, w.maxStaleness+due-w.due)
		}
	}
	n := float64(r.Contributors)
	r.Value = map[AggKind]float64{0: sum / n, Count: n, Sum: sum, Min: lo, Max: hi}[s.spec.Aggregate]
	if n == 0 && s.spec.Aggregate != Count && s.spec.Aggregate != Sum {
		r.Value = math.NaN() // the average, minimum or maximum of nothing
	}
	if r.AreaNodes > 0 {
		r.Fidelity = n / float64(r.AreaNodes)
	}
	if r.OnTime = m.now <= due+s.spec.Deadline; !r.OnTime {
		r.Lateness = m.now - due
		s.stats.Late++
	}
	r.Success = r.OnTime && r.Fidelity >= SuccessThreshold
	if s.buffered < modelBuffer {
		s.results = append(s.results, r)
		s.buffered++
		s.stats.Delivered++
	} else {
		s.stats.Dropped++
	}
	s.stats.NextPeriod++
}

// FuzzServiceAgainstModel decodes its input into an operation sequence and
// requires the real service, at Workers 1 and 4, and the model to give equal
// result streams and SubscriptionStats after every operation. The first byte
// picks the field; then each operation is a digit, followed by its arguments:
//
//	0 p r d f a k x y [vx vy]    subscribe (k=1: linear motion with vx, vy)
//	1 p r d f a l k x y [vx vy]  subscribe with a Lifetime of l+1 periods
//	2 i                          close subscription i
//	3 i x y                      send subscription i a waypoint
//	4 t                          advance
//	5 p r d f a w k x y [vx vy]  subscribe with a Window of w+2 periods
//
// Each argument indexes its table below modulo the table's length, so any
// input decodes; spaces are skipped. The digits 6 to 9 are the operations
// 1 to 4 again. PyramidHit, the serve route, is compared too: the model
// predicts it from the popped batch. A pyramid serve groups Sum by tile, so
// on the smooth field every radius stays below the pyramid's threshold and
// a windowed subscribe drops its window.
func FuzzServiceAgainstModel(f *testing.F) {
	f.Add([]byte("0 003110055 111022112351 43 3082 45 44 20 022013009 44 40 45 3175 43"))
	f.Add([]byte("1 001100055 02311410066 1020202044 000013009 43 45 3100 44 21 45 44"))
	f.Add([]byte("01000000000100000001099")) // an Avg subscription with no node in its disk
	// Two windowed subscriptions, one moving, through coarse advances: each
	// step's first period is pyramid-served, its catch-ups fold cold, and
	// every result merges periods of both routes.
	f.Add([]byte("0 5030102055 45 5121220136 61 44 3027 45 21 43"))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, workers := range []int{1, 4} {
			runAgainstModel(t, in, workers)
		}
	})
}

func runAgainstModel(t *testing.T, in []byte, workers int) {
	in = bytes.ReplaceAll(in, []byte(" "), nil)
	pick := func(n int) (v int) {
		if len(in) > 0 {
			v, in = int(in[0]-'0')%n, in[1:]
		}
		return v
	}
	at := func() Point { return Pt(float64(pick(10))*45+10, float64(pick(10))*45+10) }
	nc := DefaultNetworkConfig().withDefaults()
	radii := []float64{25, 60, 100, 150}
	smooth := pick(2) == 1
	if smooth {
		nc.Field, radii = GradientField(20, 0.013, -0.007), []float64{25, 45, 60, 80}
	}
	nc.Service.Workers = workers
	svc, err := Open(context.Background(), nc, WithResultBuffer(modelBuffer))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	m := newModel(nc)
	var subs []*Subscription
	for len(in) > 0 && len(subs) < 24 {
		op := pick(10)
		if op != 5 {
			op %= 5
		}
		switch op {
		case 0, 1, 5:
			period := []time.Duration{time.Second, 1500 * time.Millisecond, 2 * time.Second}[pick(3)]
			spec := QuerySpec{Period: period, Radius: radii[pick(4)], Deadline: time.Duration(pick(2)) * 300 * time.Millisecond,
				Freshness: []time.Duration{0, 500 * time.Millisecond, period}[pick(3)], Aggregate: []AggKind{0, Count, Sum, Min, Max}[pick(5)]}
			if op == 1 {
				spec.Lifetime = time.Duration(1+pick(3)) * period
			}
			if op == 5 {
				if w := 2 + pick(3); !smooth {
					spec.Window = w
				}
			}
			linear := pick(2) == 1
			var src MotionSource = StaticPosition(at())
			if linear {
				src = LinearMotion(src.PositionAt(0), float64(pick(7)-3), float64(pick(7)-3))
			}
			sub, err := svc.Subscribe(context.Background(), spec, src)
			if err != nil {
				t.Fatalf("Subscribe(%+v): %v", spec, err)
			}
			subs = append(subs, sub)
			m.subs = append(m.subs, &modelSub{spec: spec, src: src, t0: m.now, stats: SubscriptionStats{NextPeriod: 1}})
		case 2:
			if i := pick(24); i < len(subs) {
				subs[i].Close()
				m.subs[i].closed = true
			}
		case 3:
			if i, p := pick(24), at(); i < len(subs) {
				if err := subs[i].UpdateWaypoint(p); (err != nil) != m.subs[i].closed {
					t.Fatalf("sub %d: UpdateWaypoint error %v, model closed %v", i, err, m.subs[i].closed)
				}
				m.subs[i].src = StaticPosition(p)
			}
		case 4:
			d := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2500 * time.Millisecond, 7 * time.Second}[pick(6)]
			if err := svc.Advance(d); err != nil {
				t.Fatal(err)
			}
			m.advance(d)
		}
		// Drain what each subscriber was handed: nothing sends between
		// operations, so the channel holds exactly the step's deliveries.
		for i, sub := range subs {
			ms := m.subs[i]
			if len(sub.Results()) != ms.buffered || sub.Stats() != ms.stats {
				t.Fatalf("sub %d: %d results buffered, model %d; stats %+v, model %+v", i, len(sub.Results()), ms.buffered, sub.Stats(), ms.stats)
			}
			for ; ms.buffered > 0; ms.buffered-- {
				got, want := <-sub.Results(), ms.results[len(ms.results)-ms.buffered]
				same := math.Float64bits(got.Value) == math.Float64bits(want.Value)
				if got.Value, want.Value = 0, 0; !same || got != want {
					t.Fatalf("sub %d:\n got %+v\nwant %+v", i, got, want)
				}
			}
		}
	}
}
