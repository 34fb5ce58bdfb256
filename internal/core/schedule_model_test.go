package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// modelQuery is the naive model's view of one handle: what the engine must
// believe about it, kept in plain fields.
type modelQuery struct {
	q       *Query
	id      uint32
	period  sim.Time
	next    sim.Time // boundary of the next unevaluated period
	live    bool
	armed   bool // has a schedule entry, at armedAt
	armedAt sim.Time
	rearm   bool // an evaluation's re-arm sits unflushed in the batch
}

// scheduleModel is the reference the intrusive schedule is checked against:
// a flat list of every handle ever registered, scanned and sorted on every
// pop. No heap, no stored indices.
type scheduleModel struct {
	all     []*modelQuery
	handles map[uint32]*modelQuery // the live handle of each id
}

func (m *scheduleModel) popDue(now sim.Time) []*modelQuery {
	var out []*modelQuery
	for _, mq := range m.all {
		if mq.armed && mq.armedAt <= now {
			out = append(out, mq)
		}
	}
	slices.SortFunc(out, func(a, b *modelQuery) int {
		if c := cmp.Compare(a.armedAt, b.armedAt); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, mq := range out {
		mq.armed = false
	}
	return out
}

// arm is what a re-arm may do in the model: only a live handle takes it.
func (mq *modelQuery) arm(due sim.Time) {
	if mq.live {
		mq.armed, mq.armedAt = true, due
	}
}

// checkIntrusive verifies the engine's schedule against the model: the
// bucket layout is sound (checkBuckets), the armed sets agree, every armed
// query's stored bucket and slot hold its own entry at its due, and every
// unarmed handle says so.
func checkIntrusive(t *testing.T, step int, e *QueryEngine, m *scheduleModel) {
	t.Helper()
	s := e.sched
	checkBuckets(t, step, s)
	want := 0
	for _, mq := range m.all {
		switch {
		case mq.armed:
			want++
			if p := mq.q.slot; p <= 0 {
				t.Fatalf("step %d: query %d should be armed at %v, stored slot %d", step, mq.id, mq.armedAt, p-1)
			}
			if en := s.buckets[mq.q.bucket].entries[mq.q.slot-1]; en.Query != mq.q || en.Due != mq.armedAt {
				t.Fatalf("step %d: query %d's slot holds (%d, %v), want its own entry at %v", step, mq.id, en.ID, en.Due, mq.armedAt)
			}
		case mq.live:
			if mq.q.slot != 0 {
				t.Fatalf("step %d: popped query %d stores slot %d", step, mq.id, mq.q.slot-1)
			}
		default:
			if mq.q.slot != slotRemoved {
				t.Fatalf("step %d: deregistered query %d stores slot %d, want spent", step, mq.id, mq.q.slot-1)
			}
		}
	}
	if s.n != want {
		t.Fatalf("step %d: schedule holds %d entries, model %d", step, s.n, want)
	}
}

// checkBuckets verifies the schedule's structure, not only its order:
// every entry stores its own bucket and slot and carries its bucket's due;
// every live bucket is non-empty, stores its slot in the due-heap and is
// the one the index finds for its due; the due-heap is a heap; the index,
// the heap, the free list and the entry count agree; and the published head
// is the minimum due.
func checkBuckets(t *testing.T, step int, s *Schedule) {
	t.Helper()
	entries := 0
	minDue := sim.Time(headEmpty)
	live := make(map[int32]bool, len(s.dues))
	for i, r := range s.dues {
		bk := &s.buckets[r.b]
		switch {
		case live[r.b]:
			t.Fatalf("step %d: bucket %d sits in the due-heap twice", step, r.b)
		case int(bk.pos) != i:
			t.Fatalf("step %d: due-heap slot %d holds bucket %d, which stores slot %d", step, i, r.b, bk.pos)
		case r.due != bk.due:
			t.Fatalf("step %d: due-heap slot %d keys bucket %d at %v, the bucket is due %v", step, i, r.b, r.due, bk.due)
		case i > 0 && r.due < s.dues[(i-1)/2].due:
			t.Fatalf("step %d: due-heap slot %d sorts before its parent", step, i)
		case len(bk.entries) == 0:
			t.Fatalf("step %d: empty bucket %d (due %v) sits in the due-heap", step, r.b, bk.due)
		}
		if b, ok := s.find(bk.due); !ok || b != r.b {
			t.Fatalf("step %d: the index finds (%d, %v) for due %v, its bucket is %d", step, b, ok, bk.due, r.b)
		}
		live[r.b] = true
		for j, en := range bk.entries {
			if en.Query.slot != int32(j+1) || en.Query.bucket != r.b {
				t.Fatalf("step %d: bucket %d slot %d holds query %d, which stores bucket %d slot %d", step, r.b, j, en.ID, en.Query.bucket, en.Query.slot-1)
			}
			if en.ID != en.Query.id || en.Due != bk.due {
				t.Fatalf("step %d: bucket %d (due %v) slot %d holds (%d, %v) for query %d", step, r.b, bk.due, j, en.ID, en.Due, en.Query.id)
			}
		}
		entries += len(bk.entries)
		minDue = min(minDue, bk.due)
	}
	indexed := 0
	for _, v := range s.index {
		if v != 0 {
			indexed++
		}
	}
	if indexed != len(s.dues) {
		t.Fatalf("step %d: the index holds %d dues, the due-heap %d", step, indexed, len(s.dues))
	}
	for _, b := range s.free {
		if live[b] || len(s.buckets[b].entries) != 0 {
			t.Fatalf("step %d: free bucket %d is live, listed twice or holds %d entries", step, b, len(s.buckets[b].entries))
		}
		live[b] = true // each free bucket once
	}
	if len(live) != len(s.buckets) || len(s.free)+len(s.dues) != len(s.buckets) {
		t.Fatalf("step %d: %d live and %d free buckets in a table of %d", step, len(s.dues), len(s.free), len(s.buckets))
	}
	if entries != s.n {
		t.Fatalf("step %d: buckets hold %d entries, the count says %d", step, entries, s.n)
	}
	if head := s.head.Load(); head != int64(minDue) {
		t.Fatalf("step %d: published head %d, the minimum due is %d", step, head, minDue)
	}
}

// TestIntrusiveScheduleAgainstModel drives seeded random interleavings of
// register, deregister, re-register of a freed id into fresh storage,
// refused re-registration of storage already used, PopDue, immediate and
// batched evaluation and FlushRearms — with deregisters and same-id
// re-registers landing between an evaluation and its flush — through the
// engine and through the naive model above.
// Pop sequences must be identical, in (due, id) order and handle for
// handle; every armed query's stored slot must hold its own entry; and a
// deregistered handle never pops or re-arms, whatever still carries it.
func TestIntrusiveScheduleAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScheduleModel(t, seed)
		})
	}
}

func runScheduleModel(t *testing.T, seed int64) {
	const idSpace = 96
	e := scheduleTestEngine(t)
	rng := rand.New(rand.NewSource(seed))
	m := &scheduleModel{handles: make(map[uint32]*modelQuery)}
	rb := e.NewRearmBatch()
	now := sim.Time(0)
	// held are handles a driver still carries from a pop: they stay
	// evaluable after their query was deregistered, as a worker's would.
	var held []*modelQuery

	register := func(id uint32) {
		if m.handles[id] != nil {
			return
		}
		period := sim.Time(1+rng.Intn(5)) * sim.Time(time.Second)
		q := new(Query)
		if err := e.RegisterQuery(q, id, 5, geom.Pt(50, 50), TemporalSpec{Period: period}, now, nil); err != nil {
			t.Fatal(err)
		}
		mq := &modelQuery{q: q, id: id, period: period, next: now + period, live: true}
		mq.arm(mq.next)
		m.all = append(m.all, mq)
		m.handles[id] = mq
	}
	deregister := func(id uint32) {
		mq := m.handles[id]
		if mq == nil {
			e.Deregister(id) // unknown id: a no-op
			return
		}
		if rng.Intn(2) == 0 {
			e.Deregister(id)
		} else {
			mq.q.Deregister()
		}
		mq.live, mq.armed = false, false
		delete(m.handles, id)
	}
	// evaluate drives mq one period forward if one is due, immediately or
	// into the batch, on whatever the handle's liveness is.
	evaluate := func(mq *modelQuery, batched bool) {
		var wr WindowResult
		var ok bool
		if batched {
			wr, ok = mq.q.EvaluateDue(now, rb)
		} else {
			wr, ok = mq.q.EvaluateDue(now, nil)
		}
		if wantOK := mq.next <= now; ok != wantOK {
			t.Fatalf("EvaluateDue(query %d, %v) ok=%v, next boundary %v", mq.id, now, ok, mq.next)
		}
		if !ok {
			return
		}
		if wr.Due != mq.next {
			t.Fatalf("query %d evaluated boundary %v, model expects %v", mq.id, wr.Due, mq.next)
		}
		mq.next += mq.period
		if batched {
			mq.rearm = true
		} else {
			mq.arm(mq.next)
		}
	}
	flush := func() {
		e.FlushRearms(rb)
		for _, mq := range m.all {
			if mq.rearm {
				mq.rearm = false
				mq.arm(mq.next)
			}
		}
	}

	for id := uint32(1); id <= idSpace/2; id++ {
		register(id)
	}
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(11); {
		case op < 2:
			register(uint32(1 + rng.Intn(idSpace)))
		case op < 4:
			deregister(uint32(1 + rng.Intn(idSpace)))
		case op == 4:
			// Re-register an id the moment it is freed, while re-arms of the
			// old handle may still sit in the batch.
			id := uint32(1 + rng.Intn(idSpace))
			deregister(id)
			register(id)
		case op == 10:
			// Registering storage a second time — live, popped or spent, under
			// a free id — is refused and changes nothing: a spent handle stays
			// spent, so its stale re-arms never reach a later registration.
			mq := m.all[rng.Intn(len(m.all))]
			free := uint32(idSpace + 1)
			if err := e.RegisterQuery(mq.q, free, 5, geom.Pt(50, 50), TemporalSpec{Period: time.Second}, now, nil); err == nil {
				t.Fatalf("step %d: storage of query %d (live=%v) registered again", step, mq.id, mq.live)
			}
			if e.Lookup(free) != nil {
				t.Fatalf("step %d: a refused registration published id %d", step, free)
			}
		case op < 7:
			now += sim.Time(rng.Int63n(int64(2 * time.Second)))
			// Unflushed re-arms must reach the schedule before a pop that
			// should see them.
			flush()
			got := e.PopDue(now, nil)
			want := m.popDue(now)
			if len(got) != len(want) {
				t.Fatalf("step %d: popped %d entries at %v, model %d", step, len(got), now, len(want))
			}
			for i, de := range got {
				if de.Query != want[i].q || de.ID != want[i].id || de.Due != want[i].armedAt {
					t.Fatalf("step %d: pop %d is (%d, %v), model (%d, %v)", step, i, de.ID, de.Due, want[i].id, want[i].armedAt)
				}
				if !want[i].live {
					t.Fatalf("step %d: deregistered query %d popped", step, de.ID)
				}
			}
			held = append(held[:0], want...)
		case op < 9:
			// Drain some of the held handles the way a worker does: every
			// period due by now, re-arms batched — with churn in between.
			for _, mq := range held {
				if rng.Intn(4) == 0 {
					continue
				}
				for mq.next <= now {
					evaluate(mq, true)
				}
				if rng.Intn(8) == 0 {
					deregister(mq.id)
					if rng.Intn(2) == 0 {
						register(mq.id)
					}
				}
			}
			if rng.Intn(2) == 0 {
				flush()
			}
		case op == 9:
			// A direct evaluation by handle with an immediate re-arm, on any
			// handle ever registered — armed, popped or spent.
			mq := m.all[rng.Intn(len(m.all))]
			if mq.rearm {
				// An immediate re-arm and a pending batched one of the same
				// handle would race to set its boundary; a driver never mixes
				// them on one query, so neither does the test.
				break
			}
			evaluate(mq, false)
		}
		checkIntrusive(t, step, e, m)
	}
	flush()
	checkIntrusive(t, -1, e, m)
	if len(m.handles) == 0 || e.sched.Len() == 0 {
		t.Fatal("model test degenerated: nothing left scheduled")
	}
}
