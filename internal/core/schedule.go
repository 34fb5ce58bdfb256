package core

import (
	"math"
	"sync"
	"sync/atomic"

	"mobiquery/internal/sim"
)

// DueEntry is one scheduled period boundary: query ID's next result is due
// at Due. Query is its handle, so whoever pops the entry drives the query
// without resolving ID (kept inline: the tie-break must not chase a pointer).
type DueEntry struct {
	ID    uint32
	Due   sim.Time
	Query *Query
}

// dueLess orders entries by (Due, ID), a total order.
func dueLess(a, b DueEntry) bool {
	if a.Due != b.Due {
		return a.Due < b.Due
	}
	return a.ID < b.ID
}

// headEmpty is the published head of an empty schedule: later than any due.
const headEmpty = math.MaxInt64

// Schedule is the due-period scheduler behind O(due) ticking: a priority
// queue of (Due, ID) pairs, one per live temporal query, from which a clock
// step pops exactly the queries whose next boundary it reached.
//
// It is one 4-ary min-heap behind one leaf mutex (nothing else is acquired
// under it), safe for concurrent use. The heap is intrusive: each scheduled
// query stores its own slot (Query.heapPos, maintained by every sift under
// mu), so upsert and remove by handle are O(log n) with no index beside the
// heap. Arity 4 was chosen over a binary heap and a hierarchical timing
// wheel after benchmarking (BenchmarkSchedule* in schedule_test.go): fewer
// cache-missing hops per sift than arity 2, and no tick cascading or
// resolution floor on periods. dueLess is a total order, so the heap order
// is the delivery order, (due, id), whatever the insertion interleaving —
// which keeps the delivery contract and the digest pins blind to Shards and
// Workers. One lock suffices because the period path never wants it from
// two goroutines at once: workers defer their re-arms into RearmBatches
// that the driver flushes after the fan-out.
type Schedule struct {
	mu   sync.Mutex
	heap []DueEntry
	// head is heap[0].Due (headEmpty when empty), written under mu and read
	// lock-free by PopDue's idle fast path.
	head atomic.Int64
}

// NewSchedule returns an empty scheduler.
func NewSchedule() *Schedule {
	s := &Schedule{}
	s.head.Store(headEmpty)
	return s
}

// Upsert schedules (or reschedules) q's next boundary at due. A handle
// spent by Remove is left out.
func (s *Schedule) Upsert(q *Query, due sim.Time) {
	s.mu.Lock()
	s.upsert(q, due)
	s.publishHead()
	s.mu.Unlock()
}

// Remove drops q from the schedule for good: its entry goes if it has one
// (a popped, not yet re-armed query does not, which its stored slot says)
// and every later Upsert of the handle is declined. Both serialize on mu,
// so a re-arm racing a deregistration either lands first and is removed
// here, or finds the handle spent: no entry is resurrected.
func (s *Schedule) Remove(q *Query) {
	s.mu.Lock()
	if q.heapPos > 0 {
		s.removeAt(int(q.heapPos) - 1)
		s.publishHead()
	}
	q.heapPos = heapRemoved
	s.mu.Unlock()
}

// PopDue removes and returns every entry with Due <= now, appended to buf
// in ascending (Due, ID) order. Popped queries stay out of the schedule
// until rescheduled (EvaluateDue re-arms a query at its next boundary), so
// the caller owns driving each popped query forward. When nothing is due
// the call is one atomic load, no lock and no allocation — this is what
// keeps an idle Advance independent of the subscriber count. Otherwise the
// due prefix is popped under one lock hold, so an Upsert or Remove racing
// it (a Close during an Advance) waits for the whole drain: at most the
// step's pop stage, ~0.15 s when a million entries fall due at once and
// sub-millisecond at realistic batch sizes — accepted.
func (s *Schedule) PopDue(now sim.Time, buf []DueEntry) []DueEntry {
	if s.head.Load() > int64(now) {
		return buf
	}
	s.mu.Lock()
	for len(s.heap) > 0 && s.heap[0].Due <= now {
		buf = append(buf, s.heap[0])
		s.removeAt(0)
	}
	s.publishHead()
	s.mu.Unlock()
	return buf
}

// Len returns the number of scheduled queries.
func (s *Schedule) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}

// publishHead republishes the minimum due. Caller holds s.mu.
func (s *Schedule) publishHead() {
	if len(s.heap) == 0 {
		s.head.Store(headEmpty)
		return
	}
	s.head.Store(int64(s.heap[0].Due))
}

// upsert schedules (or reschedules) q at due, unless Remove has spent the
// handle. Caller holds s.mu and republishes the head once it is done.
func (s *Schedule) upsert(q *Query, due sim.Time) {
	switch {
	case q.heapPos < 0:
	case q.heapPos > 0:
		i := int(q.heapPos) - 1
		old := s.heap[i].Due
		s.heap[i].Due = due
		if due < old {
			s.siftUp(i)
		} else if due > old {
			s.siftDown(i)
		}
	default:
		s.heap = append(s.heap, DueEntry{ID: q.id, Due: due, Query: q})
		s.siftUp(len(s.heap) - 1)
	}
}

// removeAt deletes the entry at heap index i. Caller holds s.mu.
func (s *Schedule) removeAt(i int) {
	last := len(s.heap) - 1
	s.heap[i].Query.heapPos = 0
	if i != last {
		s.heap[i] = s.heap[last]
	}
	s.heap[last] = DueEntry{}
	s.heap = s.heap[:last]
	if i < last {
		// The displaced entry may belong above or below its new slot.
		s.siftDown(i)
		s.siftUp(i)
	}
}

// arity is the heap branching factor.
const arity = 4

// place stores e at heap index i and records the slot on its query.
func (s *Schedule) place(i int, e DueEntry) {
	s.heap[i] = e
	e.Query.heapPos = int32(i + 1)
}

func (s *Schedule) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / arity
		if !dueLess(e, s.heap[parent]) {
			break
		}
		s.place(i, s.heap[parent])
		i = parent
	}
	s.place(i, e)
}

func (s *Schedule) siftDown(i int) {
	n := len(s.heap)
	e := s.heap[i]
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		min := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if dueLess(s.heap[c], s.heap[min]) {
				min = c
			}
		}
		if !dueLess(s.heap[min], e) {
			break
		}
		s.place(i, s.heap[min])
		i = min
	}
	s.place(i, e)
}
