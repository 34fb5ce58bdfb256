package core

import (
	"math"
	"slices"
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

// headEmpty is the published head of an empty schedule: later than any due.
const headEmpty = math.MaxInt64

// Schedule is the due-period scheduler behind O(due) ticking: one (Due, ID)
// entry per live temporal query, from which a clock step pops exactly the
// queries whose next boundary it reached.
//
// It is keyed by exact due: one bucket of entries, in no order, per
// distinct due, and a binary min-heap of those dues — a calendar queue
// (Brown, CACM 31(10), 1988) without its resolution floor, since the keys
// are exact and nothing is rounded. A query's boundaries are t0 + k·Period
// on a tick-aligned clock, so a session's dues are few and each is shared
// by many queries: popping a boundary takes its whole bucket and sorts it
// by id, which keeps the delivery order (due, id) by construction, whatever
// the insertion interleaving — the delivery contract and the digest pins
// stay blind to Workers. An entry pays no root-to-leaf sift;
// only a bucket opening or closing touches the due-heap. The worst case is
// every query on its own due (manual-clock tests, BenchmarkScheduleCycle):
// the due-heap is then as deep as a heap of all entries, and each re-arm
// closes one bucket and opens another.
//
// The schedule is intrusive: a scheduled query stores its bucket (an index
// into the bucket table, which only grows) and its slot in it (Query.bucket
// and Query.slot, written under mu), so upsert and remove by handle need no
// position map and a remove is a swap-remove. One leaf mutex guards it all
// (nothing else is acquired under it), and one suffices because the period
// path never wants it from two goroutines at once: workers defer their
// re-arms into RearmBatches that the driver flushes after the fan-out.
// Emptied buckets keep their storage for the next new due, so a steady
// state allocates nothing.
type Schedule struct {
	mu sync.Mutex
	// buckets is the bucket table; free lists the emptied ones.
	buckets []bucket
	free    []int32
	// dues orders the live buckets, and index finds the live bucket of a due
	// (see find); shift is 64 - log2(len(index)).
	dues  []dueRef
	index []int32
	shift uint8
	// last is the bucket the previous upsert filled: a flush re-arms runs of
	// equal due, and those skip the index.
	last int32
	n    int
	// keys is PopDue's sort scratch.
	keys []uint64
	// head is dues[0].due (headEmpty when empty), written under mu and read
	// lock-free by PopDue's idle fast path.
	head atomic.Int64
}

// bucket holds the entries due at due, in no order; an empty one is free.
type bucket struct {
	due     sim.Time
	entries []DueEntry
	// pos is the bucket's index in Schedule.dues while it is live.
	pos int32
}

// dueRef is one element of the due-heap: a live bucket and its due, the
// key kept inline so a sift compares without reading the table.
type dueRef struct {
	due sim.Time
	b   int32
}

// NewSchedule returns an empty scheduler.
func NewSchedule() *Schedule {
	s := &Schedule{index: make([]int32, 8), shift: 64 - 3}
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
	if q.slot > 0 {
		s.take(q)
		s.publishHead()
	}
	q.slot = slotRemoved
	s.mu.Unlock()
}

// PopDue removes and returns every entry with Due <= now, appended to buf
// in ascending (Due, ID) order. Popped queries stay out of the schedule
// until rescheduled (EvaluateDue re-arms a query at its next boundary), so
// the caller owns driving each popped query forward. When nothing is due
// the call is one atomic load, no lock and no allocation — this is what
// keeps an idle Advance independent of the subscriber count. Otherwise the
// due buckets are popped under one lock hold, so an Upsert or Remove racing
// it (a Close during an Advance) waits for the whole drain: at most the
// step's pop stage — on a 2-vCPU Xeon ~30 ms when a million entries of
// one due, armed in id order by the previous step's flush, fall due at
// once (0.1 s if they were armed in random order, which the sort pays),
// and microseconds at realistic batch sizes — accepted.
func (s *Schedule) PopDue(now sim.Time, buf []DueEntry) []DueEntry {
	if s.head.Load() > int64(now) {
		return buf
	}
	s.mu.Lock()
	for len(s.dues) > 0 && s.dues[0].due <= now {
		b := s.dues[0].b
		bk := &s.buckets[b]
		// Sort the bucket by id as packed keys, id<<32 | slot: an ordered
		// sort compares inline, where a comparator costs a call per compare.
		keys := slices.Grow(s.keys[:0], len(bk.entries))
		buf = slices.Grow(buf, len(bk.entries))
		for i, en := range bk.entries {
			en.Query.slot = 0
			keys = append(keys, uint64(en.ID)<<32|uint64(i))
		}
		slices.Sort(keys)
		for _, k := range keys {
			buf = append(buf, bk.entries[uint32(k)])
		}
		s.keys = keys
		s.n -= len(bk.entries)
		clear(bk.entries)
		bk.entries = bk.entries[:0]
		s.close(b)
	}
	s.publishHead()
	s.mu.Unlock()
	return buf
}

// Len returns the number of scheduled queries.
func (s *Schedule) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// publishHead republishes the minimum due. Caller holds s.mu.
func (s *Schedule) publishHead() {
	if len(s.dues) == 0 {
		s.head.Store(headEmpty)
		return
	}
	s.head.Store(int64(s.dues[0].due))
}

// upsert schedules (or reschedules) q at due, unless Remove has spent the
// handle. Caller holds s.mu and republishes the head once it is done.
func (s *Schedule) upsert(q *Query, due sim.Time) {
	switch {
	case q.slot < 0:
		return
	case q.slot > 0:
		if s.buckets[q.bucket].due == due {
			return
		}
		s.take(q)
	}
	b := s.last
	if int(b) >= len(s.buckets) || s.buckets[b].due != due || len(s.buckets[b].entries) == 0 {
		var ok bool
		if b, ok = s.find(due); !ok {
			b = s.open(due)
		}
		s.last = b
	}
	bk := &s.buckets[b]
	bk.entries = append(bk.entries, DueEntry{ID: q.id, Due: due, Query: q})
	q.bucket, q.slot = b, int32(len(bk.entries))
	s.n++
}

// take swap-removes q's entry from its bucket, closing the bucket if that
// empties it. Caller holds s.mu.
func (s *Schedule) take(q *Query) {
	b := q.bucket
	bk := &s.buckets[b]
	i, last := int(q.slot)-1, len(bk.entries)-1
	if i != last {
		bk.entries[i] = bk.entries[last]
		bk.entries[i].Query.slot = int32(i + 1)
	}
	bk.entries[last] = DueEntry{}
	bk.entries = bk.entries[:last]
	q.slot = 0
	s.n--
	if last == 0 {
		s.close(b)
	}
}

// open makes a live, empty bucket for due, recycling a free one if there
// is one. Caller holds s.mu and fills the bucket before releasing it.
func (s *Schedule) open(due sim.Time) int32 {
	var b int32
	if n := len(s.free); n > 0 {
		b = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		b = int32(len(s.buckets))
		s.buckets = append(s.buckets, bucket{})
	}
	s.buckets[b].due = due
	if 2*(len(s.dues)+1) > len(s.index) {
		s.grow()
	}
	s.place(b)
	s.dues = append(s.dues, dueRef{due: due, b: b})
	s.up(len(s.dues) - 1)
	return b
}

// close retires the emptied bucket b: out of the due-heap and the index,
// onto the free list with its storage. Caller holds s.mu.
func (s *Schedule) close(b int32) {
	bk := &s.buckets[b]
	s.unindex(bk.due)
	s.free = append(s.free, b)
	i, last := int(bk.pos), len(s.dues)-1
	r := s.dues[last]
	s.dues = s.dues[:last]
	if i < last {
		// The displaced due may belong above or below index i.
		s.setDue(i, r)
		s.down(i)
		s.up(i)
	}
}

// setDue stores r at due-heap index i and records the index on its bucket.
func (s *Schedule) setDue(i int, r dueRef) {
	s.dues[i] = r
	s.buckets[r.b].pos = int32(i)
}

func (s *Schedule) up(i int) {
	r := s.dues[i]
	for i > 0 {
		parent := (i - 1) / 2
		if s.dues[parent].due <= r.due {
			break
		}
		s.setDue(i, s.dues[parent])
		i = parent
	}
	s.setDue(i, r)
}

func (s *Schedule) down(i int) {
	n := len(s.dues)
	r := s.dues[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.dues[c+1].due < s.dues[c].due {
			c++
		}
		if s.dues[c].due >= r.due {
			break
		}
		s.setDue(i, s.dues[c])
		i = c
	}
	s.setDue(i, r)
}

// The index maps each live due to its bucket: a power-of-two table of
// bucket+1 (0 is empty), at most half full, probed linearly from a
// Fibonacci hash of the due, and emptied by backward shift, so deletes
// leave no tombstones and a steady state never rehashes. (A Go map's
// deletes do leave them, and its occasional regrowth is an allocation in
// the middle of a steady state.)

// home is due's first probe in the index.
func (s *Schedule) home(due sim.Time) int {
	return int(uint64(due) * 0x9e3779b97f4a7c15 >> s.shift)
}

// find returns the live bucket of due, if there is one.
func (s *Schedule) find(due sim.Time) (int32, bool) {
	mask := len(s.index) - 1
	for i := s.home(due); s.index[i] != 0; i = (i + 1) & mask {
		if b := s.index[i] - 1; s.buckets[b].due == due {
			return b, true
		}
	}
	return 0, false
}

// place indexes live bucket b.
func (s *Schedule) place(b int32) {
	mask := len(s.index) - 1
	i := s.home(s.buckets[b].due)
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = b + 1
}

// unindex drops due, a live bucket's, from the index, shifting later
// entries of its probe run back into the hole.
func (s *Schedule) unindex(due sim.Time) {
	mask := len(s.index) - 1
	i := s.home(due)
	for s.buckets[s.index[i]-1].due != due {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies in (i, j].
		if h := s.home(s.buckets[s.index[j]-1].due); (j-h)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

// grow doubles the index and re-places every live bucket.
func (s *Schedule) grow() {
	s.index = make([]int32, 2*len(s.index))
	s.shift--
	for _, r := range s.dues {
		s.place(r.b)
	}
}
