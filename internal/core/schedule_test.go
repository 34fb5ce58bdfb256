package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// scheduleTestEngine builds an engine over an empty node field: window
// evaluation then visits no sensors, so scheduler tests exercise the
// temporal bookkeeping without spatial cost.
func scheduleTestEngine(t testing.TB) *QueryEngine {
	t.Helper()
	e, err := NewQueryEngineE(geom.Square(100), 10, field.Uniform{Value: 1}, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// idSchedule drives a bare Schedule by query id, the way these tests state
// their interleavings: it owns one handle per id and mints a fresh one
// after a Remove, because a removed handle is spent. Single-goroutine use.
type idSchedule struct {
	*Schedule
	qs map[uint32]*Query
}

func newIDSchedule(s *Schedule) *idSchedule {
	return &idSchedule{Schedule: s, qs: make(map[uint32]*Query)}
}

func (s *idSchedule) Upsert(id uint32, due sim.Time) {
	q := s.qs[id]
	if q == nil {
		q = &Query{id: id}
		s.qs[id] = q
	}
	s.Schedule.Upsert(q, due)
}

func (s *idSchedule) Remove(id uint32) {
	if q := s.qs[id]; q != nil {
		delete(s.qs, id)
		s.Schedule.Remove(q)
	}
}

// dueLess orders entries by (Due, ID), the pop contract's total order.
func dueLess(a, b DueEntry) bool {
	if a.Due != b.Due {
		return a.Due < b.Due
	}
	return a.ID < b.ID
}

// sameDue compares two entries by what the pop contract orders, (id, due):
// an expected entry written as a literal carries no handle.
func sameDue(a, b DueEntry) bool { return a.ID == b.ID && a.Due == b.Due }

// TestSchedulePopOrder pins the pop contract: entries come out in
// ascending (due, id) order, ties broken by id, regardless of insertion
// order.
func TestSchedulePopOrder(t *testing.T) {
	s := newIDSchedule(NewSchedule())
	s.Upsert(3, 10*time.Second)
	s.Upsert(1, 20*time.Second)
	s.Upsert(2, 10*time.Second)
	s.Upsert(4, 5*time.Second)
	got := s.PopDue(15*time.Second, nil)
	want := []DueEntry{{ID: 4, Due: 5 * time.Second}, {ID: 2, Due: 10 * time.Second}, {ID: 3, Due: 10 * time.Second}}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if !sameDue(got[i], want[i]) {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("schedule holds %d entries after pop, want 1", n)
	}
	// Upsert moves an existing entry.
	s.Upsert(1, time.Second)
	if got := s.PopDue(time.Second, nil); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("rescheduled pop = %v, want id 1", got)
	}
	// Remove of a popped (unarmed) handle only spends it: a re-arm that
	// was already on its way is declined. Popping an empty schedule is a
	// no-op.
	popped := got[0].Query
	s.Remove(popped.id)
	s.Schedule.Upsert(popped, time.Second)
	if got := s.PopDue(time.Hour, nil); len(got) != 0 {
		t.Fatalf("empty schedule popped %v", got)
	}
}

// TestSchedulePropertyAgainstBruteForce drives temporal queries through a
// long random interleaving of RegisterTemporalE, EvaluateDue, Deregister,
// and PopDue, checking after every operation batch that the engine's
// schedule agrees exactly with a brute-force O(n) scan over a shadow map of
// every query's next due period, and that its bucket layout is sound. Two
// shapes: "distinct", 10k queries on a nanosecond clock, where nearly every
// due is a bucket of its own; and "shared", 2k queries on a 10 ms tick,
// where few dues are each shared by several queries, the popped queries
// are re-armed through one batched flush, and the walk must have taken
// every bucket transition: a Deregister that empties a bucket, an Upsert to
// the entry's own due (a no-op), an immediate re-arm that moves an armed
// entry from one bucket to another, and a re-arm into a bucket the same
// flush opened.
func TestSchedulePropertyAgainstBruteForce(t *testing.T) {
	t.Run("distinct", func(t *testing.T) { runScheduleProperty(t, 10_000, 1, false) })
	t.Run("shared", func(t *testing.T) { runScheduleProperty(t, 2_000, 10*time.Millisecond, true) })
}

func runScheduleProperty(t *testing.T, nIDs int, tick sim.Time, shared bool) {
	e := scheduleTestEngine(t)
	s := e.sched
	rng := rand.New(rand.NewSource(7))
	// rb batches the shared shape's re-arms; nil re-arms immediately.
	var rb *RearmBatch
	if shared {
		rb = e.NewRearmBatch()
	}

	// shadow mirrors what the schedule must hold: next due per live query.
	shadow := make(map[uint32]sim.Time, nIDs)
	spec := func(id uint32) TemporalSpec {
		return TemporalSpec{Period: time.Duration(1+id%7) * time.Second}
	}

	register := func(id uint32, now sim.Time) {
		if _, live := shadow[id]; live {
			return
		}
		if err := e.RegisterTemporalE(id, 5, geom.Pt(50, 50), spec(id), now); err != nil {
			t.Fatal(err)
		}
		shadow[id] = now + spec(id).Period
	}
	for id := uint32(1); id <= uint32(nIDs); id++ {
		register(id, 0)
	}

	// Bucket transitions the shared shape must take at least once each.
	var emptied, noops, moved, flushFilled int
	ops := 3
	if shared {
		ops = 4
	}
	now := sim.Time(0)
	for step := 0; step < 200; step++ {
		now += tick * sim.Time(rng.Int63n(int64(3*time.Second/tick)))
		// A burst of random churn and direct evaluations between pops.
		for i := 0; i < 50; i++ {
			id := uint32(1 + rng.Intn(nIDs))
			switch rng.Intn(ops) {
			case 0:
				if q := e.Lookup(id); q != nil && q.slot > 0 && len(s.buckets[q.bucket].entries) == 1 {
					emptied++
				}
				e.Deregister(id)
				delete(shadow, id)
			case 1:
				register(id, now)
			case 2:
				due, live := shadow[id]
				wr, ok := e.EvaluateDueBatch(id, now, nil)
				wantOK := live && due <= now
				if ok != wantOK {
					t.Fatalf("step %d: EvaluateDue(%d, %v) ok=%v, want %v", step, id, now, ok, wantOK)
				}
				if ok {
					shadow[id] = wr.Due + spec(id).Period
					moved++
				}
			case 3:
				// Every live query is armed between pops, at its shadow due, so
				// this Upsert must leave its entry where it is.
				if q := e.Lookup(id); q != nil {
					b, slot := q.bucket, q.slot
					s.Upsert(q, shadow[id])
					if slot <= 0 || q.bucket != b || q.slot != slot {
						t.Fatalf("step %d: Upsert of query %d to its own due moved it from (%d, %d) to (%d, %d)", step, id, b, slot, q.bucket, q.slot)
					}
					noops++
				}
			}
		}
		checkBuckets(t, step, s)

		// The scheduler's pop must equal the brute-force scan: every live
		// query with a due period, in ascending (due, id) order.
		var want []DueEntry
		for id, due := range shadow {
			if due <= now {
				want = append(want, DueEntry{ID: id, Due: due})
			}
		}
		got := e.PopDue(now, nil)
		if len(got) != len(want) {
			t.Fatalf("step %d: popped %d entries, brute force finds %d", step, len(got), len(want))
		}
		seen := make(map[uint32]sim.Time, len(got))
		for i, de := range got {
			if i > 0 && !dueLess(got[i-1], de) {
				t.Fatalf("step %d: pop order violated at %d: %v then %v", step, i, got[i-1], de)
			}
			if shadow[de.ID] != de.Due {
				t.Fatalf("step %d: popped (%d, %v), shadow says next due %v", step, de.ID, de.Due, shadow[de.ID])
			}
			seen[de.ID] = de.Due
		}
		for _, w := range want {
			if seen[w.ID] != w.Due {
				t.Fatalf("step %d: brute force expects %v, not popped", step, w)
			}
		}
		// Drive every popped query forward like a clock driver would, so
		// the schedule is re-armed for the next round: immediately, or
		// batched and flushed at once as Advance does.
		for _, de := range got {
			for shadow[de.ID] <= now {
				wr, ok := e.EvaluateDueBatch(de.ID, now, rb)
				if !ok {
					t.Fatalf("step %d: popped query %d refused evaluation", step, de.ID)
				}
				shadow[de.ID] = wr.Due + spec(de.ID).Period
			}
		}
		if shared {
			before := make(map[sim.Time]bool, len(s.dues))
			for _, r := range s.dues {
				before[r.due] = true
			}
			e.FlushRearms(rb)
			for _, r := range s.dues {
				if !before[r.due] && len(s.buckets[r.b].entries) > 1 {
					flushFilled++
				}
			}
		}
		checkBuckets(t, step, s)
	}
	if len(shadow) == 0 {
		t.Fatal("property test degenerated: no live queries left")
	}
	if shared && (emptied == 0 || noops == 0 || moved == 0 || flushFilled == 0) {
		t.Fatalf("shared shape missed a bucket transition: %d emptying deregisters, %d no-op upserts, %d moves, %d buckets filled by the flush that opened them",
			emptied, noops, moved, flushFilled)
	}
}

// TestScheduleConcurrentChurn hammers the schedule from many goroutines —
// registration, evaluation with immediate and with batched re-arms,
// deregistration, pops and length reads on overlapping id ranges — and
// checks it converges to exactly one entry per live temporal query, which a
// draining pop hands out sorted and once each. Run under -race this doubles
// as the scheduler's race test.
func TestScheduleConcurrentChurn(t *testing.T) {
	e := scheduleTestEngine(t)
	const (
		goroutines = 8
		perG       = 600
		idSpace    = 64 // overlapping ranges force contention
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			spec := TemporalSpec{Period: time.Second}
			rb := e.NewRearmBatch()
			var buf []DueEntry
			for i := 0; i < perG; i++ {
				id := uint32(1 + rng.Intn(idSpace))
				now := sim.Time(rng.Int63n(int64(time.Minute)))
				switch rng.Intn(5) {
				case 0:
					_ = e.RegisterTemporalE(id, 5, geom.Pt(50, 50), spec, now)
				case 1:
					e.Deregister(id)
				case 2:
					e.EvaluateDueBatch(id|1, now, nil)
				case 3:
					// Drive popped queries forward as a clock driver would: odd
					// ids by id with an immediate re-arm, even ids through the
					// handle with the re-arm batched, as an Advance worker does
					// (a query deregistered since the pop is declined by the
					// flush). One query is never driven both ways — an immediate
					// re-arm and a pending batched one would race to set its
					// boundary — which is why case 2 keeps to odd ids.
					buf = e.PopDue(now, buf[:0])
					for _, de := range buf {
						if de.ID%2 == 1 {
							e.EvaluateDueBatch(de.ID, de.Due, nil)
						} else {
							de.Query.EvaluateDue(de.Due, rb)
						}
					}
					e.FlushRearms(rb)
				case 4:
					e.ScheduleLen()
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesce: every live temporal query must hold exactly one schedule
	// entry, at its NextDue.
	live := 0
	for id := uint32(1); id <= idSpace; id++ {
		if _, _, ok := e.NextDue(id); ok {
			live++
		}
	}
	if n := e.ScheduleLen(); n != live {
		t.Fatalf("schedule holds %d entries, %d queries live", n, live)
	}
	far := sim.Time(1000 * time.Hour)
	popped := e.PopDue(far, nil)
	if len(popped) != live {
		t.Fatalf("draining pop returned %d entries, %d queries live", len(popped), live)
	}
	for i, de := range popped {
		// dueLess is strict and total, so sorted also means no id twice.
		if i > 0 && !dueLess(popped[i-1], de) {
			t.Fatalf("drain order violated at %d: %v then %v", i, popped[i-1], de)
		}
		_, due, ok := e.NextDue(de.ID)
		if !ok || due != de.Due {
			t.Fatalf("entry %v disagrees with NextDue (%v, %v)", de, due, ok)
		}
	}
	if n := e.ScheduleLen(); n != 0 {
		t.Fatalf("schedule holds %d entries after full drain", n)
	}
}

// BenchmarkSchedulePopIdle measures the idle-tick cost with 100k queries
// scheduled and nothing due: the peek that makes Advance O(1).
func BenchmarkSchedulePopIdle(b *testing.B) {
	s := newIDSchedule(NewSchedule())
	for id := uint32(1); id <= 100_000; id++ {
		s.Upsert(id, time.Hour+sim.Time(id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.PopDue(time.Minute, nil); len(got) != 0 {
			b.Fatal("nothing should be due")
		}
	}
}

// BenchmarkScheduleScanBaseline is the pre-scheduler idle tick over the
// same population: a brute-force scan of every query's next due. This is
// what each Advance cost before the schedule existed.
func BenchmarkScheduleScanBaseline(b *testing.B) {
	next := make(map[uint32]sim.Time, 100_000)
	for id := uint32(1); id <= 100_000; id++ {
		next[id] = time.Hour + sim.Time(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, due := range next {
			if due <= time.Minute {
				n++
			}
		}
		if n != 0 {
			b.Fatal("nothing should be due")
		}
	}
}

// BenchmarkScheduleCycle measures the schedule's worst case: every query
// on its own due, 100k queries resident, each op popping one due entry and
// re-arming it one period later. Every bucket holds one entry, so each op
// closes and opens one and the due-heap is as deep as the entries.
func BenchmarkScheduleCycle(b *testing.B) {
	s := NewSchedule()
	const n = 100_000
	period := sim.Time(n) // ids 1..n due at 1..n: one due per tick
	qs := make([]Query, n+1)
	for id := uint32(1); id <= n; id++ {
		qs[id].id = id
		s.Upsert(&qs[id], sim.Time(id))
	}
	var buf []DueEntry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i + 1)
		buf = s.PopDue(now, buf[:0])
		for _, de := range buf {
			s.Upsert(de.Query, de.Due+period)
		}
	}
}

// BenchmarkScheduleCohorts measures the shapes a session's schedule has:
// queries spread over a few phase slots of a shared period, so each due is
// a cohort. Each op pops one slot and re-arms it one period later under one
// lock hold, as FlushRearms does; ns/entry is the per-query cost. The
// benchmark fails if the timed loop allocates at all, or if a popped batch
// is not in (due, id) order.
func BenchmarkScheduleCohorts(b *testing.B) {
	for _, sh := range []struct {
		name           string
		queries, slots int
	}{
		{"50k/100slots", 50_000, 100}, // sparse_churn: 500 due per tick
		{"4k/1slot", 4_000, 1},        // dense_eval: one shared boundary
		{"1M/1000slots", 1_000_000, 1_000},
	} {
		b.Run(sh.name, func(b *testing.B) {
			s := NewSchedule()
			period := sim.Time(sh.slots) // slot k is due at k+1, k+1+period, …
			qs := make([]Query, sh.queries)
			rng := rand.New(rand.NewSource(1))
			for i, j := range rng.Perm(sh.queries) {
				qs[j].id = uint32(j + 1)
				s.Upsert(&qs[j], sim.Time(1+i%sh.slots))
			}
			var buf []DueEntry
			now := sim.Time(0)
			cycle := func() {
				now++
				buf = s.PopDue(now, buf[:0])
				if len(buf) != sh.queries/sh.slots {
					b.Fatalf("popped %d entries at %v, want %d", len(buf), now, sh.queries/sh.slots)
				}
				for i := 1; i < len(buf); i++ {
					if !dueLess(buf[i-1], buf[i]) {
						b.Fatalf("pop order violated at %d: %v then %v", i, buf[i-1], buf[i])
					}
				}
				s.mu.Lock()
				for _, de := range buf {
					s.upsert(de.Query, de.Due+period)
				}
				s.publishHead()
				s.mu.Unlock()
			}
			for i := 0; i < 2*sh.slots; i++ {
				cycle() // two periods: every bucket and buf at full size
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
				b.Fatalf("%d pop-and-re-arm cycles allocated %d times; a steady-state schedule must not allocate", b.N, allocs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/entry")
		})
	}
}
