// Package sim implements the deterministic discrete-event simulation engine
// that underpins the MobiQuery reproduction.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, making
// every run a pure function of its inputs and RNG seed. This mirrors the
// ns-2 execution model the paper used, while remaining bit-for-bit
// reproducible.
//
// Node behaviour is expressed as callbacks reacting to events (packet
// arrivals, timers, wake-ups). Parallelism across *runs* is provided by the
// experiment harness, not inside a single engine.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant of virtual time, measured as a duration since the start
// of the simulation.
type Time = time.Duration

// Timer is a handle to a scheduled event, usable for cancellation.
type Timer struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped
}

// At returns the virtual time the timer is scheduled to fire.
func (t *Timer) At() Time { return t.at }

// Canceled reports whether the timer has been canceled.
func (t *Timer) Canceled() bool { return t.canceled }

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now      Time
	queue    timerHeap
	seq      uint64
	rootSeed int64
	streams  map[string]*rand.Rand
	fired    uint64
}

// NewEngine returns an engine with its virtual clock at zero and all RNG
// streams derived deterministically from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rootSeed: seed,
		streams:  make(map[string]*rand.Rand),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsFired returns the number of events executed so far, for
// instrumentation and determinism checks.
func (e *Engine) EventsFired() uint64 { return e.fired }

// RNG returns a named random stream. Streams are created lazily and
// deterministically: the same engine seed and stream name always yield the
// same sequence, regardless of creation order of other streams. Components
// should use distinct names (e.g. "mac", "deploy", "mobility") so adding a
// consumer in one subsystem does not perturb another.
func (e *Engine) RNG(name string) *rand.Rand {
	if r, ok := e.streams[name]; ok {
		return r
	}
	// Derive the stream seed from the name via an FNV-style fold mixed with
	// the root source, keeping streams independent of creation order.
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	r := rand.New(rand.NewSource(int64(h) ^ e.rootSeed))
	e.streams[name] = r
	return r
}

// Schedule runs fn at virtual time at. Scheduling in the past (before Now)
// panics: it always indicates a protocol bug, and silently reordering events
// would destroy determinism.
func (e *Engine) Schedule(at Time, fn func()) *Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	t := &Timer{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, t)
	return t
}

// After runs fn after delay d from the current virtual time. Negative delays
// are clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel prevents a scheduled timer from firing. Canceling a nil, fired, or
// already-canceled timer is a no-op.
func (e *Engine) Cancel(t *Timer) {
	if t == nil || t.canceled {
		return
	}
	t.canceled = true
	t.fn = nil // release captured state promptly
	if t.index >= 0 {
		heap.Remove(&e.queue, t.index)
	}
}

// Run executes events in timestamp order until the queue empties or the
// next event is later than until. The clock finishes at until (or at the
// last event if the queue drains first and exceeds it).
func (e *Engine) Run(until Time) {
	for e.queue.Len() > 0 {
		next := e.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.queue)
		if next.canceled {
			continue
		}
		e.now = next.at
		fn := next.fn
		next.fn = nil
		e.fired++
		fn()
	}
	if e.now < until {
		e.now = until
	}
}

// timerHeap orders timers by (time, sequence) so simultaneous events fire in
// the order they were scheduled — the determinism guarantee.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
