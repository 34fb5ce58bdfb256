package obs

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketProperty sweeps values across the full range and pins
// the bucketing invariants: every value lands in exactly one bucket, that
// bucket's inclusive bounds contain it, and the bounds table is strictly
// increasing (so the cumulative exposition is monotone by construction).
func TestHistogramBucketProperty(t *testing.T) {
	h := NewHistogram(int64(64*time.Second), 1e-9)
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i] <= h.bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %d <= %d", i, h.bounds[i], h.bounds[i-1])
		}
	}
	// Exhaustive over the small range, then boundary-straddling probes over
	// every octave: the bucket must be the unique one whose half-open
	// (prevBound, bound] interval contains the value.
	check := func(v int64) {
		t.Helper()
		idx := h.index(v)
		if idx < 0 || idx >= len(h.bkts) {
			t.Fatalf("value %d: bucket index %d out of range", v, idx)
		}
		if idx == len(h.bkts)-1 {
			if v <= h.bounds[len(h.bounds)-1] {
				t.Fatalf("value %d landed in overflow but max bound is %d", v, h.bounds[len(h.bounds)-1])
			}
			return
		}
		if v > h.bounds[idx] {
			t.Fatalf("value %d above its bucket bound %d (idx %d)", v, h.bounds[idx], idx)
		}
		if idx > 0 && v <= h.bounds[idx-1] {
			t.Fatalf("value %d at or below previous bound %d (idx %d)", v, h.bounds[idx-1], idx)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for _, b := range h.bounds {
		for _, v := range []int64{b - 1, b, b + 1} {
			if v >= 0 {
				check(v)
			}
		}
	}
	// Far beyond the range: overflow bucket.
	huge := h.bounds[len(h.bounds)-1] * 16
	if got := h.index(huge); got != len(h.bkts)-1 {
		t.Fatalf("value %d: want overflow bucket %d, got %d", huge, len(h.bkts)-1, got)
	}

	// Count/Sum bookkeeping, including the negative clamp.
	h.Observe(-5)
	h.Observe(10)
	h.Observe(huge)
	if h.count.Load() != 3 {
		t.Fatalf("count = %d, want 3", h.count.Load())
	}
	if h.Sum() != 10+huge {
		t.Fatalf("sum = %d, want %d", h.Sum(), 10+huge)
	}
	var cum uint64
	for i := range h.bkts {
		cum += h.bkts[i].Load()
	}
	if cum != h.count.Load() {
		t.Fatalf("bucket sum %d != count %d", cum, h.count.Load())
	}
}

// TestHistogramQuantile pins the quantile estimator's bucket-upper-bound
// semantics.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1<<20, 1)
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
	for v := int64(0); v < 100; v++ {
		h.Observe(v)
	}
	if q := h.Quantile(0); q < 0 || q > 1 {
		t.Fatalf("q0 = %d, want a bound at the bottom of the range", q)
	}
	med := h.Quantile(0.5)
	if med < 49 || med > 63 {
		t.Fatalf("median bound %d outside the plausible bucket range [49, 63]", med)
	}
	if max := h.Quantile(1); max < 99 {
		t.Fatalf("q1 = %d, want >= 99", max)
	}
}

// TestCounterAdd pins that Add(n) is n increments, on top of whatever the
// counter already holds, and that Add(0) changes nothing.
func TestCounterAdd(t *testing.T) {
	a := NewRegistry().Counter("a_total", "", "a")
	b := NewRegistry().Counter("b_total", "", "b")
	for _, n := range []uint64{0, 1, 7, 0, 1000} {
		a.Add(n)
		for range n {
			b.Inc()
		}
		if a.Load() != b.Load() {
			t.Fatalf("after Add(%d): %d, want %d", n, a.Load(), b.Load())
		}
	}
	if a.Load() != 1008 {
		t.Fatalf("total %d, want 1008", a.Load())
	}
}

// TestHistogramFoldMatchesObserve pins that folding a histogram into
// another is observing its values there: every bucket, the count, Sum and
// every Quantile equal those of one histogram that saw every value, and
// the folded histogram is left empty, ready to fill again.
func TestHistogramFoldMatchesObserve(t *testing.T) {
	const max = int64(64 * time.Second)
	into, from, want := NewHistogram(max, 1e-9), NewHistogram(max, 1e-9), NewHistogram(max, 1e-9)
	v := int64(1)
	observe := func(h *Histogram, n int) {
		for i := 0; i < n; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			x := (v >> 20) & (1<<(i%40) - 1) // every octave, overflow included
			if i%17 == 0 {
				x = -x // clamps to zero
			}
			h.Observe(x)
			want.Observe(x)
		}
	}
	same := func(when string) {
		t.Helper()
		for i := range want.bkts {
			if into.bkts[i].Load() != want.bkts[i].Load() {
				t.Fatalf("%s: bucket %d holds %d, want %d", when, i, into.bkts[i].Load(), want.bkts[i].Load())
			}
		}
		if into.count.Load() != want.count.Load() || into.Sum() != want.Sum() {
			t.Fatalf("%s: count %d sum %d, want %d and %d", when, into.count.Load(), into.Sum(), want.count.Load(), want.Sum())
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if into.Quantile(q) != want.Quantile(q) {
				t.Fatalf("%s: Quantile(%v) = %d, want %d", when, q, into.Quantile(q), want.Quantile(q))
			}
		}
		for i := range from.bkts {
			if from.bkts[i].Load() != 0 {
				t.Fatalf("%s: the folded histogram keeps %d in bucket %d", when, from.bkts[i].Load(), i)
			}
		}
		if from.count.Load() != 0 || from.Sum() != 0 || from.Quantile(0.5) != 0 {
			t.Fatalf("%s: the folded histogram keeps count %d sum %d", when, from.count.Load(), from.Sum())
		}
	}
	into.Fold(from)
	same("empty into empty")
	observe(into, 300)
	observe(from, 5000)
	into.Fold(from)
	same("first fold")
	into.Fold(from)
	same("fold of the emptied histogram")
	observe(from, 1234)
	observe(into, 10)
	into.Fold(from)
	same("second fold")

	defer func() {
		if recover() == nil {
			t.Fatal("Fold between different geometries did not panic")
		}
	}()
	into.Fold(NewHistogram(1<<20, 1e-9))
}

// TestConcurrentIncrement hammers one counter and one histogram from many
// goroutines; run under -race this doubles as the data-race
// check, and the totals pin that no increment is lost.
func TestConcurrentIncrement(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "", "test counter")
	h := r.Histogram("t_seconds", "", "test histogram", int64(time.Second), 1e-9)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if c.Load() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*per)
	}
	if h.count.Load() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.count.Load(), workers*per)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	// The rendered histogram: cumulative buckets never decrease, and the
	// +Inf bucket and _count both carry every observation.
	out := sb.String()
	var prev, inf uint64
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, "t_seconds_bucket{le=")
		if !ok {
			continue
		}
		le, v, _ := strings.Cut(rest, "} ")
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket %s = %d falls below the previous %d:\n%s", le, n, prev, out)
		}
		prev = n
		if le == `"+Inf"` {
			inf = n
		}
	}
	want := "t_seconds_count " + strconv.Itoa(workers*per) + "\n"
	if inf != workers*per || !strings.Contains(out, want) {
		t.Fatalf("+Inf bucket = %d, want it and _count at %d:\n%s", inf, workers*per, out)
	}
}

// TestRegistryExposition pins the rendered format end to end: family order,
// get-or-create identity, OnScrape sampling, label rendering, histogram
// bucket elision with +Inf/_sum/_count.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_things_total", `kind="a"`, "things processed")
	if c2 := r.Counter("app_things_total", `kind="a"`, "things processed"); c2 != c {
		t.Fatalf("get-or-create returned a different counter")
	}
	cb := r.Counter("app_things_total", `kind="b"`, "things processed")
	g := r.Gauge("app_level", "", "current level")
	h := r.Histogram("app_op_seconds", "", "op latency", int64(time.Second), 1e-9)
	r.OnScrape(func() { g.Set(42) })

	c.Inc()
	c.Inc()
	c.Inc()
	cb.Inc()
	h.Observe(0)
	h.Observe(7)
	h.Observe(int64(2 * time.Second)) // overflow

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP app_things_total things processed\n# TYPE app_things_total counter\n" +
			"app_things_total{kind=\"a\"} 3\napp_things_total{kind=\"b\"} 1\n",
		"# TYPE app_level gauge\napp_level 42\n",
		"# TYPE app_op_seconds histogram\n",
		"app_op_seconds_bucket{le=\"0\"} 1\n",
		"app_op_seconds_bucket{le=\"7e-09\"} 2\n",
		"app_op_seconds_bucket{le=\"+Inf\"} 3\n",
		"app_op_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Elision: only observed buckets (plus +Inf) appear.
	if n := strings.Count(out, "app_op_seconds_bucket"); n != 3 {
		t.Fatalf("want 3 bucket lines after elision, got %d:\n%s", n, out)
	}
}

// TestRegistryKindConflict pins the registration panic on kind mismatch.
func TestRegistryKindConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic registering x_total as gauge")
		}
	}()
	r.Gauge("x_total", "", "x")
}

// TestTraceRing pins ring semantics: zero rings are no-ops, a partial ring
// snapshots in insertion order, and a wrapped ring keeps the newest depth
// spans oldest-first.
func TestTraceRing(t *testing.T) {
	var zero TraceRing
	zero.Record(&PeriodSpan{K: 1})
	if got := zero.Snapshot(nil); len(got) != 0 {
		t.Fatalf("zero ring snapshot = %d spans", len(got))
	}
	if off := NewTraceRing(0); off.spans != nil {
		t.Fatalf("depth 0 should return the zero ring")
	}

	ring := NewTraceRing(4)
	for k := 1; k <= 3; k++ {
		ring.Record(&PeriodSpan{K: k})
	}
	got := ring.Snapshot(nil)
	if len(got) != 3 || got[0].K != 1 || got[2].K != 3 {
		t.Fatalf("partial snapshot = %+v", got)
	}
	for k := 4; k <= 10; k++ {
		ring.Record(&PeriodSpan{K: k})
	}
	got = ring.Snapshot(got[:0])
	if len(got) != 4 {
		t.Fatalf("wrapped snapshot has %d spans, want 4", len(got))
	}
	for i, want := range []int{7, 8, 9, 10} {
		if got[i].K != want {
			t.Fatalf("wrapped snapshot[%d].K = %d, want %d", i, got[i].K, want)
		}
	}
}

// The record-path benchmarks hard-fail on any allocation in the timed loop
// — the same enforcement pattern as BenchmarkAdvance1M/Idle, and the teeth
// behind the 0-alloc claim (the in-benchmark check is what gates it; the
// smoke pass only reports). Mallocs are counted over at least allocFloor
// iterations, the ones past b.N untimed, and one per thousand is allowed for
// the runtime's own background allocations: at make bench's one iteration,
// with every package's benchmarks running side by side, a bound of b.N/1000
// would allow none.
const allocFloor = 10_000

func benchNoAlloc(b *testing.B, f func(i int)) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(i)
	}
	b.StopTimer()
	n := max(b.N, allocFloor)
	for i := b.N; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > uint64(n/1000) {
		b.Fatalf("record path allocated: %d mallocs over %d iterations", mallocs, n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "", "bench")
	benchNoAlloc(b, func(int) { c.Inc() })
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", "bench", int64(64*time.Second), 1e-9)
	benchNoAlloc(b, func(i int) { h.Observe(int64(i) * 37) })
}

func BenchmarkTraceRecord(b *testing.B) {
	ring := NewTraceRing(16)
	span := PeriodSpan{K: 1, Due: time.Second, Class: ClassCold}
	benchNoAlloc(b, func(i int) {
		span.K = i
		ring.Record(&span)
	})
}
