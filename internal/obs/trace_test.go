package obs

import (
	"sync"
	"testing"
	"time"
)

func TestMintSpanID(t *testing.T) {
	if MintSpanID(1, 1) != MintSpanID(1, 1) {
		t.Fatal("span ids are not deterministic")
	}
	// Distinct within a trace and across traces, at least over a window
	// far wider than any subscription lifetime.
	seen := map[SpanID]bool{}
	for _, trace := range []TraceID{1, 2, 0xDEADBEEF} {
		for k := 1; k <= 10_000; k++ {
			id := MintSpanID(trace, k)
			if id == 0 {
				t.Fatalf("MintSpanID(%d, %d) = 0", trace, k)
			}
			if seen[id] {
				t.Fatalf("span id collision at trace %d k %d", trace, k)
			}
			seen[id] = true
		}
	}
}

func TestClassOutcomeRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("unknown"); ok {
		t.Error("ParseClass should reject the unknown sentinel")
	}
	for _, o := range []Outcome{OutcomeDelivered, OutcomeDropped} {
		got, ok := ParseOutcome(o.String())
		if !ok || got != o {
			t.Errorf("ParseOutcome(%q) = %v, %v", o.String(), got, ok)
		}
	}
	if _, ok := ParseOutcome("lost"); ok {
		t.Error("ParseOutcome should reject unknown names")
	}
}

func TestSpanSink(t *testing.T) {
	var nilSink *SpanSink
	nilSink.Publish(&PeriodSpan{K: 1})
	if out, pub, drop := nilSink.Snapshot(nil); len(out) != 0 || pub != 0 || drop != 0 {
		t.Fatalf("nil sink snapshot = %d spans, %d/%d", len(out), pub, drop)
	}
	if NewSpanSink(0) != nil {
		t.Fatal("depth 0 should return a nil sink")
	}

	sink := NewSpanSink(4)
	for k := 1; k <= 3; k++ {
		sink.Publish(&PeriodSpan{K: k})
	}
	out, pub, drop := sink.Snapshot(nil)
	if len(out) != 3 || out[0].K != 1 || out[2].K != 3 || pub != 3 || drop != 0 {
		t.Fatalf("partial snapshot = %+v (%d/%d)", out, pub, drop)
	}
	// Overflow: the ring keeps the newest 4, counts the overwritten.
	for k := 4; k <= 10; k++ {
		sink.Publish(&PeriodSpan{K: k})
	}
	out, pub, drop = sink.Snapshot(out[:0])
	if len(out) != 4 || pub != 10 || drop != 6 {
		t.Fatalf("wrapped snapshot: %d spans, %d published, %d dropped", len(out), pub, drop)
	}
	for i, want := range []int{7, 8, 9, 10} {
		if out[i].K != want {
			t.Fatalf("wrapped snapshot[%d].K = %d, want %d", i, out[i].K, want)
		}
	}
	if p, d := sink.Counts(); p != 10 || d != 6 {
		t.Fatalf("Counts = %d/%d, want 10/6", p, d)
	}
}

// TestPublishBatchMatchesPublish pins that publishing a batch is publishing
// its spans one by one: the same ring content in the same order and the
// same published and dropped counts, for batches that fit, that cross the
// ring's end, that fill it exactly and that are longer than the ring.
func TestPublishBatchMatchesPublish(t *testing.T) {
	var nilSink *SpanSink
	nilSink.PublishBatch([]PeriodSpan{{K: 1}})
	if out, pub, drop := nilSink.Snapshot(nil); len(out) != 0 || pub != 0 || drop != 0 {
		t.Fatalf("nil sink after a batch: %d spans, %d/%d", len(out), pub, drop)
	}
	const depth = 8
	batched, single := NewSpanSink(depth), NewSpanSink(depth)
	k := 0
	for step, n := range []int{0, 3, 4, 2, 8, 1, 11, 0, 17, 5, 8, 3} {
		batch := make([]PeriodSpan, n)
		for i := range batch {
			k++
			batch[i] = PeriodSpan{K: k, ArmedNS: int64(k)}
			single.Publish(&batch[i])
		}
		batched.PublishBatch(batch)
		got, gp, gd := batched.Snapshot(nil)
		want, wp, wd := single.Snapshot(nil)
		if gp != wp || gd != wd || len(got) != len(want) {
			t.Fatalf("step %d (batch of %d): %d spans, %d/%d; one by one %d spans, %d/%d", step, n, len(got), gp, gd, len(want), wp, wd)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d (batch of %d): span %d is period %d, want %d", step, n, i, got[i].K, want[i].K)
			}
		}
		if batched.next != single.next || batched.full != single.full {
			t.Fatalf("step %d: cursor %d full %v, want %d %v", step, batched.next, batched.full, single.next, single.full)
		}
	}
	if pub, drop := batched.Counts(); pub != uint64(k) || drop != uint64(k-depth) {
		t.Fatalf("Counts = %d/%d, want %d/%d", pub, drop, k, k-depth)
	}
}

// TestSpanSinkConcurrent races publishers against snapshotters and checks
// the published count is exact and no span is torn.
func TestSpanSinkConcurrent(t *testing.T) {
	sink := NewSpanSink(16)
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []PeriodSpan
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, pub, drop := sink.Snapshot(buf[:0])
				buf = out
				if drop > pub {
					t.Errorf("dropped %d > published %d", drop, pub)
					return
				}
				for _, sp := range out {
					if int64(sp.K) != sp.ArmedNS {
						t.Errorf("torn span: %+v", sp)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= perWriter; k++ {
				sink.Publish(&PeriodSpan{K: k, ArmedNS: int64(k)})
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if pub, _ := sink.Counts(); pub != writers*perWriter {
		t.Fatalf("published = %d, want %d", pub, writers*perWriter)
	}
}

func BenchmarkSpanSinkPublish(b *testing.B) {
	sink := NewSpanSink(4096)
	span := PeriodSpan{K: 1, Due: time.Second, Class: ClassPyramid}
	benchNoAlloc(b, func(i int) {
		span.K = i
		sink.Publish(&span)
	})
}

// BenchmarkTraceSnapshot pins that a reader reusing its buffer snapshots
// a full ring without allocating — the firehose handler's steady state.
func BenchmarkSpanSinkPublishBatch(b *testing.B) {
	sink := NewSpanSink(4096)
	batch := make([]PeriodSpan, 256)
	benchNoAlloc(b, func(i int) {
		batch[i%len(batch)].K = i
		sink.PublishBatch(batch)
	})
}

func BenchmarkTraceSnapshot(b *testing.B) {
	sink := NewSpanSink(256)
	for k := 1; k <= 512; k++ {
		sink.Publish(&PeriodSpan{K: k})
	}
	buf := make([]PeriodSpan, 0, 256)
	benchNoAlloc(b, func(int) {
		buf, _, _ = sink.Snapshot(buf[:0])
	})
}
