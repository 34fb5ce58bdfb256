package obs

import (
	"sync"
	"time"
)

// Class is the serve class of one evaluated period: which machinery
// answered it. The classes partition evaluated periods, so per-class
// counters sum to the delivery ledger's evaluated total.
type Class uint8

const (
	// ClassCold is a flat index scan with no prediction machinery.
	ClassCold Class = iota
	// ClassPlanned is a prefetching subscription's period served through
	// its plan (readings staged in time, enumeration still by index).
	ClassPlanned
	// ClassCorridor is a period served warm from a staged corridor
	// snapshot. The session stages none, so its count reads 0; the label
	// stays in the exposition.
	ClassCorridor
	// ClassPyramid is a period answered from the aggregate tile pyramid.
	ClassPyramid

	// NumClasses is the number of serve classes.
	NumClasses = 4
)

// String returns the class's label value in the exposition.
func (c Class) String() string {
	switch c {
	case ClassCold:
		return "cold"
	case ClassPlanned:
		return "planned"
	case ClassCorridor:
		return "corridor"
	case ClassPyramid:
		return "pyramid"
	default:
		return "unknown"
	}
}

// ParseClass is the inverse of Class.String; ok is false for unknown
// names (including "unknown" itself, which no real span carries).
func ParseClass(s string) (Class, bool) {
	switch s {
	case "cold":
		return ClassCold, true
	case "planned":
		return ClassPlanned, true
	case "corridor":
		return ClassCorridor, true
	case "pyramid":
		return ClassPyramid, true
	default:
		return 0, false
	}
}

// Outcome is how a period span ended.
type Outcome uint8

const (
	// OutcomeDelivered means the result reached the subscriber's channel.
	OutcomeDelivered Outcome = iota
	// OutcomeDropped means the subscriber's buffer was full and the result
	// was discarded (counted, never blocking).
	OutcomeDropped
)

// String returns the outcome's wire name.
func (o Outcome) String() string {
	if o == OutcomeDropped {
		return "dropped"
	}
	return "delivered"
}

// ParseOutcome is the inverse of Outcome.String.
func ParseOutcome(s string) (Outcome, bool) {
	switch s {
	case "delivered":
		return OutcomeDelivered, true
	case "dropped":
		return OutcomeDropped, true
	default:
		return 0, false
	}
}

// TraceID identifies one subscription's causal trace across tiers: minted
// by the client (wire trace context) or the embedder, carried by every
// span of the subscription, and echoed on result frames so client-side
// receive stamps can be joined onto the server's segment chain. Zero
// means untraced.
type TraceID uint64

// SpanID identifies one period's span within a trace. Span ids are not
// random: MintSpanID derives them deterministically from (trace, period),
// so both tiers — and any offline validator — can recompute the id a
// span must carry, which makes orphaned or mis-joined spans detectable.
type SpanID uint64

// MintSpanID derives the span id for period k (1-based) of a trace. The
// derivation is a SplitMix64 finalizer over the trace/period pair: cheap,
// stateless, collision-free within a trace, and reproducible anywhere.
func MintSpanID(t TraceID, k int) SpanID {
	x := uint64(t) ^ (uint64(uint32(k)) * 0x9E3779B97F4A7C15)
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return SpanID(x ^ (x >> 31))
}

// PeriodSpan is one subscription period's lifecycle: stamped as it moves
// armed → popped → evaluated → delivered → written to the wire. Due is
// virtual service time; the *NS fields are wall-clock unix nanoseconds,
// so stage latencies are differences between consecutive stamps (Armed is
// the wall time the period's schedule entry was last re-armed — the end
// of the previous period's evaluation — so Popped-Armed is time spent
// waiting in the scheduler; a catch-up period drained in the same batch
// that armed it carries Popped == Armed, since it never returned to the
// scheduler). The worker that evaluates a period delivers it, so
// Delivered-EvalEnd is the hand-over alone. WireNS is stamped by the
// network front-end the instant the result frame is handed to the wire,
// and stays zero for in-process deliveries. Trace and Span are zero unless
// the subscription carries a trace context.
type PeriodSpan struct {
	Trace       TraceID
	Span        SpanID
	K           int           // 1-based period index
	Due         time.Duration // virtual due time
	ArmedNS     int64
	PoppedNS    int64
	EvalStartNS int64
	EvalEndNS   int64
	// FlushNS is not a stage — delivery does not wait for the step's
	// schedule re-arms — and is stamped equal to EvalEndNS. It and wire
	// flush_ns stay for one reason: benchmark/probes.go and
	// benchmark/trace.go name them and are frozen (ROADMAP 6(b)).
	FlushNS     int64
	DeliveredNS int64 // handed to (or dropped at) the Results channel
	WireNS      int64 // result frame written to the wire (networked only)
	Class       Class
	Outcome     Outcome
	Late        bool
}

// TraceRing is a fixed-depth ring of the most recent period spans of one
// subscription, held by value in its owner. A zero ring (NewTraceRing(0))
// is valid and ignores everything — tracing disabled costs one length
// check per period. A ring has no lock of its own: its owner serializes
// Record and Snapshot (a subscription records and snapshots under its
// query lock), so a reader never observes a half-written span.
type TraceRing struct {
	spans []PeriodSpan
	next  int
	full  bool
}

// NewTraceRing returns a ring holding the last depth spans; depth <= 0
// returns the zero ring (tracing disabled).
func NewTraceRing(depth int) TraceRing {
	if depth <= 0 {
		return TraceRing{}
	}
	return TraceRing{spans: make([]PeriodSpan, depth)}
}

// Record appends one completed span, evicting the oldest at capacity.
func (r *TraceRing) Record(s *PeriodSpan) {
	if len(r.spans) == 0 {
		return
	}
	r.spans[r.next] = *s
	r.next++
	if r.next == len(r.spans) {
		r.next = 0
		r.full = true
	}
}

// Snapshot appends the ring's spans to buf, oldest first, and returns it.
// A zero ring appends nothing. The appends allocate only when buf lacks
// capacity, so a caller reusing its buffer snapshots allocation-free.
func (r *TraceRing) Snapshot(buf []PeriodSpan) []PeriodSpan {
	if r.full {
		buf = append(buf, r.spans[r.next:]...)
	}
	return append(buf, r.spans[:r.next]...)
}

// SpanSink is the service-wide span firehose: a fixed ring every
// completed period span is published into, regardless of subscription.
// It is deliberately lossy — at capacity the oldest span is overwritten
// and counted dropped — so publishing never allocates and never blocks on
// a slow reader. Publishers batch: PublishBatch copies a whole batch of
// spans under one short mutex hold, so the tick path pays the lock once
// per batch, not once per period. A nil sink ignores everything.
type SpanSink struct {
	mu        sync.Mutex
	spans     []PeriodSpan
	next      int
	full      bool
	published uint64
	dropped   uint64
}

// NewSpanSink returns a sink ring-buffering the last depth spans;
// depth <= 0 returns nil (firehose disabled).
func NewSpanSink(depth int) *SpanSink {
	if depth <= 0 {
		return nil
	}
	return &SpanSink{spans: make([]PeriodSpan, depth)}
}

// Publish records one completed span, overwriting (and drop-counting)
// the oldest at capacity. Allocation-free.
func (s *SpanSink) Publish(sp *PeriodSpan) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.full {
		s.dropped++
	}
	s.spans[s.next] = *sp
	s.next++
	if s.next == len(s.spans) {
		s.next = 0
		s.full = true
	}
	s.published++
	s.mu.Unlock()
}

// PublishBatch records sps in order under one hold of the lock. The ring
// and the published and dropped counts end exactly as if each span had
// been published in turn. Allocation-free.
func (s *SpanSink) PublishBatch(sps []PeriodSpan) {
	if s == nil || len(sps) == 0 {
		return
	}
	s.mu.Lock()
	// Every span published while the ring is full overwrites one; until
	// then the ring has len-next free slots.
	free := 0
	if !s.full {
		free = len(s.spans) - s.next
	}
	if n := len(sps); n > free {
		s.dropped += uint64(n - free)
	}
	s.published += uint64(len(sps))
	for len(sps) > 0 {
		c := copy(s.spans[s.next:], sps)
		sps = sps[c:]
		s.next += c
		if s.next == len(s.spans) {
			s.next = 0
			s.full = true
		}
	}
	s.mu.Unlock()
}

// Snapshot appends the sink's buffered spans to buf oldest first and
// returns it along with the lifetime published and dropped counts as of
// the snapshot instant.
func (s *SpanSink) Snapshot(buf []PeriodSpan) (out []PeriodSpan, published, dropped uint64) {
	if s == nil {
		return buf, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full {
		buf = append(buf, s.spans[s.next:]...)
	}
	return append(buf, s.spans[:s.next]...), s.published, s.dropped
}

// Counts returns the lifetime published and dropped span counts — the
// scrape-time sampling hook behind the firehose counters.
func (s *SpanSink) Counts() (published, dropped uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.published, s.dropped
}
