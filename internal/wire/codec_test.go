package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/obs"
)

// referenceEncode is the encoding/json construction the result frame used
// before it had an appender, kept as the appender's reference: a result
// Frame whose Value JSON cannot write is encoded with its result's "value"
// key shadowed by null — encoding/json resolves a key clash in favour of
// the shallower field, so the outer Result and the outer Value (always nil)
// win over the embedded ones while every other field encodes as usual,
// which puts "value":null last.
func referenceEncode(f Frame) ([]byte, error) {
	var v any = f
	if x := float64(f.Result.Value); math.IsNaN(x) || math.IsInf(x, 0) {
		v = nullValueFrame{Frame: f, Result: nullValueResult{Result: f.Result}}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

type nullValueFrame struct {
	Frame
	Result nullValueResult `json:"result"`
}

type nullValueResult struct {
	*Result
	Value *float64 `json:"value"`
}

// sameFrame reports whether two decoded frames are equal field for field,
// floats compared by their bits (so NaN equals NaN and -0 differs from 0).
func sameFrame(a, b Frame) bool {
	if (a.Result == nil) != (b.Result == nil) {
		return false
	}
	if a.Result != nil {
		ra, rb := *a.Result, *b.Result
		if math.Float64bits(float64(ra.Value)) != math.Float64bits(float64(rb.Value)) ||
			math.Float64bits(ra.Fidelity) != math.Float64bits(rb.Fidelity) {
			return false
		}
		ra.Value, rb.Value, ra.Fidelity, rb.Fidelity = 0, 0, 0, 0
		a.Result, b.Result = &ra, &rb
	}
	return reflect.DeepEqual(a, b)
}

// checkDecode holds Decoder to json.Unmarshal on one line: the same error-ness
// and, without an error, the same frame.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	var want, got Frame
	wantErr := json.Unmarshal(line, &want)
	gotErr := NewDecoder(bytes.NewReader(line)).Decode(&got)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("line %q: Decoder error %v, json.Unmarshal error %v", line, gotErr, wantErr)
	}
	if gotErr == nil && !sameFrame(got, want) {
		t.Fatalf("line %q: Decoder read %+v (result %+v), json.Unmarshal %+v (result %+v)", line, got, got.Result, want, want.Result)
	}
}

// FuzzResultFrameCodec holds the result frame's hand codec to encoding/json.
// (i) A result built from the fuzzed fields goes through AppendResultFrame
// and through Encoder: both must write the reference encoder's bytes, and
// Decoder must read them back as json.Unmarshal does. (ii) line — alone, and
// inserted into and written over that frame at at — goes into a Decoder,
// which must not panic and must agree with json.Unmarshal on the frame and
// on whether the line is an error.
func FuzzResultFrameCodec(f *testing.F) {
	type seed struct {
		value, fidelity float64
		ints            int64
		flags           uint8
		line            string
	}
	for _, s := range []seed{
		{3, 1, 1234, 0b00000111, `{"type":"ack","id":7,"now_ns":3000000000}`},
		{20.000000000000004, 41.0 / 44.0, 17, 0b11111011, `{"type":"end","id":7,"stats":{"delivered":3,"dropped":0,"late":0,"next_period":4}}`},
		{math.NaN(), 1, 5, 0b01000001, `{"type":"error","error":"wire: \u003cbad\u003e"}`},
		{math.Inf(1), 0, -1, 0b10000000, `{"result":{"k":1},"type":"result"}`},
		{math.Inf(-1), math.NaN(), math.MaxInt64, 0b01111111, `{"type":"result","result":{"k":1,"K":2}}`},
		{math.Copysign(0, -1), 0.5, math.MinInt64, 0, `{"type":"result","result":{"value":null,"k":3}}`},
		{5e-324, 1e-6, 1 << 53, 0b00101010, ` {"type" : "result"} `},
		{math.Nextafter(1e-6, 0), 1e21, 999999999, 0b01010101, `{"type":"result","result":{"k":1e3}}`},
		{math.Nextafter(1e21, 0), 1e-7, 0, 0b11000000, "\t\r"},
		{-1e300, math.MaxFloat64, 42, 0b01000000, `{"type":"result","id":-0}`},
	} {
		f.Add(uint32(s.ints), s.flags, s.value, s.fidelity, s.ints, s.ints/3, s.ints^0x5a5a, uint64(s.ints)*0x9e3779b97f4a7c15, []byte(s.line), uint16(s.ints))
	}
	f.Fuzz(func(t *testing.T, id uint32, flags uint8, value, fidelity float64, a, b, c int64, ids uint64, line []byte, at uint16) {
		bit := func(i uint) bool { return flags>>i&1 == 1 }
		q := mobiquery.QueryResult{
			K:               int(a),
			Deadline:        time.Duration(b),
			Received:        bit(0),
			OnTime:          bit(1),
			Value:           value,
			Contributors:    int(c),
			AreaNodes:       int(a ^ b),
			Fidelity:        fidelity,
			Success:         bit(2),
			EvaluatedAt:     time.Duration(b - c),
			Lateness:        time.Duration(c),
			StaleNodes:      int(a >> 7),
			MaxStaleness:    time.Duration(a + c),
			Warmup:          bit(3),
			PrefetchedNodes: int(b >> 11 * c),
			CorridorHit:     bit(4),
			PyramidHit:      bit(5),
			WindowPeriods:   int(c >> 3),
		}
		var wireNS int64
		if bit(6) {
			q.Trace = &mobiquery.PeriodSpan{
				Trace: mobiquery.TraceID(ids), Span: mobiquery.SpanID(ids >> 9),
				K: int(c), Due: time.Duration(a), ArmedNS: b, PoppedNS: c, EvalStartNS: a ^ c,
				EvalEndNS: b + 1, FlushNS: c >> 2, DeliveredNS: a - 1, WireNS: b,
				Class: obs.Class(id % 6), Outcome: obs.Outcome(id >> 8 % 2), Late: bit(7),
			}
			wireNS = int64(ids) >> (id % 64)
		}

		got := AppendResultFrame(nil, id, &q, wireNS)
		frame := Frame{Type: FrameResult, ID: id, Result: ptr(FromResult(q))}
		if frame.Result.Trace != nil {
			frame.Result.Trace.WireNS = wireNS
		}
		want, refErr := referenceEncode(frame)
		var enc bytes.Buffer
		encErr := NewEncoder(&enc).Encode(frame)
		_, _, routed := frame.sessionResult()
		switch {
		case refErr != nil:
			// Only a Fidelity JSON has no number for has no encoding/json
			// form; Encoder refuses it as encoding/json does.
			if !math.IsNaN(fidelity) && !math.IsInf(fidelity, 0) {
				t.Fatalf("reference encoder failed on %+v: %v", q, refErr)
			}
			if encErr == nil {
				t.Fatalf("Encoder wrote %q for a frame encoding/json refuses", enc.Bytes())
			}
		case !bytes.Equal(got, want):
			t.Fatalf("AppendResultFrame wrote\n%s\nencoding/json writes\n%s", got, want)
		case routed || !math.IsNaN(value) && !math.IsInf(value, 0):
			// A span of a class no session produces has no PeriodSpan to
			// route through the appender: Encoder then is json.Encoder,
			// which has no "value":null.
			if encErr != nil || !bytes.Equal(enc.Bytes(), want) {
				t.Fatalf("Encoder wrote %q (%v), encoding/json writes %q", enc.Bytes(), encErr, want)
			}
		}
		checkDecode(t, got)

		firstLine := func(b []byte) []byte {
			if i := bytes.IndexByte(b, '\n'); i >= 0 {
				return b[:i]
			}
			return b
		}
		checkDecode(t, firstLine(line))
		p := int(at) % len(got)
		inserted := append(append(append([]byte(nil), got[:p]...), line...), got[p:]...)
		checkDecode(t, firstLine(inserted))
		over := append([]byte(nil), got...)
		copy(over[p:], line)
		checkDecode(t, firstLine(over))
	})
}

// TestNonFiniteValueTravelsAsNull pins the one lossy corner of the schema:
// an aggregate over an empty area (Avg of nothing is NaN, Min/Max of
// nothing ±Inf) has no JSON number, so the frame carries "value":null —
// last in the result object, after the span, exactly where the
// encoding/json construction that preceded the appender put it — and the
// client reads NaN, with every other field intact and without moving a
// byte of a finite frame.
func TestNonFiniteValueTravelsAsNull(t *testing.T) {
	const untraced = `{"type":"result","id":9,"result":{"k":17,"deadline_ns":34000000000,"received":true,"on_time":false,"contributors":41,"area_nodes":44,"fidelity":0.9318181818181818,"success":false,"evaluated_at_ns":34123456789,"lateness_ns":123456789,"stale_nodes":3,"max_staleness_ns":999999999,"warmup":true,"prefetched_nodes":38,"corridor_hit":true,"pyramid_hit":true,"window_periods":4,"value":null}}` + "\n"
	const traced = `{"type":"result","id":9,"result":{"k":17,"deadline_ns":34000000000,"received":true,"on_time":false,"contributors":41,"area_nodes":44,"fidelity":0.9318181818181818,"success":false,"evaluated_at_ns":34123456789,"lateness_ns":123456789,"stale_nodes":3,"max_staleness_ns":999999999,"warmup":true,"prefetched_nodes":38,"corridor_hit":true,"pyramid_hit":true,"window_periods":4,"trace":{"trace_id":"deadbeefcafe0123","span_id":"f04ad5f0f9db40dd","k":5,"due_ns":10000000000,"armed_ns":1000,"popped_ns":2000,"eval_start_ns":3000,"eval_end_ns":4000,"flush_ns":4500,"delivered_ns":5000,"wire_ns":6000,"class":"pyramid","outcome":"delivered","late":true},"value":null}}` + "\n"
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, want := range []string{untraced, traced} {
			orig := fullResult()
			orig.Value = v
			if want == traced {
				span := fullSpan()
				orig.Trace = &span
			}
			var buf bytes.Buffer
			if err := NewEncoder(&buf).Encode(Frame{Type: FrameResult, ID: 9, Result: ptr(FromResult(orig))}); err != nil {
				t.Fatalf("value %v: encode: %v", v, err)
			}
			if got := buf.String(); got != want {
				t.Fatalf("value %v: frame is\n%s\nwant\n%s", v, got, want)
			}
			var wireNS int64
			if orig.Trace != nil {
				wireNS = orig.Trace.WireNS
			}
			if got := string(AppendResultFrame(nil, 9, &orig, wireNS)); got != want {
				t.Fatalf("value %v: AppendResultFrame wrote\n%s\nwant\n%s", v, got, want)
			}
			var f Frame
			if err := NewDecoder(&buf).Decode(&f); err != nil {
				t.Fatalf("value %v: decode: %v", v, err)
			}
			if f.Type != FrameResult || f.ID != 9 || f.Result == nil {
				t.Fatalf("value %v: frame came back as %+v", v, f)
			}
			got := f.Result.QueryResult()
			if !math.IsNaN(got.Value) {
				t.Errorf("value %v: decoded %v, want NaN", v, got.Value)
			}
			got.Value, orig.Value = 0, 0
			if !reflect.DeepEqual(got, orig) {
				t.Errorf("value %v: the rest of the result changed:\n got %+v\nwant %+v", v, got, orig)
			}
		}
	}

	finite := Frame{Type: FrameResult, ID: 9, Result: ptr(FromResult(fullResult()))}
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(finite); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(finite)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSuffix(buf.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("finite frame encodes as %s, plain JSON is %s", got, want)
	}
	if err := new(Value).UnmarshalJSON([]byte(`"12"`)); err == nil {
		t.Error("a quoted value should not decode")
	}
}

// TestTraceSpanLinesMatchEncodingJSON pins AppendTraceSpan, the line writer
// of both trace endpoints and of the traced frame's echo, to json.Encoder's
// bytes — including the omitted keys: zero trace and span ids, a zero
// wire stamp, late false — and a class no span should carry.
func TestTraceSpanLinesMatchEncodingJSON(t *testing.T) {
	full := fullSpan()
	untraced := full
	untraced.Trace, untraced.Span = 0, 0
	unwired := full
	unwired.WireNS, unwired.Late = 0, false
	odd := full
	odd.Class, odd.Outcome, odd.Span = obs.Class(99), obs.OutcomeDropped, 0
	for _, sp := range []mobiquery.PeriodSpan{full, untraced, unwired, odd, {}} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(FromPeriodSpan(sp)); err != nil {
			t.Fatal(err)
		}
		if got := AppendTraceSpan(nil, &sp); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("span %+v:\n got %s\nwant %s", sp, got, want.Bytes())
		}

		r := fullResult()
		r.Trace = &sp
		frame := Frame{Type: FrameResult, ID: 3, Result: ptr(FromResult(r))}
		ref, err := referenceEncode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendResultFrame(nil, 3, &r, sp.WireNS); !bytes.Equal(got, ref) {
			t.Errorf("traced frame with span %+v:\n got %s\nwant %s", sp, got, ref)
		}
		checkDecode(t, ref)
	}
}

// TestEncoderFallsBackForFramesTheAppenderDoesNotWrite pins the routing
// rule: a result frame carrying anything but its id and result, or a span
// FromPeriodSpan cannot have produced, still encodes as encoding/json does.
func TestEncoderFallsBackForFramesTheAppenderDoesNotWrite(t *testing.T) {
	odd := ptr(FromResult(fullResult()))
	odd.Trace = &TraceSpan{TraceID: "ABC", Class: "psychic", Outcome: "delivered"}
	for _, f := range []Frame{
		{Type: FrameResult, ID: 1, NowNS: 5, Result: ptr(FromResult(fullResult()))},
		{Type: "", Result: ptr(FromResult(fullResult()))},
		{Type: FrameResult, Stats: &SubStats{Delivered: 1}, Result: ptr(FromResult(fullResult()))},
		{Type: FrameResult, Result: odd},
	} {
		var got bytes.Buffer
		if err := NewEncoder(&got).Encode(f); err != nil {
			t.Fatal(err)
		}
		want, err := referenceEncode(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("frame %+v:\n got %s\nwant %s", f, got.Bytes(), want)
		}
	}
}

// TestDecoderReadsAnyLayout pins the decoder's fallback: a result frame in
// another producer's key order or whitespace, a long line past the read
// buffer, blank lines and a last line without its newline all decode as
// encoding/json decodes them, and a non-Frame value may span lines.
func TestDecoderReadsAnyLayout(t *testing.T) {
	r := fullResult()
	span := fullSpan()
	r.Trace = &span
	want := Frame{Type: FrameResult, ID: 4, Result: ptr(FromResult(r))}
	pretty, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var reordered map[string]any
	if err := json.Unmarshal(pretty, &reordered); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(reordered) // keys in map order: sorted
	if err != nil {
		t.Fatal(err)
	}
	long := string(AppendResultFrame(nil, 4, &r, span.WireNS))
	if len(long) <= lineSize {
		t.Fatalf("traced frame is %d bytes: no longer than the %d-byte read buffer", len(long), lineSize)
	}
	long = strings.TrimSuffix(long, "\n")
	stream := string(sorted) + "\n\n  \n" + long + "\r\n" + long
	dec := NewDecoder(bytes.NewReader([]byte(stream)))
	for i := 0; i < 3; i++ {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(f, want) {
			t.Fatalf("frame %d: got %+v (result %+v), want %+v", i, f, f.Result, want)
		}
	}
	var f Frame
	if err := dec.Decode(&f); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	// A multi-line subscribe body keeps encoding/json's stream semantics.
	req := SubscribeRequest{Spec: Spec{RadiusM: 25, PeriodNS: 7}, Motion: Motion{Kind: "static", XM: 1}}
	body, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got SubscribeRequest
	if err := NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil || got != req {
		t.Fatalf("multi-line subscribe body: %+v, %v", got, err)
	}
}

// streamResult is a result as the repository benchmark's stream_fanout
// queries produce them.
var streamResult = mobiquery.QueryResult{
	K: 1234, Deadline: 1234 * time.Second, Received: true, OnTime: true, Value: 3,
	Contributors: 3, AreaNodes: 3, Fidelity: 1, Success: true,
	EvaluatedAt: 1234 * time.Second, StaleNodes: 1, MaxStaleness: 437 * time.Millisecond,
}

// repeatReader reads one line over and over.
type repeatReader struct {
	line []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

var frameSink Frame

// BenchmarkResultFrameCodec measures a steady-state result frame at both
// ends of a stream and is its own allocation gate (make bench-wire): an
// append into a reused buffer, traced or not, must not allocate at all, and
// a decode into a reused Frame may allocate its *Result and nothing else.
func BenchmarkResultFrameCodec(b *testing.B) {
	tracedResult := streamResult
	span := fullSpan()
	tracedResult.Trace = &span
	for _, c := range []struct {
		name string
		r    *mobiquery.QueryResult
	}{{"Append", &streamResult}, {"AppendTraced", &tracedResult}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := AppendResultFrame(nil, 77, c.r, 6000)
			n, allocs := countAllocs(b, allocFloor, func() { buf = AppendResultFrame(buf[:0], 77, c.r, 6000) })
			if allocs > uint64(n/1000) {
				b.Fatalf("%d appends allocated %d times; a result frame append must not allocate", n, allocs)
			}
		})
	}
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		dec := NewDecoder(&repeatReader{line: AppendResultFrame(nil, 77, &streamResult, 0)})
		decode := func() {
			if err := dec.Decode(&frameSink); err != nil || frameSink.Result.K != streamResult.K {
				b.Fatalf("decode: %v", err)
			}
		}
		decode()
		// One *Result per decode, plus a handful the runtime makes across
		// the collections that b.N results cause (7 over 2M decodes); a
		// second allocation per decode reads as 2×b.N.
		if _, allocs := countAllocs(b, 0, decode); allocs > uint64(b.N)+uint64(b.N)/1000+16 {
			b.Fatalf("%d decodes allocated %d times; a result frame decode may allocate its *Result and nothing else", b.N, allocs)
		}
	})
}

// allocFloor is the fewest appends the append gate counts mallocs over, the
// ones past b.N untimed. Mallocs are counted process-wide, so the runtime's
// own background allocations land in the count: one per thousand appends is
// allowed for them, and at make bench's one iteration a bound of b.N/1000
// would allow none.
const allocFloor = 10_000

// countAllocs runs op b.N times as the timed loop, then untimed until it has
// run at least floor times, and returns how many times it ran and the heap
// allocations made meanwhile.
func countAllocs(b *testing.B, floor int, op func()) (n int, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	n = max(b.N, floor)
	for i := b.N; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return n, after.Mallocs - before.Mallocs
}
