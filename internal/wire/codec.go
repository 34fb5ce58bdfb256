package wire

import (
	"math"
	"strconv"

	"mobiquery"
)

// The result frame is the one message on the period path — one line per
// subscription per period — so it is written by an appender and read by a
// one-pass scanner rather than by encoding/json's reflection. Both reproduce
// encoding/json exactly: the appender writes the bytes json.Encoder writes
// for the frame, and the scanner accepts only lines in the appender's own
// shape, handing every other line to json.Unmarshal. FuzzResultFrameCodec
// pins both against encoding/json.

// AppendResultFrame appends one result frame line to b, newline included:
// byte for byte what json.Encoder writes for Frame{Type: FrameResult, ID:
// id, Result: &w}, where w is FromResult(*r) with its echoed span's WireNS
// set to wireNS. A Value JSON has no number for (NaN, ±Inf: an aggregate
// over an empty area) is written as "value":null in the last position of
// the result object, after "trace"; Decoder reads it back as NaN. A
// non-finite Fidelity, which no session produces (it is a ratio of counts),
// is written as null as well: encoding/json would refuse the frame.
func AppendResultFrame(b []byte, id uint32, r *mobiquery.QueryResult, wireNS int64) []byte {
	b = append(b, `{"type":"result"`...)
	if id != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	b = append(b, `,"result":{"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"deadline_ns":`...)
	b = strconv.AppendInt(b, int64(r.Deadline), 10)
	b = append(b, `,"received":`...)
	b = strconv.AppendBool(b, r.Received)
	b = append(b, `,"on_time":`...)
	b = strconv.AppendBool(b, r.OnTime)
	finite := !math.IsNaN(r.Value) && !math.IsInf(r.Value, 0)
	if finite {
		b = append(b, `,"value":`...)
		b = appendFloat(b, r.Value)
	}
	b = append(b, `,"contributors":`...)
	b = strconv.AppendInt(b, int64(r.Contributors), 10)
	b = append(b, `,"area_nodes":`...)
	b = strconv.AppendInt(b, int64(r.AreaNodes), 10)
	b = append(b, `,"fidelity":`...)
	b = appendFloat(b, r.Fidelity)
	b = append(b, `,"success":`...)
	b = strconv.AppendBool(b, r.Success)
	b = append(b, `,"evaluated_at_ns":`...)
	b = strconv.AppendInt(b, int64(r.EvaluatedAt), 10)
	b = append(b, `,"lateness_ns":`...)
	b = strconv.AppendInt(b, int64(r.Lateness), 10)
	b = append(b, `,"stale_nodes":`...)
	b = strconv.AppendInt(b, int64(r.StaleNodes), 10)
	b = append(b, `,"max_staleness_ns":`...)
	b = strconv.AppendInt(b, int64(r.MaxStaleness), 10)
	if r.Warmup {
		b = append(b, `,"warmup":true`...)
	}
	if r.PrefetchedNodes != 0 {
		b = append(b, `,"prefetched_nodes":`...)
		b = strconv.AppendInt(b, int64(r.PrefetchedNodes), 10)
	}
	if r.CorridorHit {
		b = append(b, `,"corridor_hit":true`...)
	}
	if r.PyramidHit {
		b = append(b, `,"pyramid_hit":true`...)
	}
	if r.WindowPeriods != 0 {
		b = append(b, `,"window_periods":`...)
		b = strconv.AppendInt(b, int64(r.WindowPeriods), 10)
	}
	if r.Trace != nil {
		b = append(b, `,"trace":`...)
		b = appendSpan(b, r.Trace, wireNS)
	}
	if !finite {
		b = append(b, `,"value":null`...)
	}
	return append(b, "}}\n"...)
}

// AppendTraceSpan appends one TraceSpan line to b, newline included: byte
// for byte what json.Encoder writes for FromPeriodSpan(*sp).
func AppendTraceSpan(b []byte, sp *mobiquery.PeriodSpan) []byte {
	return append(appendSpan(b, sp, sp.WireNS), '\n')
}

// appendSpan appends the TraceSpan object of sp with WireNS replaced by
// wireNS.
func appendSpan(b []byte, sp *mobiquery.PeriodSpan, wireNS int64) []byte {
	b = append(b, '{')
	if sp.Trace != 0 {
		b = append(b, `"trace_id":"`...)
		b = appendID(b, uint64(sp.Trace))
		b = append(b, `",`...)
	}
	if sp.Span != 0 {
		b = append(b, `"span_id":"`...)
		b = appendID(b, uint64(sp.Span))
		b = append(b, `",`...)
	}
	b = append(b, `"k":`...)
	b = strconv.AppendInt(b, int64(sp.K), 10)
	b = append(b, `,"due_ns":`...)
	b = strconv.AppendInt(b, int64(sp.Due), 10)
	b = append(b, `,"armed_ns":`...)
	b = strconv.AppendInt(b, sp.ArmedNS, 10)
	b = append(b, `,"popped_ns":`...)
	b = strconv.AppendInt(b, sp.PoppedNS, 10)
	b = append(b, `,"eval_start_ns":`...)
	b = strconv.AppendInt(b, sp.EvalStartNS, 10)
	b = append(b, `,"eval_end_ns":`...)
	b = strconv.AppendInt(b, sp.EvalEndNS, 10)
	b = append(b, `,"flush_ns":`...)
	b = strconv.AppendInt(b, sp.FlushNS, 10)
	b = append(b, `,"delivered_ns":`...)
	b = strconv.AppendInt(b, sp.DeliveredNS, 10)
	if wireNS != 0 {
		b = append(b, `,"wire_ns":`...)
		b = strconv.AppendInt(b, wireNS, 10)
	}
	b = append(b, `,"class":"`...)
	b = append(b, sp.Class.String()...)
	b = append(b, `","outcome":"`...)
	b = append(b, sp.Outcome.String()...)
	b = append(b, '"')
	if sp.Late {
		b = append(b, `,"late":true`...)
	}
	return append(b, '}')
}

// appendID appends v as 16 lowercase hex digits: FormatID(v) for a
// non-zero v.
func appendID(b []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[v>>uint(shift)&0xf])
	}
	return b
}

// appendFloat appends f as encoding/json writes a float64: shortest
// round-trip decimal, exponent form outside [1e-6, 1e21) with a one-digit
// negative exponent shortened ("e-07" → "e-7"); null for NaN and ±Inf.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// scanResultFrame reads a result frame line (without its newline) in
// AppendResultFrame's key order, in one pass. It reports false for any
// line it does not recognise — another key order, whitespace, escapes, an
// unknown key, a number it would have to round or range-check differently
// from encoding/json — which the caller hands to json.Unmarshal. What it
// accepts, it decodes exactly as json.Unmarshal into a zero Frame would.
func scanResultFrame(line []byte) (id uint32, res *Result, ok bool) {
	s := scanner{b: line, ok: true}
	var r Result
	s.must(`{"type":"result"`)
	if s.opt(`,"id":`) {
		id = s.uint32()
	}
	s.must(`,"result":{"k":`)
	r.K = s.int()
	s.must(`,"deadline_ns":`)
	r.DeadlineNS = s.int64()
	s.must(`,"received":`)
	r.Received = s.bool()
	s.must(`,"on_time":`)
	r.OnTime = s.bool()
	value := s.opt(`,"value":`)
	if value {
		r.Value = Value(s.float())
	}
	s.must(`,"contributors":`)
	r.Contributors = s.int()
	s.must(`,"area_nodes":`)
	r.AreaNodes = s.int()
	s.must(`,"fidelity":`)
	r.Fidelity = s.float()
	s.must(`,"success":`)
	r.Success = s.bool()
	s.must(`,"evaluated_at_ns":`)
	r.EvaluatedAtNS = s.int64()
	s.must(`,"lateness_ns":`)
	r.LatenessNS = s.int64()
	s.must(`,"stale_nodes":`)
	r.StaleNodes = s.int()
	s.must(`,"max_staleness_ns":`)
	r.MaxStalenessNS = s.int64()
	if s.opt(`,"warmup":`) {
		r.Warmup = s.bool()
	}
	if s.opt(`,"prefetched_nodes":`) {
		r.PrefetchedNodes = s.int()
	}
	if s.opt(`,"corridor_hit":`) {
		r.CorridorHit = s.bool()
	}
	if s.opt(`,"pyramid_hit":`) {
		r.PyramidHit = s.bool()
	}
	if s.opt(`,"window_periods":`) {
		r.WindowPeriods = s.int()
	}
	if s.opt(`,"trace":`) {
		r.Trace = s.span()
	}
	if !value && s.opt(`,"value":null`) {
		r.Value = Value(math.NaN())
	}
	s.must(`}}`)
	if !s.ok || s.i != len(s.b) {
		return 0, nil, false
	}
	res = new(Result)
	*res = r
	return id, res, true
}

// scanner is scanResultFrame's cursor. ok turns false at the first byte
// that does not fit, after which every read is a no-op.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

// opt consumes p if the input continues with it.
func (s *scanner) opt(p string) bool {
	if s.ok && len(s.b)-s.i >= len(p) && string(s.b[s.i:s.i+len(p)]) == p {
		s.i += len(p)
		return true
	}
	return false
}

// must consumes p or fails the scan.
func (s *scanner) must(p string) {
	if !s.opt(p) {
		s.ok = false
	}
}

func (s *scanner) bool() bool {
	if s.opt("true") {
		return true
	}
	s.must("false")
	return false
}

// int64 reads a JSON integer, -?(0|[1-9][0-9]*), of at most 19 digits that
// fits an int64: the literals strconv.ParseInt accepts as encoding/json
// calls it. A fraction or exponent stops the digits and fails the scan at
// the next key.
func (s *scanner) int64() int64 {
	if !s.ok {
		return 0
	}
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	n := i - start
	if n == 0 || n > 19 || (n > 1 && b[start] == '0') || u > limit {
		s.ok = false
		return 0
	}
	s.i = i
	if neg {
		return -int64(u)
	}
	return int64(u)
}

func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.ok = false
	}
	return int(v)
}

func (s *scanner) uint32() uint32 {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.ok = false
	}
	v := s.int64()
	if v > math.MaxUint32 {
		s.ok = false
	}
	return uint32(v)
}

// float reads a JSON number and parses it as encoding/json does, with
// strconv.ParseFloat; out of float64 range fails the scan (encoding/json
// reports an error there).
func (s *scanner) float() float64 {
	if !s.ok {
		return 0
	}
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := skipDigits(b, i)
	if j == i || (b[i] == '0' && j > i+1) {
		s.ok = false
		return 0
	}
	i = j
	if i < len(b) && b[i] == '.' {
		if j = skipDigits(b, i+1); j == i+1 {
			s.ok = false
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = skipDigits(b, i); j == i {
			s.ok = false
			return 0
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		s.ok = false
		return 0
	}
	s.i = i
	return f
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str reads a string of printable ASCII without escapes; anything else is
// left to encoding/json.
func (s *scanner) str() string {
	s.must(`"`)
	if !s.ok {
		return ""
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := string(s.b[start:s.i])
			s.i++
			return v
		case c < 0x20 || c > 0x7e || c == '\\':
			s.ok = false
			return ""
		}
	}
	s.ok = false
	return ""
}

// span reads a TraceSpan object in appendSpan's key order.
func (s *scanner) span() *TraceSpan {
	t := new(TraceSpan)
	s.must(`{`)
	if s.opt(`"trace_id":`) {
		t.TraceID = s.str()
		s.must(`,`)
	}
	if s.opt(`"span_id":`) {
		t.SpanID = s.str()
		s.must(`,`)
	}
	s.must(`"k":`)
	t.K = s.int()
	s.must(`,"due_ns":`)
	t.DueNS = s.int64()
	s.must(`,"armed_ns":`)
	t.ArmedNS = s.int64()
	s.must(`,"popped_ns":`)
	t.PoppedNS = s.int64()
	s.must(`,"eval_start_ns":`)
	t.EvalStartNS = s.int64()
	s.must(`,"eval_end_ns":`)
	t.EvalEndNS = s.int64()
	s.must(`,"flush_ns":`)
	t.FlushNS = s.int64()
	s.must(`,"delivered_ns":`)
	t.DeliveredNS = s.int64()
	if s.opt(`,"wire_ns":`) {
		t.WireNS = s.int64()
	}
	s.must(`,"class":`)
	t.Class = s.str()
	s.must(`,"outcome":`)
	t.Outcome = s.str()
	if s.opt(`,"late":`) {
		t.Late = s.bool()
	}
	s.must(`}`)
	return t
}
