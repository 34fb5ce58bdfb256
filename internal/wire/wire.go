// Package wire is the NDJSON frame protocol spoken between
// mobiquery-serve and its clients (cmd/mobiquery-loadgen, tests, curl).
//
// Every message is one compact JSON object on its own line. A subscribe
// call carries one SubscribeRequest as its request body and streams Frame
// lines back: exactly one "ack" frame first, then one "result" frame per
// query period, then one "end" frame carrying the subscription's final
// delivery ledger when the stream closes cleanly. Waypoint updates are
// client-streamed the other way: a request body of Waypoint lines, each
// applied as it arrives.
//
// The frame schema is the session API rendered losslessly: durations are
// int64 nanoseconds, floats are float64 written as shortest round-trip
// decimals, so a Result decoded from the wire reconstructs the original
// mobiquery.QueryResult byte for byte — the loopback tests pin this. The
// one exception is a Value JSON cannot write (NaN, ±Inf: an aggregate over
// an empty area), which travels as "value":null, last in the result
// object, and arrives as NaN.
//
// The result frame, the one message on the period path, has a hand-written
// codec (codec.go): AppendResultFrame writes exactly the bytes encoding/json
// would, and Decoder scans a result line in that key order in one pass,
// without reflection. Any line the scanner does not recognise — ack, end
// and error frames, another producer's key order or whitespace, escapes,
// unknown keys — goes to json.Unmarshal, so a decoder accepts any key order
// and decodes every line exactly as encoding/json does. Every other message
// (subscribe bodies, waypoints, stats, ClientSpan) is plain encoding/json.
package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"mobiquery"
	"mobiquery/internal/obs"
)

// FormatID renders a trace or span id as the wire's fixed-width lowercase
// hex — 64-bit ids travel as strings because JSON numbers lose integer
// precision past 2^53. FormatID(0) is "" (the untraced value omits).
func FormatID(v uint64) string {
	if v == 0 {
		return ""
	}
	var b [16]byte
	return string(appendID(b[:0], v))
}

// ParseID is the inverse of FormatID; "" parses as 0 (untraced).
func ParseID(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("wire: bad trace/span id %q", s)
	}
	return v, nil
}

// Spec is QuerySpec on the wire. The zero values of the optional fields
// select the same defaults the session API does (no deadline slack, no
// freshness window, unbounded lifetime, Avg aggregation, on-demand
// sampling, no corridor).
type Spec struct {
	RadiusM     float64 `json:"radius_m"`
	PeriodNS    int64   `json:"period_ns"`
	DeadlineNS  int64   `json:"deadline_ns,omitempty"`
	FreshnessNS int64   `json:"freshness_ns,omitempty"`
	LifetimeNS  int64   `json:"lifetime_ns,omitempty"`
	// Aggregate is one of "count", "sum", "min", "max", "avg"; empty
	// selects avg.
	Aggregate string `json:"aggregate,omitempty"`
	// Strategy is one of "ondemand" (default when empty), "jit", or
	// "greedy"; Lookahead is greedy's chains-ahead window (0 = minimal).
	Strategy  string `json:"strategy,omitempty"`
	Lookahead int    `json:"lookahead,omitempty"`
	// CorridorLookahead enables spatial corridor prefetching that many
	// period boundaries ahead (requires a prefetching Strategy);
	// ErrBaseM/ErrGrowthMPS are the corridor's location-error model.
	CorridorLookahead int     `json:"corridor_lookahead,omitempty"`
	ErrBaseM          float64 `json:"err_base_m,omitempty"`
	ErrGrowthMPS      float64 `json:"err_growth_mps,omitempty"`
	// TraceID is an optional client-minted trace context, 16 lowercase hex
	// digits. When set, every result frame of the subscription echoes the
	// period's server-side lifecycle span under that trace, letting the
	// client join its own receive timestamps onto the server's segment
	// chain. Empty leaves the subscription untraced.
	TraceID string `json:"trace_id,omitempty"`
	// Window widens each result to an aggregate over the last Window
	// periods (QuerySpec.Window); 0 or 1 keeps single-period results.
	Window int `json:"window,omitempty"`
}

// aggNames maps the wire aggregation names; the zero AggKind means "use
// the session default" (Avg), which "" selects.
var aggNames = map[string]mobiquery.AggKind{
	"":      0,
	"count": mobiquery.Count,
	"sum":   mobiquery.Sum,
	"min":   mobiquery.Min,
	"max":   mobiquery.Max,
	"avg":   mobiquery.Avg,
}

// Bounds on what one subscribe body can make the server build, each far
// past what a session needs: a result window aggregates at most MaxWindow
// periods, a corridor stages at most MaxCorridorLookahead boundaries (at
// Subscribe, under the service lock), and a course motion lasts at most
// MaxCourseDuration and takes at most MaxCourseSteps legs (duration /
// change interval), GPS samples (duration / sampling period) and wall
// reflections (about top speed × duration / region side). A period is at
// least MinPeriod: a step evaluates every period a subscription has come
// due for, so at 10 ns one 2 ms step of the real-time clock would owe
// 200 000 of them.
const (
	MinPeriod            = time.Millisecond
	MaxWindow            = 1 << 12
	MaxCorridorLookahead = 64
	MaxCourseDuration    = 7 * 24 * time.Hour
	MaxCourseSteps       = 1 << 16
)

// QuerySpec converts the wire spec to the session form. Unknown
// aggregate/strategy names, a period below MinPeriod, a window past
// MaxWindow and a corridor lookahead past MaxCorridorLookahead are errors;
// everything else is left to QuerySpec.Validate at Subscribe time.
func (s Spec) QuerySpec() (mobiquery.QuerySpec, error) {
	agg, ok := aggNames[s.Aggregate]
	if !ok {
		return mobiquery.QuerySpec{}, fmt.Errorf("wire: unknown aggregate %q", s.Aggregate)
	}
	if s.PeriodNS < int64(MinPeriod) {
		return mobiquery.QuerySpec{}, fmt.Errorf("wire: period %v is below %v", time.Duration(s.PeriodNS), MinPeriod)
	}
	if s.Window > MaxWindow {
		return mobiquery.QuerySpec{}, fmt.Errorf("wire: window %d exceeds %d periods", s.Window, MaxWindow)
	}
	if s.CorridorLookahead > MaxCorridorLookahead {
		return mobiquery.QuerySpec{}, fmt.Errorf("wire: corridor lookahead %d exceeds %d boundaries", s.CorridorLookahead, MaxCorridorLookahead)
	}
	q := mobiquery.QuerySpec{
		Radius:    s.RadiusM,
		Period:    time.Duration(s.PeriodNS),
		Deadline:  time.Duration(s.DeadlineNS),
		Freshness: time.Duration(s.FreshnessNS),
		Lifetime:  time.Duration(s.LifetimeNS),
		Aggregate: agg,
		Window:    s.Window,
	}
	switch s.Strategy {
	case "", "ondemand":
		q.Strategy = mobiquery.OnDemandStrategy()
	case "jit":
		q.Strategy = mobiquery.JITStrategy()
	case "greedy":
		q.Strategy = mobiquery.GreedyStrategy(s.Lookahead)
	default:
		return mobiquery.QuerySpec{}, fmt.Errorf("wire: unknown strategy %q", s.Strategy)
	}
	if s.CorridorLookahead > 0 {
		q.Corridor = mobiquery.CorridorSpec{
			Lookahead:  s.CorridorLookahead,
			ErrorModel: mobiquery.ErrorModel{Base: s.ErrBaseM, Growth: s.ErrGrowthMPS},
		}
	}
	tid, err := ParseID(s.TraceID)
	if err != nil {
		return mobiquery.QuerySpec{}, err
	}
	q.Trace = mobiquery.TraceID(tid)
	return q, nil
}

// Motion is a MotionSource on the wire.
type Motion struct {
	// Kind is "static", "linear", or "course". Static pins the user at
	// (XM, YM); linear adds a (VXMPS, VYMPS) velocity; course follows a
	// seeded random-direction ground-truth course with a noisy GPS
	// predictor supplying the motion profiles (the Section 6.3 setting).
	Kind  string  `json:"kind"`
	XM    float64 `json:"x_m,omitempty"`
	YM    float64 `json:"y_m,omitempty"`
	VXMPS float64 `json:"vx_mps,omitempty"`
	VYMPS float64 `json:"vy_mps,omitempty"`
	// Course parameters (kind "course").
	Seed             int64   `json:"seed,omitempty"`
	RegionSideM      float64 `json:"region_side_m,omitempty"`
	SpeedMinMPS      float64 `json:"speed_min_mps,omitempty"`
	SpeedMaxMPS      float64 `json:"speed_max_mps,omitempty"`
	ChangeIntervalNS int64   `json:"change_interval_ns,omitempty"`
	DurationNS       int64   `json:"duration_ns,omitempty"`
	// GPS predictor parameters (kind "course").
	GPSSeed       int64   `json:"gps_seed,omitempty"`
	GPSSamplingNS int64   `json:"gps_sampling_ns,omitempty"`
	GPSErrM       float64 `json:"gps_err_m,omitempty"`
	GPSThresholdM float64 `json:"gps_threshold_m,omitempty"`
}

// Source builds the session MotionSource the wire motion describes. A
// course past the MaxCourse bounds is refused before anything is built.
func (m Motion) Source() (mobiquery.MotionSource, error) {
	switch m.Kind {
	case "static":
		return mobiquery.StaticPosition(mobiquery.Pt(m.XM, m.YM)), nil
	case "linear":
		return mobiquery.LinearMotion(mobiquery.Pt(m.XM, m.YM), m.VXMPS, m.VYMPS), nil
	case "course":
		if err := m.courseBounded(); err != nil {
			return nil, err
		}
		return mobiquery.GPSPredictedMotion(
			mobiquery.CourseConfig{
				Seed:           m.Seed,
				RegionSide:     m.RegionSideM,
				Start:          mobiquery.Pt(m.XM, m.YM),
				SpeedMin:       m.SpeedMinMPS,
				SpeedMax:       m.SpeedMaxMPS,
				ChangeInterval: time.Duration(m.ChangeIntervalNS),
				Duration:       time.Duration(m.DurationNS),
			},
			mobiquery.GPSConfig{
				Seed:      m.GPSSeed,
				Sampling:  time.Duration(m.GPSSamplingNS),
				Error:     m.GPSErrM,
				Threshold: m.GPSThresholdM,
			})
	default:
		return nil, fmt.Errorf("wire: unknown motion kind %q", m.Kind)
	}
}

// courseBounded refuses a course past the MaxCourse bounds. Values
// GPSPredictedMotion rejects anyway (non-positive intervals, durations,
// sides) are left to it.
func (m Motion) courseBounded() error {
	d := m.DurationNS
	switch {
	case d > int64(MaxCourseDuration):
		return fmt.Errorf("wire: course duration %v exceeds %v", time.Duration(d), MaxCourseDuration)
	case m.ChangeIntervalNS > 0 && d/m.ChangeIntervalNS > MaxCourseSteps:
		return fmt.Errorf("wire: course of %d legs exceeds %d", d/m.ChangeIntervalNS, MaxCourseSteps)
	case m.GPSSamplingNS > 0 && d/m.GPSSamplingNS > MaxCourseSteps:
		return fmt.Errorf("wire: course of %d GPS samples exceeds %d", d/m.GPSSamplingNS, MaxCourseSteps)
	case m.RegionSideM > 0 && m.SpeedMaxMPS*time.Duration(d).Seconds()/m.RegionSideM > MaxCourseSteps:
		return fmt.Errorf("wire: course of about %.0f wall reflections exceeds %d",
			m.SpeedMaxMPS*time.Duration(d).Seconds()/m.RegionSideM, MaxCourseSteps)
	}
	return nil
}

// SubscribeRequest is the body of POST /v1/subscribe.
type SubscribeRequest struct {
	Spec   Spec   `json:"spec"`
	Motion Motion `json:"motion"`
}

// Frame types on a subscribe stream.
const (
	FrameAck    = "ack"
	FrameResult = "result"
	FrameEnd    = "end"
)

// Frame is one line of a subscribe stream. Type discriminates: an ack
// frame carries ID and NowNS (the service virtual time the subscription's
// periods count from), a result frame carries Result, an end frame
// carries the final Stats.
type Frame struct {
	Type   string    `json:"type"`
	ID     uint32    `json:"id,omitempty"`
	NowNS  int64     `json:"now_ns,omitempty"`
	Result *Result   `json:"result,omitempty"`
	Stats  *SubStats `json:"stats,omitempty"`
}

// Value is a result's aggregate on the wire: a plain JSON number, except
// that null decodes to NaN — what AppendResultFrame writes for a value JSON
// has no number for.
type Value float64

// UnmarshalJSON decodes a JSON number, or null as NaN.
func (v *Value) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = Value(math.NaN())
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("wire: bad result value %s", b)
	}
	*v = Value(f)
	return nil
}

// Result is QueryResult on the wire, field for field.
type Result struct {
	K               int     `json:"k"`
	DeadlineNS      int64   `json:"deadline_ns"`
	Received        bool    `json:"received"`
	OnTime          bool    `json:"on_time"`
	Value           Value   `json:"value"`
	Contributors    int     `json:"contributors"`
	AreaNodes       int     `json:"area_nodes"`
	Fidelity        float64 `json:"fidelity"`
	Success         bool    `json:"success"`
	EvaluatedAtNS   int64   `json:"evaluated_at_ns"`
	LatenessNS      int64   `json:"lateness_ns"`
	StaleNodes      int     `json:"stale_nodes"`
	MaxStalenessNS  int64   `json:"max_staleness_ns"`
	Warmup          bool    `json:"warmup,omitempty"`
	PrefetchedNodes int     `json:"prefetched_nodes,omitempty"`
	CorridorHit     bool    `json:"corridor_hit,omitempty"`
	PyramidHit      bool    `json:"pyramid_hit,omitempty"`
	WindowPeriods   int     `json:"window_periods,omitempty"`
	// Trace is the period's echoed server-side span, present only on
	// traced subscriptions (Spec.TraceID set). The server stamps WireNS
	// the instant the frame is handed to the wire.
	Trace *TraceSpan `json:"trace,omitempty"`
}

// FromResult renders a session result for the wire.
func FromResult(r mobiquery.QueryResult) Result {
	w := Result{
		K:               r.K,
		DeadlineNS:      int64(r.Deadline),
		Received:        r.Received,
		OnTime:          r.OnTime,
		Value:           Value(r.Value),
		Contributors:    r.Contributors,
		AreaNodes:       r.AreaNodes,
		Fidelity:        r.Fidelity,
		Success:         r.Success,
		EvaluatedAtNS:   int64(r.EvaluatedAt),
		LatenessNS:      int64(r.Lateness),
		StaleNodes:      r.StaleNodes,
		MaxStalenessNS:  int64(r.MaxStaleness),
		Warmup:          r.Warmup,
		PrefetchedNodes: r.PrefetchedNodes,
		CorridorHit:     r.CorridorHit,
		PyramidHit:      r.PyramidHit,
		WindowPeriods:   r.WindowPeriods,
	}
	if r.Trace != nil {
		ts := FromPeriodSpan(*r.Trace)
		w.Trace = &ts
	}
	return w
}

// QueryResult reconstructs the session result the frame was rendered
// from. FromResult and QueryResult are exact inverses.
func (r Result) QueryResult() mobiquery.QueryResult {
	q := mobiquery.QueryResult{
		K:               r.K,
		Deadline:        time.Duration(r.DeadlineNS),
		Received:        r.Received,
		OnTime:          r.OnTime,
		Value:           float64(r.Value),
		Contributors:    r.Contributors,
		AreaNodes:       r.AreaNodes,
		Fidelity:        r.Fidelity,
		Success:         r.Success,
		EvaluatedAt:     time.Duration(r.EvaluatedAtNS),
		Lateness:        time.Duration(r.LatenessNS),
		StaleNodes:      r.StaleNodes,
		MaxStaleness:    time.Duration(r.MaxStalenessNS),
		Warmup:          r.Warmup,
		PrefetchedNodes: r.PrefetchedNodes,
		CorridorHit:     r.CorridorHit,
		PyramidHit:      r.PyramidHit,
		WindowPeriods:   r.WindowPeriods,
	}
	if r.Trace != nil {
		// A frame produced by FromResult always parses; a hand-built frame
		// with an invalid class or outcome reconstructs with those fields
		// zero rather than failing the whole result.
		sp, _ := r.Trace.PeriodSpan()
		q.Trace = &sp
	}
	return q
}

// SubStats is SubscriptionStats on the wire (an end frame, and the
// per-subscription stats endpoint).
type SubStats struct {
	Delivered  int `json:"delivered"`
	Dropped    int `json:"dropped"`
	Late       int `json:"late"`
	NextPeriod int `json:"next_period"`
}

// FromSubStats renders a subscription's ledger for the wire.
func FromSubStats(st mobiquery.SubscriptionStats) SubStats {
	return SubStats{
		Delivered:  st.Delivered,
		Dropped:    st.Dropped,
		Late:       st.Late,
		NextPeriod: st.NextPeriod,
	}
}

// Waypoint is one client-streamed ground-truth position update (a line
// of the waypoints request body).
type Waypoint struct {
	XM float64 `json:"x_m"`
	YM float64 `json:"y_m"`
}

// WaypointReply closes a waypoint stream: how many updates were applied.
type WaypointReply struct {
	Applied int `json:"applied"`
}

// ServiceStats is mobiquery.ServiceStats on the wire (GET /v1/stats).
type ServiceStats struct {
	NowNS       int64  `json:"now_ns"`
	Nodes       int    `json:"nodes"`
	Subscribers int    `json:"subscribers"`
	Draining    bool   `json:"draining,omitempty"`
	Opened      uint64 `json:"opened"`
	Closed      uint64 `json:"closed"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Late        uint64 `json:"late"`

	// Aggregate tile pyramid: instantiated boundary classes, periods
	// answered from tiles, and epoch ingests.
	PyramidClasses int    `json:"pyramid_classes"`
	PyramidServes  uint64 `json:"pyramid_serves"`
	PyramidBuilds  uint64 `json:"pyramid_builds"`

	// SchedLen is the number of periods armed in the due-period schedule
	// (equal to Subscribers on a quiescent service).
	SchedLen int `json:"sched_len"`
}

// FromServiceStats renders the service ledger for the wire.
func FromServiceStats(st mobiquery.ServiceStats) ServiceStats {
	return ServiceStats{
		NowNS:       int64(st.Now),
		Nodes:       st.Nodes,
		Subscribers: st.Subscribers,
		Draining:    st.Draining,
		Opened:      st.Opened,
		Closed:      st.Closed,
		Delivered:   st.Delivered,
		Dropped:     st.Dropped,
		Late:        st.Late,

		PyramidClasses: st.PyramidClasses,
		PyramidServes:  st.PyramidServes,
		PyramidBuilds:  st.PyramidBuilds,

		SchedLen: st.SchedLen,
	}
}

// PrefetchStats is the planner/corridor ledger on the wire, attached to
// the per-subscription stats endpoint for prefetching subscriptions.
type PrefetchStats struct {
	Strategy            string `json:"strategy"`
	Replans             int    `json:"replans"`
	Served              int64  `json:"served"`
	WarmupUntilNS       int64  `json:"warmup_until_ns"`
	CorridorHits        int64  `json:"corridor_hits,omitempty"`
	CorridorMisses      int64  `json:"corridor_misses,omitempty"`
	CorridorMispredicts int64  `json:"corridor_mispredicts,omitempty"`
	CorridorStaged      int64  `json:"corridor_staged,omitempty"`
}

// FromPrefetchStats renders the planner ledger for the wire.
func FromPrefetchStats(st mobiquery.PrefetchStats) PrefetchStats {
	return PrefetchStats{
		Strategy:            st.Strategy.String(),
		Replans:             st.Replans,
		Served:              st.Served,
		WarmupUntilNS:       int64(st.WarmupUntil),
		CorridorHits:        st.CorridorHits,
		CorridorMisses:      st.CorridorMisses,
		CorridorMispredicts: st.CorridorMispredicts,
		CorridorStaged:      st.CorridorStaged,
	}
}

// TraceSpan is one traced period lifecycle on the wire: a line of the
// NDJSON bodies of GET /v1/subscriptions/{id}/trace and GET /v1/trace,
// and the echo on a traced result frame. Timestamps are wall-clock
// nanoseconds; zero means the stage was never reached. TraceID and
// SpanID are fixed-width lowercase hex (FormatID), empty when the
// subscription carries no trace context. flush_ns is no stage of the chain:
// it equals eval_end_ns (see obs.PeriodSpan).
type TraceSpan struct {
	TraceID     string `json:"trace_id,omitempty"`
	SpanID      string `json:"span_id,omitempty"`
	K           int    `json:"k"`
	DueNS       int64  `json:"due_ns"`
	ArmedNS     int64  `json:"armed_ns"`
	PoppedNS    int64  `json:"popped_ns"`
	EvalStartNS int64  `json:"eval_start_ns"`
	EvalEndNS   int64  `json:"eval_end_ns"`
	FlushNS     int64  `json:"flush_ns"`
	DeliveredNS int64  `json:"delivered_ns"`
	WireNS      int64  `json:"wire_ns,omitempty"`
	Class       string `json:"class"`
	Outcome     string `json:"outcome"`
	Late        bool   `json:"late,omitempty"`
}

// FromPeriodSpan renders a traced period for the wire.
func FromPeriodSpan(sp mobiquery.PeriodSpan) TraceSpan {
	return TraceSpan{
		TraceID:     FormatID(uint64(sp.Trace)),
		SpanID:      FormatID(uint64(sp.Span)),
		K:           sp.K,
		DueNS:       int64(sp.Due),
		ArmedNS:     sp.ArmedNS,
		PoppedNS:    sp.PoppedNS,
		EvalStartNS: sp.EvalStartNS,
		EvalEndNS:   sp.EvalEndNS,
		FlushNS:     sp.FlushNS,
		DeliveredNS: sp.DeliveredNS,
		WireNS:      sp.WireNS,
		Class:       sp.Class.String(),
		Outcome:     sp.Outcome.String(),
		Late:        sp.Late,
	}
}

// PeriodSpan reconstructs the session span the wire form was rendered
// from; FromPeriodSpan and PeriodSpan are exact inverses. The numeric
// fields are filled even when an id, class, or outcome fails to parse —
// the error then reports the first offender, with that field left zero.
func (t TraceSpan) PeriodSpan() (mobiquery.PeriodSpan, error) {
	sp := mobiquery.PeriodSpan{
		K:           t.K,
		Due:         time.Duration(t.DueNS),
		ArmedNS:     t.ArmedNS,
		PoppedNS:    t.PoppedNS,
		EvalStartNS: t.EvalStartNS,
		EvalEndNS:   t.EvalEndNS,
		FlushNS:     t.FlushNS,
		DeliveredNS: t.DeliveredNS,
		WireNS:      t.WireNS,
		Late:        t.Late,
	}
	tid, err := ParseID(t.TraceID)
	if err != nil {
		return sp, err
	}
	sid, err := ParseID(t.SpanID)
	if err != nil {
		return sp, err
	}
	sp.Trace, sp.Span = mobiquery.TraceID(tid), mobiquery.SpanID(sid)
	class, ok := obs.ParseClass(t.Class)
	if !ok {
		return sp, fmt.Errorf("wire: unknown serve class %q", t.Class)
	}
	outcome, ok := obs.ParseOutcome(t.Outcome)
	if !ok {
		return sp, fmt.Errorf("wire: unknown span outcome %q", t.Outcome)
	}
	sp.Class, sp.Outcome = class, outcome
	return sp, nil
}

// ClientSpan is one line of the loadgen's TRACE_pr.ndjson: the server's
// echoed period span joined with the client's own wall-clock stamps for
// the subscription — when the subscribe request was sent, when the ack
// arrived, and when this result frame was read off the wire. Server and
// client clocks are the same host under the smoke harness; across real
// hosts the cross-tier segment (WireNS → RecvNS) absorbs the skew.
type ClientSpan struct {
	Sub    uint32    `json:"sub"`
	SendNS int64     `json:"send_ns"`
	AckNS  int64     `json:"ack_ns"`
	RecvNS int64     `json:"recv_ns"`
	Server TraceSpan `json:"server"`
}

// SubscriptionInfo is the body of GET /v1/subscriptions/{id}/stats.
type SubscriptionInfo struct {
	ID       uint32         `json:"id"`
	Stats    SubStats       `json:"stats"`
	Prefetch *PrefetchStats `json:"prefetch,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	OK          bool  `json:"ok"`
	NowNS       int64 `json:"now_ns"`
	Subscribers int   `json:"subscribers"`
}

// AdvanceRequest is the body of POST /v1/advance (manual-clock servers
// only): move the service's virtual clock forward by DNS nanoseconds.
type AdvanceRequest struct {
	DNS int64 `json:"d_ns"`
}

// Encoder writes NDJSON: one compact JSON value per line. json.Encoder
// already emits exactly that for flat objects; the type exists so both
// ends share one definition of the framing.
type Encoder struct {
	w   io.Writer
	enc *json.Encoder
	buf []byte // a result frame's line
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w, enc: json.NewEncoder(w)} }

// Encode writes one frame line. A result Frame goes through
// AppendResultFrame, so a Value that is NaN or ±Inf (an aggregate over an
// empty area) is written as "value":null, which Value decodes back to NaN,
// rather than failing the stream on a number JSON cannot carry. Every other
// value, and a result frame AppendResultFrame could not have written (one
// carrying more than its id and result, a span FromPeriodSpan cannot
// produce, a non-finite Fidelity), encodes exactly as json.Encoder would —
// which refuses a non-finite Value.
func (e *Encoder) Encode(v any) error {
	if f, ok := v.(Frame); ok && f.Result != nil {
		if q, wireNS, ok := f.sessionResult(); ok {
			e.buf = AppendResultFrame(e.buf[:0], f.ID, &q, wireNS)
			_, err := e.w.Write(e.buf)
			return err
		}
	}
	return e.enc.Encode(v)
}

// sessionResult returns the session result and wire stamp a result frame
// was rendered from, or false when AppendResultFrame would not reproduce
// the frame's encoding/json bytes.
func (f *Frame) sessionResult() (mobiquery.QueryResult, int64, bool) {
	r := f.Result
	if f.Type != FrameResult || f.NowNS != 0 || f.Stats != nil ||
		math.IsNaN(r.Fidelity) || math.IsInf(r.Fidelity, 0) {
		return mobiquery.QueryResult{}, 0, false
	}
	q := r.QueryResult()
	if r.Trace == nil {
		return q, 0, true
	}
	return q, r.Trace.WireNS, FromPeriodSpan(*q.Trace) == *r.Trace
}

// lineSize is the frame reader's buffer: json.Decoder's own first read. An
// untraced result frame fits; a longer line is accumulated in Decoder.long.
const lineSize = 512

// Decoder reads a stream of NDJSON values.
type Decoder struct {
	r    io.Reader
	br   *bufio.Reader // the frame line reader, made by the first Frame decode
	long []byte        // a line longer than br's buffer, accumulated
	// dec is made by the first decode of any other value, and from then on
	// every value goes through it.
	dec *json.Decoder
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads the next value into v; io.EOF ends a clean stream.
//
// A *Frame is read one line at a time and overwritten whole: a result line
// in AppendResultFrame's shape is scanned in one pass, allocating only its
// *Result (and a traced result's span), and any other line is
// json.Unmarshal'd into the zeroed frame — either way *v ends as
// encoding/json decodes that line into a zero Frame. Any other v keeps
// json.Decoder's stream semantics (a value may span lines), and from then
// on so does every value, a *Frame included.
func (d *Decoder) Decode(v any) error {
	if f, ok := v.(*Frame); ok && d.dec == nil {
		return d.decodeFrame(f)
	}
	if d.dec == nil {
		if d.br != nil {
			d.dec = json.NewDecoder(d.br)
		} else {
			d.dec = json.NewDecoder(d.r)
		}
	}
	return d.dec.Decode(v)
}

func (d *Decoder) decodeFrame(f *Frame) error {
	if d.br == nil {
		d.br = bufio.NewReaderSize(d.r, lineSize)
	}
	for {
		line, err := d.readLine()
		if err != nil {
			return err
		}
		// json.Decoder skips whitespace between values: so do blank lines.
		if line = bytes.TrimRight(line, " \t\r\n"); len(line) == 0 {
			continue
		}
		if id, r, ok := scanResultFrame(line); ok {
			*f = Frame{Type: FrameResult, ID: id, Result: r}
			return nil
		}
		*f = Frame{}
		return json.Unmarshal(line, f)
	}
}

// readLine returns the next line, newline included when there is one; a
// last line without one is returned whole, and io.EOF only once nothing is
// left.
func (d *Decoder) readLine() ([]byte, error) {
	line, err := d.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.long = append(d.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = d.br.ReadSlice('\n')
			d.long = append(d.long, line...)
		}
		line = d.long
	}
	if err == io.EOF && len(line) > 0 {
		err = nil
	}
	return line, err
}
