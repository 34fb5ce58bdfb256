package server

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/wire"
)

// loopbackCase is one spec/motion pairing driven both in-process and over
// the wire.
type loopbackCase struct {
	name   string
	spec   wire.Spec
	motion wire.Motion
	steps  int
	step   time.Duration
	want   int // results expected
}

func loopbackCases() []loopbackCase {
	onDemand := testSpec()
	jitCorridor := testSpec()
	jitCorridor.Strategy = "jit"
	jitCorridor.CorridorLookahead = 4
	jitCorridor.ErrBaseM = 20
	jitCorridor.ErrGrowthMPS = 2
	windowed := testSpec()
	windowed.Window = 4
	return []loopbackCase{
		{
			// Windowed aggregates go through the shared tile pyramid; the
			// wire carries window, pyramid_hit and window_periods.
			name:   "window/linear",
			spec:   windowed,
			motion: wire.Motion{Kind: "linear", XM: 200, YM: 250, VXMPS: -2, VYMPS: 1},
			steps:  12, step: time.Second, want: 6,
		},
		{
			name:   "ondemand/linear",
			spec:   onDemand,
			motion: wire.Motion{Kind: "linear", XM: 150, YM: 150, VXMPS: 3, VYMPS: 1},
			steps:  12, step: time.Second, want: 6,
		},
		{
			name: "jit+corridor/gps-course",
			spec: jitCorridor,
			motion: wire.Motion{
				Kind: "course", Seed: 11, XM: 200, YM: 200,
				RegionSideM: 450, SpeedMinMPS: 1, SpeedMaxMPS: 3,
				ChangeIntervalNS: int64(10 * time.Second), DurationNS: int64(time.Minute),
				GPSSeed: 12, GPSSamplingNS: int64(time.Second), GPSErrM: 5,
			},
			steps: 12, step: time.Second, want: 6,
		},
	}
}

// inProcess runs the case directly against the session API.
func inProcess(t *testing.T, sc mobiquery.ServiceConfig, c loopbackCase) []wire.Result {
	t.Helper()
	svc, err := mobiquery.Open(context.Background(), testConfig(sc), mobiquery.WithResultBuffer(64))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	spec, err := c.spec.QuerySpec()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	src, err := c.motion.Source()
	if err != nil {
		t.Fatalf("motion: %v", err)
	}
	sub, err := svc.Subscribe(context.Background(), spec, src)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < c.steps; i++ {
		if err := svc.Advance(c.step); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	sub.Close()
	var out []wire.Result
	for r := range sub.Results() {
		out = append(out, wire.FromResult(r))
	}
	return out
}

// overWire runs the same case through the HTTP front-end under a manual
// clock driven by the advance endpoint.
func overWire(t *testing.T, sc mobiquery.ServiceConfig, c loopbackCase) []wire.Result {
	t.Helper()
	h := newHarness(t, sc)
	_, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{Spec: c.spec, Motion: c.motion})
	defer done()
	for i := 0; i < c.steps; i++ {
		h.advance(t, c.step)
	}
	var out []wire.Result
	for len(out) < c.want {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("stream: %v (after %d results)", err, len(out))
		}
		if f.Type != wire.FrameResult {
			t.Fatalf("unexpected frame %+v", f)
		}
		out = append(out, *f.Result)
	}
	return out
}

// TestLoopbackByteIdentical pins the front-end's fidelity contract: the
// results a client receives over the network are byte-identical (as wire
// frames) to what the same seed and call sequence yields in-process, and
// both are invariant to the engine's Shards/Workers sizing.
func TestLoopbackByteIdentical(t *testing.T) {
	configs := []mobiquery.ServiceConfig{
		{Shards: 1, Workers: 1},
		{Shards: 8, Workers: 4},
		{}, // auto sizing
	}
	for _, c := range loopbackCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := inProcess(t, configs[0], c)
			if len(ref) != c.want {
				t.Fatalf("in-process run yielded %d results, want %d", len(ref), c.want)
			}
			if last := ref[len(ref)-1]; c.spec.Window > 1 && last.WindowPeriods != c.spec.Window {
				t.Errorf("window %d asked over the wire spec, last result merges %d periods", c.spec.Window, last.WindowPeriods)
			}
			refBytes := encodeAll(t, ref)
			for _, sc := range configs {
				if got := encodeAll(t, inProcess(t, sc, c)); got != refBytes {
					t.Errorf("in-process results vary with ServiceConfig %+v:\n got %s\nwant %s", sc, got, refBytes)
				}
				if got := encodeAll(t, overWire(t, sc, c)); got != refBytes {
					t.Errorf("networked results differ from in-process under %+v:\n got %s\nwant %s", sc, got, refBytes)
				}
			}
		})
	}
}

// encodeAll renders a result sequence as one JSON byte string for exact
// comparison.
func encodeAll(t *testing.T, rs []wire.Result) string {
	t.Helper()
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// emptyPatches returns n positions of the test field with no sensor within
// radius: found by asking the service itself, one probe subscription per
// candidate.
func emptyPatches(t *testing.T, n int, radius float64) []mobiquery.Point {
	t.Helper()
	svc, err := mobiquery.Open(context.Background(), testConfig(mobiquery.ServiceConfig{}))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	spec := mobiquery.QuerySpec{Radius: radius, Period: time.Second}
	var cands []mobiquery.Point
	var subs []*mobiquery.Subscription
	for x := 25.0; x < 450; x += 20 {
		for y := 25.0; y < 450; y += 20 {
			sub, err := svc.Subscribe(context.Background(), spec, mobiquery.StaticPosition(mobiquery.Pt(x, y)))
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			cands, subs = append(cands, mobiquery.Pt(x, y)), append(subs, sub)
		}
	}
	if err := svc.Advance(time.Second); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	var out []mobiquery.Point
	for i, sub := range subs {
		if r := <-sub.Results(); r.AreaNodes == 0 && len(out) < n {
			out = append(out, cands[i])
		}
	}
	if len(out) < n {
		t.Fatalf("found %d empty radius-%v patches, want %d", len(out), radius, n)
	}
	return out
}

// TestEmptyAreaAvgStreamsToItsEnd is the regression test for streams that
// died on their first NaN: an Avg over an area with no sensors has no JSON
// number, and the encode error used to end the stream with neither the
// result nor an end frame. Every period must arrive — value NaN, zero
// contributors — and the stream must close with its ledger.
func TestEmptyAreaAvgStreamsToItsEnd(t *testing.T) {
	const streams, periods = 3, 4
	h := newHarness(t, mobiquery.ServiceConfig{})
	spec := testSpec()
	spec.RadiusM = 25
	spec.Aggregate = "avg"
	spec.LifetimeNS = periods * spec.PeriodNS
	var decs []*wire.Decoder
	for _, p := range emptyPatches(t, streams, spec.RadiusM) {
		_, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
			Spec: spec, Motion: wire.Motion{Kind: "static", XM: p.X, YM: p.Y},
		})
		defer done()
		decs = append(decs, dec)
	}
	// One period past the lifetime: the expiry rides the next boundary.
	for i := 0; i <= periods; i++ {
		h.advance(t, time.Duration(spec.PeriodNS))
	}
	for i, dec := range decs {
		for k := 1; k <= periods; k++ {
			var f wire.Frame
			if err := dec.Decode(&f); err != nil {
				t.Fatalf("stream %d period %d: %v", i, k, err)
			}
			if f.Type != wire.FrameResult || f.Result.K != k {
				t.Fatalf("stream %d: want result %d, got %+v", i, k, f)
			}
			if r := f.Result.QueryResult(); !math.IsNaN(r.Value) || r.Contributors != 0 || r.AreaNodes != 0 {
				t.Errorf("stream %d period %d: empty-area Avg arrived as %+v", i, k, r)
			}
		}
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("stream %d: no end frame: %v", i, err)
		}
		if f.Type != wire.FrameEnd || f.Stats == nil || f.Stats.Delivered != periods {
			t.Errorf("stream %d: want an end frame with %d delivered, got %+v (stats %+v)", i, periods, f, f.Stats)
		}
	}
}
