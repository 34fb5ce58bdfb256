package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/wire"
)

// testConfig is the shared small field: deterministic in its seed.
func testConfig(sc mobiquery.ServiceConfig) mobiquery.NetworkConfig {
	nc := mobiquery.DefaultNetworkConfig()
	nc.Seed = 3
	nc.Nodes = 300
	nc.Service = sc
	return nc
}

func testSpec() wire.Spec {
	return wire.Spec{
		RadiusM:     150,
		PeriodNS:    int64(2 * time.Second),
		DeadlineNS:  int64(200 * time.Millisecond),
		FreshnessNS: int64(time.Second),
	}
}

// harness is a served service under a manual clock.
type harness struct {
	svc *mobiquery.Service
	srv *Server
	ts  *httptest.Server
}

func newHarness(t *testing.T, sc mobiquery.ServiceConfig) *harness {
	t.Helper()
	svc, err := mobiquery.Open(context.Background(), testConfig(sc), mobiquery.WithResultBuffer(64))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := New(svc, Options{AllowAdvance: true})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &harness{svc: svc, srv: srv, ts: ts}
}

// subscribe opens a subscribe stream and decodes the ack.
func (h *harness) subscribe(t *testing.T, ctx context.Context, req wire.SubscribeRequest) (ack wire.Frame, dec *wire.Decoder, closeBody func()) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, h.ts.URL+"/v1/subscribe", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := h.ts.Client().Do(hr)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe: status %d: %s", resp.StatusCode, msg)
	}
	dec = wire.NewDecoder(resp.Body)
	if err := dec.Decode(&ack); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if ack.Type != wire.FrameAck || ack.ID == 0 {
		t.Fatalf("first frame is %+v, want an ack with an id", ack)
	}
	return ack, dec, func() { resp.Body.Close() }
}

// advance moves the served virtual clock.
func (h *harness) advance(t *testing.T, d time.Duration) {
	t.Helper()
	body, _ := json.Marshal(wire.AdvanceRequest{DNS: int64(d)})
	resp, err := h.ts.Client().Post(h.ts.URL+"/v1/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("advance: status %d: %s", resp.StatusCode, msg)
	}
}

func TestHealthAndStats(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	resp, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hl wire.Health
	if err := json.NewDecoder(resp.Body).Decode(&hl); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	resp.Body.Close()
	if !hl.OK || hl.Subscribers != 0 {
		t.Errorf("health %+v", hl)
	}

	resp, err = http.Get(h.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st wire.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.Nodes != 300 || st.Opened != 0 || st.Draining {
		t.Errorf("stats %+v", st)
	}
	if st.SchedLen != 0 {
		t.Errorf("empty service scheduler stats %+v", st)
	}

	// One live subscription means one scheduled period.
	_, _, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	})
	defer done()
	resp, err = http.Get(h.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	st = wire.ServiceStats{}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.Subscribers != 1 || st.SchedLen != 1 {
		t.Errorf("scheduler stats after subscribe %+v", st)
	}
}

// stalledWriter is the response side of a client that stopped reading its
// socket: the first Write announces itself and then blocks until released.
type stalledWriter struct {
	header  http.Header
	once    sync.Once
	writing chan struct{}
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return len(p), nil
}

// TestStatsIsNotHeldByAStalledReader pins that /v1/stats requests share
// nothing while they write: one whose client never drains its response must
// not keep the next from being answered.
func TestStatsIsNotHeldByAStalledReader(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	stalled := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	first := make(chan struct{})
	go func() {
		defer close(first)
		h.srv.ServeHTTP(stalled, httptest.NewRequest("GET", "/v1/stats", nil))
	}()
	<-stalled.writing

	second := make(chan error, 1)
	go func() {
		resp, err := http.Get(h.ts.URL + "/v1/stats")
		if err == nil {
			var st wire.ServiceStats
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		second <- err
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Errorf("second /v1/stats: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("/v1/stats waited behind a request whose client stopped reading")
	}
	close(stalled.release)
	<-first
}

func TestSubscribeStreamsResultsAndEndFrame(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	req := wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	}
	req.Spec.LifetimeNS = int64(6 * time.Second) // 3 periods, then the stream ends
	ack, dec, done := h.subscribe(t, context.Background(), req)
	defer done()

	for i := 0; i < 8; i++ {
		h.advance(t, time.Second)
	}
	var results []wire.Result
	var end *wire.Frame
	for end == nil {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("stream: %v (after %d results)", err, len(results))
		}
		switch f.Type {
		case wire.FrameResult:
			results = append(results, *f.Result)
		case wire.FrameEnd:
			end = &f
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, r := range results {
		if r.K != i+1 || !r.Received || r.Contributors == 0 {
			t.Errorf("result %d: %+v", i, r)
		}
	}
	if end.Stats == nil || end.Stats.Delivered != 3 || end.Stats.Dropped != 0 {
		t.Errorf("end frame stats %+v", end.Stats)
	}
	// The subscription left the registry with its stream, and its id no
	// longer resolves.
	waitFor(t, "subscription closed", func() bool { return h.svc.Subscribers() == 0 })
	resp, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/stats", h.ts.URL, ack.ID))
	if err != nil {
		t.Fatalf("stats of the ended subscription: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stats of the ended subscription: status %d, want 404", resp.StatusCode)
	}
}

// TestClientDisconnectTearsDownSubscription pins the teardown contract:
// when the client goes away the subscription closes (the engine query is
// freed, Subscribers drops) and no handler goroutine leaks.
func TestClientDisconnectTearsDownSubscription(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req := wire.SubscribeRequest{Spec: testSpec(), Motion: wire.Motion{Kind: "linear", XM: 225, YM: 225, VXMPS: 2}}
	_, dec, done := h.subscribe(t, ctx, req)
	defer done()
	h.advance(t, 2*time.Second)
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("first result: %+v err=%v", f, err)
	}
	if h.svc.Subscribers() != 1 {
		t.Fatalf("live: %d subscribers, want 1", h.svc.Subscribers())
	}

	cancel() // client walks away mid-stream

	waitFor(t, "subscription closed", func() bool { return h.svc.Subscribers() == 0 })
	h.ts.Client().CloseIdleConnections()
	waitFor(t, "goroutines returned", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
	// The service keeps working for everyone else.
	if _, _, done2 := h.subscribe(t, context.Background(), req); done2 != nil {
		done2()
	}
}

func TestWaypointClientStream(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	ack, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 10, YM: 10}, // corner: few nodes
	})
	defer done()

	// Stream three waypoint updates; the last moves the user to the field
	// center, where the query circle holds many more nodes.
	var body bytes.Buffer
	enc := wire.NewEncoder(&body)
	for _, wp := range []wire.Waypoint{{XM: 50, YM: 50}, {XM: 150, YM: 150}, {XM: 225, YM: 225}} {
		enc.Encode(wp)
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/subscriptions/%d/waypoints", h.ts.URL, ack.ID), "application/x-ndjson", &body)
	if err != nil {
		t.Fatalf("waypoints: %v", err)
	}
	var reply wire.WaypointReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("reply: %v", err)
	}
	resp.Body.Close()
	if reply.Applied != 3 {
		t.Fatalf("applied %d waypoints, want 3", reply.Applied)
	}

	h.advance(t, 2*time.Second)
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("result after waypoints: %+v err=%v", f, err)
	}
	// A 150 m circle at the center of the 450 m field covers far more of
	// the 300 nodes than the same circle in the corner would.
	if f.Result.AreaNodes < 50 {
		t.Errorf("result evaluated at the corner? area nodes %d", f.Result.AreaNodes)
	}

	// Per-subscription stats endpoint sees the delivery.
	resp, err = http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/stats", h.ts.URL, ack.ID))
	if err != nil {
		t.Fatalf("sub stats: %v", err)
	}
	var info wire.SubscriptionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode sub stats: %v", err)
	}
	resp.Body.Close()
	if info.ID != ack.ID || info.Stats.Delivered != 1 {
		t.Errorf("sub stats %+v", info)
	}

	// Unknown and malformed ids are clean client errors.
	for path, want := range map[string]int{
		"/v1/subscriptions/999999/stats": http.StatusNotFound,
		"/v1/subscriptions/zebra/stats":  http.StatusBadRequest,
	} {
		resp, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestWaypointStreamErrors pins how a waypoint stream that does not end
// cleanly is answered: a line that fails to decode is 400 and a subscription
// that closed under the stream 409 — never 200 — and in both cases the
// updates before the failure were applied and the message counts them.
func TestWaypointStreamErrors(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ack, dec, done := h.subscribe(t, ctx, wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 10, YM: 10}, // corner: few nodes
	})
	defer done()
	url := fmt.Sprintf("%s/v1/subscriptions/%d/waypoints", h.ts.URL, ack.ID)
	// nextAreaNodes advances one period and reads its result.
	nextAreaNodes := func() int {
		t.Helper()
		h.advance(t, 2*time.Second)
		var f wire.Frame
		if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
			t.Fatalf("result frame: %+v err=%v", f, err)
		}
		return f.Result.AreaNodes
	}
	corner := nextAreaNodes()

	// Two good lines, then a truncated one.
	resp, err := http.Post(url, "application/x-ndjson",
		strings.NewReader("{\"x_m\":50,\"y_m\":50}\n{\"x_m\":225,\"y_m\":225}\n{\"x_m\":"))
	if err != nil {
		t.Fatalf("waypoints: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "after 2 applied") {
		t.Fatalf("garbage line: status %d %q, want 400 naming 2 applied", resp.StatusCode, msg)
	}
	// The second good line moved the user to the field center.
	if n := nextAreaNodes(); n < 50 || n <= corner {
		t.Errorf("after the two applied waypoints the area holds %d nodes (corner %d); the updates were lost", n, corner)
	}

	// A stream whose subscription closes under it: the first line goes
	// through (seen as the user back in the corner), then the subscriber
	// hangs up, then the second line arrives.
	pr, pw := io.Pipe()
	type reply struct {
		status int
		msg    string
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/x-ndjson", pr)
		if err != nil {
			got <- reply{err: err}
			return
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- reply{status: resp.StatusCode, msg: string(msg)}
	}()
	fmt.Fprintln(pw, `{"x_m":10,"y_m":10}`)
	waitFor(t, "first waypoint applied", func() bool { return nextAreaNodes() == corner })
	cancel()
	waitFor(t, "subscription closed", func() bool { return h.svc.Subscribers() == 0 })
	fmt.Fprintln(pw, `{"x_m":225,"y_m":225}`)
	pw.Close()
	r := <-got
	if r.err != nil {
		t.Fatalf("waypoints over a closed subscription: %v", r.err)
	}
	if r.status != http.StatusConflict || !strings.Contains(r.msg, "after 1 waypoints applied") {
		t.Errorf("closed subscription: status %d %q, want 409 naming 1 applied", r.status, r.msg)
	}
}

// TestWaypointLineBound pins the per-line bound of the waypoint stream: one
// valid line, then one past maxRequestBody. The second is refused with 413
// naming the applied count, and the first stays applied.
func TestWaypointLineBound(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	ack, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 10, YM: 10}, // corner: few nodes
	})
	defer done()
	body := `{"x_m":225,"y_m":225}` + "\n" + `{"x_m":10,` + strings.Repeat(" ", maxRequestBody) + `"y_m":10}` + "\n"
	resp, err := http.Post(fmt.Sprintf("%s/v1/subscriptions/%d/waypoints", h.ts.URL, ack.ID), "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("waypoints: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "after 1 applied") {
		t.Fatalf("oversized line: status %d %q, want 413 naming 1 applied", resp.StatusCode, msg)
	}
	h.advance(t, 2*time.Second)
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("result frame: %+v err=%v", f, err)
	}
	if f.Result.AreaNodes < 50 {
		t.Errorf("the valid line before the oversized one was lost: area nodes %d", f.Result.AreaNodes)
	}
}

func TestBadRequestsAreClientErrors(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	spec, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// A valid request padded past maxRequestBody with whitespace inside the
	// object: without the padding it would open a subscription.
	pad := strings.Repeat(" ", maxRequestBody)
	oversized := `{"spec":` + string(spec) + `,` + pad + `"motion":{"kind":"static","x_m":225,"y_m":225}}`
	cases := []struct {
		body string
		want int
	}{
		{oversized, http.StatusRequestEntityTooLarge},
		{"{not json", http.StatusBadRequest},
		{`{"spec":{"radius_m":100,"period_ns":1000000000,"strategy":"psychic"},"motion":{"kind":"static"}}`, http.StatusBadRequest},
		{`{"spec":{"radius_m":100,"period_ns":1000000000},"motion":{"kind":"teleport"}}`, http.StatusBadRequest},
		// Valid wire shape, invalid spec: rejected by Subscribe.
		{`{"spec":{"radius_m":-1,"period_ns":1000000000},"motion":{"kind":"static"}}`, http.StatusUnprocessableEntity},
		// One past each build bound (one below MinPeriod): refused before
		// Subscribe runs.
		{fmt.Sprintf(`{"spec":{"radius_m":100,"period_ns":%d},"motion":{"kind":"static"}}`, wire.MinPeriod-1), http.StatusBadRequest},
		{fmt.Sprintf(`{"spec":{"radius_m":100,"period_ns":1000000000,"window":%d},"motion":{"kind":"static"}}`, wire.MaxWindow+1), http.StatusBadRequest},
		{fmt.Sprintf(`{"spec":{"radius_m":100,"period_ns":1000000000,"strategy":"jit","corridor_lookahead":%d},"motion":{"kind":"static"}}`, wire.MaxCorridorLookahead+1), http.StatusBadRequest},
		{overBound(int64(wire.MaxCourseDuration)+1, int64(wire.MaxCourseDuration)+1, int64(wire.MaxCourseDuration)+1, 1e9), http.StatusBadRequest},
		{overBound(wire.MaxCourseSteps+1, 1, wire.MaxCourseSteps+1, 1e9), http.StatusBadRequest},
		{overBound(wire.MaxCourseSteps+1, wire.MaxCourseSteps+1, 1, 1e9), http.StatusBadRequest},
		{overBound(int64(wire.MaxCourseSteps+1)*1e9, int64(wire.MaxCourseSteps+1)*1e9, int64(wire.MaxCourseSteps+1)*1e9, 1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(h.ts.URL+"/v1/subscribe", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %.60q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	if st := h.svc.Stats(); st.Opened != 0 || h.svc.Subscribers() != 0 {
		t.Errorf("refused subscribes opened %d subscriptions (%d live)", st.Opened, h.svc.Subscribers())
	}
	// The advance body has the same bound, and a refused step moves no clock.
	resp, err := http.Post(h.ts.URL+"/v1/advance", "application/json", strings.NewReader(`{"d_ns":1000000000`+pad+`}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || h.svc.Now() != 0 {
		t.Errorf("oversized advance: status %d, clock at %v; want 413 and 0", resp.StatusCode, h.svc.Now())
	}
}

// overBound is a subscribe body with a course motion of the given duration,
// change interval, GPS sampling period (all ns) and region side (m), at
// 1 m/s.
func overBound(durationNS, changeNS, samplingNS int64, sideM float64) string {
	return fmt.Sprintf(`{"spec":{"radius_m":100,"period_ns":1000000000,"strategy":"jit"},`+
		`"motion":{"kind":"course","region_side_m":%g,"speed_min_mps":1,"speed_max_mps":1,`+
		`"duration_ns":%d,"change_interval_ns":%d,"gps_sampling_ns":%d}}`, sideM, durationNS, changeNS, samplingNS)
}

func TestDrainRejectsNewSubscribesKeepsStreams(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	req := wire.SubscribeRequest{Spec: testSpec(), Motion: wire.Motion{Kind: "static", XM: 225, YM: 225}}
	_, dec, done := h.subscribe(t, context.Background(), req)
	defer done()

	h.svc.Drain()

	body, _ := json.Marshal(req)
	resp, err := http.Post(h.ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("subscribe while draining: status %d, want 422", resp.StatusCode)
	}

	// The existing stream keeps delivering.
	h.advance(t, 2*time.Second)
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("result while draining: %+v err=%v", f, err)
	}
	if st := h.svc.Stats(); !st.Draining {
		t.Error("service stats should report draining")
	}
}

func TestAdvanceDisabledWithoutOption(t *testing.T) {
	svc, err := mobiquery.Open(context.Background(), testConfig(mobiquery.ServiceConfig{}))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	ts := httptest.NewServer(New(svc, Options{}))
	defer ts.Close()
	body, _ := json.Marshal(wire.AdvanceRequest{DNS: int64(time.Second)})
	resp, err := http.Post(ts.URL+"/v1/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("advance should not exist on a server without AllowAdvance")
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
