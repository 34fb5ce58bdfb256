// Package server is the network front-end over the mobiquery session
// API: an http.Handler exposing Open/Subscribe as streaming HTTP
// endpoints speaking the internal/wire NDJSON protocol. Over TLS,
// net/http negotiates HTTP/2 and the subscribe stream rides one h2
// server-streamed response; over plain TCP the same bytes flow as
// HTTP/1.1 chunked transfer — the protocol is identical either way.
//
// Endpoints:
//
//	GET  /healthz                        liveness + virtual clock
//	GET  /metrics                        Prometheus text exposition of the
//	                                     service registry (+ per-route HTTP
//	                                     request metrics)
//	GET  /v1/stats                       service-wide delivery ledger
//	GET  /v1/subscriptions/{id}/trace    recent period lifecycle spans,
//	                                     one NDJSON line per period
//	GET  /v1/trace                       service-wide span firehose: the
//	                                     ring-buffered recent spans of every
//	                                     subscription, one NDJSON line each,
//	                                     bounded and lossy (drop-counted in
//	                                     the X-Mobiquery-Trace-Dropped
//	                                     header, never blocking the tick
//	                                     path)
//	POST /v1/subscribe                   body: one wire.SubscribeRequest;
//	                                     response: ack, result*, end frames
//	POST /v1/subscriptions/{id}/waypoints  body: wire.Waypoint per line,
//	                                     applied as each arrives (client
//	                                     streaming); reply: applied count,
//	                                     or 400 at the first malformed line
//	                                     / 413 at one past maxRequestBody
//	                                     / 409 once the subscription closed
//	GET  /v1/subscriptions/{id}/stats    per-subscription + prefetch ledger
//	POST /v1/advance                     manual-clock servers only: move
//	                                     the virtual clock (tests, smoke)
//
// A subscribe stream ends when the subscription does (Lifetime, service
// drain/close) — the end frame carries the final delivery ledger — or
// when the client disconnects, which tears the subscription down
// immediately: no goroutine or engine query outlives its stream.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mobiquery"
	"mobiquery/internal/wire"
)

// Options configures the handler.
type Options struct {
	// AllowAdvance enables POST /v1/advance, which drives the service's
	// virtual clock from the network. Only meaningful for a service
	// opened without WithRealTime (tests and deterministic smoke runs);
	// a real-time service should leave it off.
	AllowAdvance bool
}

// Server is the front-end handler. Create with New. It keeps no registry
// of its own: the {id} endpoints resolve through the service.
type Server struct {
	svc *mobiquery.Service
	mux *http.ServeMux
}

// maxRequestBody bounds the subscribe and advance request bodies; a
// subscribe request is well under 1 KB. Past it a request is refused with
// 413 before anything is opened or advanced. The client-streamed waypoint
// body is not bounded in total, only each of its lines.
const maxRequestBody = 4 << 10

// httpMaxLatency bounds the per-route request-latency histograms;
// subscribe streams (which live as long as the subscription) are not
// instrumented, so a minute of headroom is plenty for every other route.
const httpMaxLatency = int64(64 * time.Second)

// New returns a Server handling the wire protocol over svc.
func New(svc *mobiquery.Service, opts Options) *Server {
	s := &Server{
		svc: svc,
		mux: http.NewServeMux(),
	}
	s.handle("GET /healthz", "healthz", s.handleHealth)
	// The scrape instruments itself too: the wrapper records after the
	// exposition renders, so each scrape shows the count as of the
	// previous one — standard self-measurement lag.
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("GET /v1/stats", "stats", s.handleStats)
	// The subscribe stream stays uninstrumented: its "latency" is the
	// subscription lifetime, which would drown the request histograms.
	s.mux.HandleFunc("POST /v1/subscribe", s.handleSubscribe)
	s.handle("POST /v1/subscriptions/{id}/waypoints", "waypoints", s.handleWaypoints)
	s.handle("GET /v1/subscriptions/{id}/stats", "sub_stats", s.handleSubStats)
	s.handle("GET /v1/subscriptions/{id}/trace", "trace", s.handleTrace)
	s.handle("GET /v1/trace", "firehose", s.handleFirehose)
	if opts.AllowAdvance {
		s.handle("POST /v1/advance", "advance", s.handleAdvance)
	}
	return s
}

// handle registers pattern on the mux wrapped with per-route request
// metrics in the service registry. Registration is get-or-create, so a
// second Server over the same Service shares the same families.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	reg := s.svc.Metrics()
	lbl := `route="` + route + `"`
	total := reg.Counter("mobiquery_http_requests_total", lbl,
		"HTTP requests served, by route (subscribe streams excluded)")
	lat := reg.Histogram("mobiquery_http_request_seconds", lbl,
		"HTTP request wall time, by route (subscribe streams excluded)",
		httpMaxLatency, 1e-9)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		total.Inc()
		lat.Observe(time.Since(start).Nanoseconds())
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	writeJSON(w, http.StatusOK, wire.Health{OK: true, NowNS: int64(st.Now), Subscribers: st.Subscribers})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.FromServiceStats(s.svc.Stats()))
}

// handleMetrics renders the service registry as Prometheus text
// exposition format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.Metrics().WritePrometheus(w)
}

// handleTrace streams a subscription's recent period lifecycle spans,
// oldest first, one NDJSON line each.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	writeSpans(w, sub.TraceSpans(nil))
}

// writeSpans writes one wire.TraceSpan line per span, one Write each.
func writeSpans(w io.Writer, spans []mobiquery.PeriodSpan) {
	var buf []byte
	for i := range spans {
		buf = wire.AppendTraceSpan(buf[:0], &spans[i])
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
}

// handleFirehose streams the service-wide span firehose: every completed
// period span still in the ring, oldest first, one NDJSON line each — in
// the order the evaluating workers published them, which is ascending k
// within a subscription and nothing more across them. The
// response is a bounded snapshot, not a tail — ring capacity caps the
// body, and spans overwritten before this snapshot are only counted, so
// the endpoint can never apply back-pressure to the tick path. The
// lifetime published/dropped counts ride response headers (they are also
// on /metrics as mobiquery_trace_spans_{published,dropped}_total).
func (s *Server) handleFirehose(w http.ResponseWriter, r *http.Request) {
	spans, published, dropped := s.svc.FirehoseSpans(nil)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Mobiquery-Trace-Published", strconv.FormatUint(published, 10))
	w.Header().Set("X-Mobiquery-Trace-Dropped", strconv.FormatUint(dropped, 10))
	writeSpans(w, spans)
}

// handleSubscribe opens a subscription from the request body and streams
// its results until the subscription or the client goes away.
//
// Each result is appended (wire.AppendResultFrame) into the stream's one
// reused buffer and goes out in one Write and one Flush; a closed channel
// ends the stream with the end frame.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req wire.SubscribeRequest
	if !decodeBody(w, r, "subscribe", &req) {
		return
	}
	spec, err := req.Spec.QuerySpec()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	src, err := req.Motion.Source()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The request context tears the subscription down on disconnect: the
	// Results channel then closes and the stream loop below ends.
	sub, err := s.svc.Subscribe(r.Context(), spec, src)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := wire.NewEncoder(w)
	// Periods count from the service's now at Subscribe; the ack hands
	// the client that origin so it can anchor deadline arithmetic.
	ack := wire.Frame{Type: wire.FrameAck, ID: sub.ID(), NowNS: int64(s.svc.Now())}
	if enc.Encode(ack) != nil || rc.Flush() != nil {
		return
	}
	ctx := r.Context()
	id := sub.ID()
	var buf []byte
	for {
		select {
		case <-ctx.Done():
			return
		case res, ok := <-sub.Results():
			if !ok {
				st := wire.FromSubStats(sub.Stats())
				if enc.Encode(wire.Frame{Type: wire.FrameEnd, ID: id, Stats: &st}) == nil {
					rc.Flush()
				}
				return
			}
			var wireNS int64
			if res.Trace != nil {
				// The wire-write stamp closes the server's segment chain:
				// taken the instant the frame is handed to the wire, so
				// the client's receive stamp measures only the network and
				// its own scheduling.
				wireNS = time.Now().UnixNano()
			}
			buf = wire.AppendResultFrame(buf[:0], id, &res, wireNS)
			if _, err := w.Write(buf); err != nil || rc.Flush() != nil {
				return
			}
		}
	}
}

// handleWaypoints applies a client-streamed body of ground-truth position
// updates, one per line, to an open subscription of the service, each as it
// arrives. The stream is unbounded; each line is bounded by maxRequestBody.
// Only a clean end of the body is a success: a line that does not decode is
// 400, a longer line 413, a subscription that closed mid-stream 409, and
// each message says how many updates had been applied by then (they stay
// applied).
func (s *Server) handleWaypoints(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.lookup(w, r)
	if !ok {
		return
	}
	lines := bufio.NewScanner(r.Body)
	lines.Buffer(nil, maxRequestBody)
	applied := 0
	for lines.Scan() {
		if len(bytes.TrimSpace(lines.Bytes())) == 0 {
			continue
		}
		var wp wire.Waypoint
		if err := json.Unmarshal(lines.Bytes(), &wp); err != nil {
			http.Error(w, fmt.Sprintf("wire: bad waypoint after %d applied: %v", applied, err), http.StatusBadRequest)
			return
		}
		if err := sub.UpdateWaypoint(mobiquery.Pt(wp.XM, wp.YM)); err != nil {
			http.Error(w, fmt.Sprintf("%v (after %d waypoints applied)", err, applied), http.StatusConflict)
			return
		}
		applied++
	}
	if err := lines.Err(); errors.Is(err, bufio.ErrTooLong) {
		http.Error(w, fmt.Sprintf("wire: waypoint line past %d bytes after %d applied", maxRequestBody, applied), http.StatusRequestEntityTooLarge)
		return
	} else if err != nil {
		http.Error(w, fmt.Sprintf("wire: bad waypoint after %d applied: %v", applied, err), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, wire.WaypointReply{Applied: applied})
}

func (s *Server) handleSubStats(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.lookup(w, r)
	if !ok {
		return
	}
	info := wire.SubscriptionInfo{ID: sub.ID(), Stats: wire.FromSubStats(sub.Stats())}
	if ps, ok := sub.PrefetchStats(); ok {
		wps := wire.FromPrefetchStats(ps)
		info.Prefetch = &wps
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req wire.AdvanceRequest
	if !decodeBody(w, r, "advance", &req) {
		return
	}
	if err := s.svc.Advance(time.Duration(req.DNS)); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusOK, wire.Health{OK: true, NowNS: int64(s.svc.Now()), Subscribers: s.svc.Subscribers()})
}

// decodeBody decodes the request body, at most maxRequestBody bytes of it,
// into v, writing the error response when it can't: 413 for a body past
// the bound, 400 for one that does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := wire.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "wire: bad "+what+" request: "+err.Error(), code)
	return false
}

// lookup resolves the {id} path value to an open subscription of the
// service, writing the error response when it can't.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*mobiquery.Subscription, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		http.Error(w, "bad subscription id", http.StatusBadRequest)
		return nil, false
	}
	sub := s.svc.Subscription(uint32(id))
	if sub == nil {
		http.Error(w, "no such subscription", http.StatusNotFound)
		return nil, false
	}
	return sub, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	wire.NewEncoder(w).Encode(v)
}
