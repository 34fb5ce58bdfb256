package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobiquery"
	"mobiquery/internal/server"
	"mobiquery/internal/wire"
)

// probeServerFrames prices the subscribe handler's per-frame work without a
// network under it: stream_fanout's 400 subscriptions are served through
// ServeHTTP into in-memory flushing writers, and the same plans drained in
// process are subtracted. What remains is the handler's wake-up, the
// FromResult conversion, the JSON encode, the write and the flush.
func (p *prober) probeServerFrames() error {
	wl := genStreamFanout(p.seed)
	plans := wl.Cohorts[0]
	n := int64(len(plans))

	svc, err := mobiquery.Open(context.Background(), wl.Net)
	if err != nil {
		return err
	}
	defer svc.Close()
	handler := server.New(svc, server.Options{})
	// Completion is counted in frame lines written, not flushes, so the
	// probe keeps working if the handler learns to flush less often.
	var lines, want atomic.Int64
	sig := make(chan struct{}, 1)
	want.Store(n) // the acks
	ctx, cancel := context.WithCancel(context.Background())
	var handlers sync.WaitGroup
	writers := make([]*flushWriter, len(plans))
	for i, pl := range plans {
		body, err := json.Marshal(pl.request())
		if err != nil {
			cancel()
			return err
		}
		w := newFlushWriter()
		w.onLines = func(k int64) {
			if now, target := lines.Add(k), want.Load(); now >= target && now-k < target {
				sig <- struct{}{}
			}
		}
		writers[i] = w
		req := httptest.NewRequest(http.MethodPost, "/v1/subscribe", bytes.NewReader(body)).WithContext(ctx)
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			handler.ServeHTTP(w, req)
		}()
	}
	defer handlers.Wait()
	defer cancel()
	select {
	case <-sig:
	case <-time.After(stallAfter):
		return errors.New("server probe: handlers never acked")
	}
	for _, w := range writers {
		if code := w.status.Load(); code != http.StatusOK {
			return fmt.Errorf("server probe: subscribe answered %d", code)
		}
	}
	// totals sums the writers' counters: frame lines, bytes and flushes.
	totals := func() (l, b, f int64) {
		for _, w := range writers {
			l, b, f = l+w.lines.Load(), b+w.bytes.Load(), f+w.flushes.Load()
		}
		return l, b, f
	}
	served := func() int {
		want.Add(n)
		if err := svc.Advance(wl.Tick); err != nil {
			panic(err)
		}
		<-sig
		return int(n)
	}
	for i := 0; i < 20; i++ {
		served()
	}

	// The same plans in process, drained by the probe.
	ref, err := mobiquery.Open(context.Background(), wl.Net)
	if err != nil {
		return err
	}
	defer ref.Close()
	subs := make([]*mobiquery.Subscription, len(plans))
	for i, pl := range plans {
		if subs[i], err = ref.Subscribe(context.Background(), pl.Spec, pl.source()); err != nil {
			return err
		}
	}
	drained := func() int {
		if err := ref.Advance(wl.Tick); err != nil {
			panic(err)
		}
		for _, s := range subs {
			<-s.Results()
		}
		return len(subs)
	}
	for i := 0; i < 20; i++ {
		drained()
	}

	lines0, bytes0, flushes0 := totals()
	servedNS, servedAllocs := p.cpuRounds(served)
	lines1, bytes1, flushes1 := totals()
	drainedNS, drainedAllocs := p.cpuRounds(drained)
	frames := float64(lines1 - lines0)
	p.v["server.frame_ns"] = servedNS - drainedNS
	p.v["server.frame_allocs"] = servedAllocs - drainedAllocs
	p.v["server.flushes_per_frame"] = float64(flushes1-flushes0) / frames
	p.v["server.write_bytes_per_frame"] = float64(bytes1-bytes0) / frames
	return nil
}

// probeTransport prices what sits between the handler's flush and the
// client's decoder: HTTP/2 framing, TLS records and loopback TCP, both
// directions' goroutine wake-ups included. A bare handler writes a
// pre-encoded result line per tick to stream_fanout's stream count over
// its connection count; readers split lines and decode nothing.
func (p *prober) probeTransport() error {
	streams := genStreamFanout(p.seed).subscribers()
	var buf bytes.Buffer
	res := wire.FromResult(sampleResult)
	wire.NewEncoder(&buf).Encode(wire.Frame{Type: wire.FrameResult, ID: 77, Result: &res})
	line := buf.Bytes()

	var mu sync.Mutex
	var ticks []chan struct{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		tick := make(chan struct{}, 1)
		mu.Lock()
		ticks = append(ticks, tick)
		mu.Unlock()
		for {
			if _, err := w.Write(line); err != nil || rc.Flush() != nil {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-tick:
			}
		}
	}))
	srv.EnableHTTP2 = true
	srv.StartTLS()
	defer srv.Close()
	base, ok := srv.Client().Transport.(*http.Transport)
	if !ok {
		return errors.New("httptest client has no *http.Transport")
	}
	conns := newConns(base, streams)
	for _, c := range conns {
		defer c.CloseIdleConnections()
	}
	var pending atomic.Int64
	sig := make(chan struct{}, 1)
	var readers sync.WaitGroup
	defer readers.Wait()
	bodies := make([]io.Closer, 0, streams)
	defer func() {
		for _, b := range bodies {
			b.Close()
		}
	}()
	pending.Store(int64(streams)) // every stream's first line
	for i := 0; i < streams; i++ {
		resp, err := conns[i%len(conns)].Post(srv.URL, "application/json", http.NoBody)
		if err != nil {
			return err
		}
		bodies = append(bodies, resp.Body)
		readers.Add(1)
		go func() {
			defer readers.Done()
			br := bufio.NewReader(resp.Body)
			for {
				if _, err := br.ReadSlice('\n'); err != nil {
					return
				}
				if pending.Add(-1) == 0 {
					sig <- struct{}{}
				}
			}
		}()
	}
	<-sig
	round := func() int {
		pending.Store(int64(streams))
		for _, t := range ticks {
			t <- struct{}{}
		}
		<-sig
		return streams
	}
	for i := 0; i < 50; i++ {
		round()
	}
	ns, _ := p.cpuRounds(round)
	p.v["server.transport_us_per_frame"] = ns / 1e3
	return nil
}

// probeServerRequests measures the request/response routes with
// stream_fanout's streams open: subscribe → ack, the metrics scrape and
// the stats snapshot.
func (p *prober) probeServerRequests() error {
	wl := genStreamFanout(p.seed)
	svc, err := mobiquery.Open(context.Background(), wl.Net)
	if err != nil {
		return err
	}
	rec := newRecorder(passConfig{}, 0)
	t, err := newStreamTarget(wl, svc, rec)
	if err != nil {
		svc.Close()
		return err
	}
	defer t.close(rec)
	if err := t.subscribe(0, rec); err != nil {
		return err
	}
	rng := prng(mix64(uint64(p.seed) ^ 50))
	var acks []float64
	p.measure(func() int {
		s, ack, err := t.open(smallCount(&rng), len(acks))
		if err != nil {
			panic(err)
		}
		s.body.Close()
		acks = append(acks, float64(ack.Nanoseconds())/1e6)
		return 1
	})
	slices.Sort(acks)
	p.v["server.subscribe_ms_p50"] = percentile(acks, 50)
	p.v["server.subscribe_ms_p99"] = percentile(acks, 99)

	get := func(path string) func() int {
		return func() int {
			resp, err := t.conns[0].Get(t.srv.URL + path)
			if err != nil {
				panic(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return 1
		}
	}
	ns, _ := p.measure(get("/metrics"))
	p.v["server.metrics_scrape_ms"] = ns / 1e6
	p.v["server.stats_ns"], _ = p.measure(get("/v1/stats"))
	return nil
}
