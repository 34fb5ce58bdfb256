package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobiquery"
	"mobiquery/internal/server"
	"mobiquery/internal/wire"
)

// streamsPerConn caps the subscribe streams multiplexed over one HTTP/2
// connection, below net/http's default of 250 concurrent streams.
const streamsPerConn = 200

// stallAfter is how long a boundary may wait for its frames before the run
// is abandoned as hung.
const stallAfter = 30 * time.Second

// streamTarget drives the service through its network tier: the handler
// mobiquery-serve mounts, behind a TLS + HTTP/2 listener on loopback, with
// one reader goroutine per subscribe stream decoding frames. The consumer
// of a result is the reader that decoded it.
type streamTarget struct {
	wl    *workload
	svc   *mobiquery.Service
	srv   *httptest.Server
	conns []*http.Client
	trace bool
	base  time.Time // the recorder's time base, for the readers' stamps

	streams []*stream
	readers sync.WaitGroup

	// mu orders a stream's death against the firing of a boundary, so a
	// stream that dies owing a result releases the driver exactly once.
	mu       sync.Mutex
	inFlight atomic.Int64 // boundary being waited for
	pending  atomic.Int64 // results of it still owed
	lastRecv atomic.Int64 // recorder instant of the newest receive
	done     chan struct{}
	stall    *time.Timer // reused per boundary: the give-up timer
	closing  atomic.Bool
}

// stream is one subscribe stream. The reader fills the mailbox with each
// result and the driver empties it once the boundary is complete; the
// pending counter's atomic decrement orders the two.
type stream struct {
	id    uint32
	body  io.ReadCloser
	nextK int

	mail   mobiquery.QueryResult
	recvNS int64
	have   bool
	got    int64 // boundary of the newest mailbox fill

	dead  bool // guarded by streamTarget.mu
	ended bool // saw the end frame; read after readers.Wait
}

func newStreamTarget(wl *workload, svc *mobiquery.Service, rec *recorder) (*streamTarget, error) {
	srv := httptest.NewUnstartedServer(server.New(svc, server.Options{}))
	srv.EnableHTTP2 = true
	srv.StartTLS()
	t := &streamTarget{wl: wl, svc: svc, srv: srv, trace: rec.trace, base: rec.base, done: make(chan struct{}, 1), stall: time.NewTimer(stallAfter)}
	t.stall.Stop()
	base, ok := srv.Client().Transport.(*http.Transport)
	if !ok {
		srv.Close()
		return nil, errors.New("httptest client has no *http.Transport")
	}
	t.conns = newConns(base, wl.subscribers())
	return t, nil
}

// newConns returns the client connections that carry the given number of
// streams: min(nproc,4) of them, or more where that would put over
// streamsPerConn on one. A cloned transport has its own connection pool,
// hence its own HTTP/2 connection.
func newConns(base *http.Transport, streams int) []*http.Client {
	conns := make([]*http.Client, max(min(runtime.NumCPU(), 4), (streams+streamsPerConn-1)/streamsPerConn))
	for i := range conns {
		conns[i] = &http.Client{Transport: base.Clone()}
	}
	return conns
}

// open subscribes one stream and waits for its ack. Streams are opened one
// at a time so that subscription ids follow plan order, which the digest
// comparison against the in-process reference relies on.
func (t *streamTarget) open(p plan, serial int) (*stream, time.Duration, error) {
	if t.trace {
		p.Spec.Trace = traceID(t.wl.Seed, serial)
	}
	body, err := json.Marshal(p.request())
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := t.conns[serial%len(t.conns)].Post(t.srv.URL+"/v1/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("subscribe: status %s", resp.Status)
	}
	dec := wire.NewDecoder(resp.Body)
	var ack wire.Frame
	if err := dec.Decode(&ack); err != nil || ack.Type != wire.FrameAck {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("subscribe: want ack frame, got %q (%v)", ack.Type, err)
	}
	ackAfter := time.Since(start)
	if resp.ProtoMajor != 2 {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("subscribe: negotiated %s, want HTTP/2", resp.Proto)
	}
	s := &stream{id: ack.ID, body: resp.Body, nextK: 1, got: t.inFlight.Load()}
	t.readers.Add(1)
	go t.read(s, dec)
	return s, ackAfter, nil
}

// read is a stream's reader goroutine: it ends when the body does.
func (t *streamTarget) read(s *stream, dec *wire.Decoder) {
	defer t.readers.Done()
	defer s.body.Close()
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			break
		}
		switch f.Type {
		case wire.FrameResult:
			s.recvNS = int64(time.Since(t.base))
			s.mail, s.have = f.Result.QueryResult(), true
			s.got = t.inFlight.Load()
			for {
				old := t.lastRecv.Load()
				if s.recvNS <= old || t.lastRecv.CompareAndSwap(old, s.recvNS) {
					break
				}
			}
			if t.pending.Add(-1) == 0 {
				t.done <- struct{}{}
			}
		case wire.FrameEnd:
			s.ended = true
		}
	}
	if s.ended || t.closing.Load() {
		return
	}
	// The stream died under the driver: release the boundary it owes.
	t.mu.Lock()
	s.dead = true
	if s.got < t.inFlight.Load() && t.pending.Add(-1) == 0 {
		t.done <- struct{}{}
	}
	t.mu.Unlock()
}

func (t *streamTarget) subscribe(c int, rec *recorder) error {
	start := rec.now()
	for i, p := range t.wl.Cohorts[c] {
		s, _, err := t.open(p, i)
		if err != nil {
			return fmt.Errorf("stream %d: %w", i, err)
		}
		t.streams = append(t.streams, s)
	}
	rec.span("subscribe", 0, start, rec.now(), len(t.streams))
	return nil
}

func (t *streamTarget) boundary(j int, rec *recorder) error {
	t.mu.Lock()
	live := 0
	for _, s := range t.streams {
		if !s.dead {
			live++
		}
	}
	t.inFlight.Store(int64(j))
	t.pending.Store(int64(live))
	t.mu.Unlock()
	if live == 0 {
		return errors.New("every subscribe stream has died")
	}
	fire := rec.now()
	if err := t.svc.Advance(t.wl.Tick); err != nil {
		return err
	}
	adv := rec.now()
	t.stall.Reset(stallAfter)
	select {
	case <-t.done:
		t.stall.Stop()
	case <-t.stall.C:
		return fmt.Errorf("boundary %d: %d results still owed after %v", j, t.pending.Load(), stallAfter)
	}
	last := t.lastRecv.Load()
	for _, s := range t.streams {
		if !s.have {
			rec.lost(1)
			continue
		}
		rec.result(s.id, s.nextK, &s.mail, fire, s.recvNS)
		s.nextK++
		s.have = false
	}
	rec.boundaryDone(j, fire, adv, last, len(t.streams))
	return nil
}

// close ends the service first, so every handler writes its end frame and
// returns, then waits for the readers and shuts the listener down. A
// stream that ended without an end frame counts as one failed operation.
func (t *streamTarget) close(rec *recorder) error {
	t.closing.Store(true)
	err := t.svc.Close()
	finished := make(chan struct{})
	go func() { t.readers.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		// A handler that never ended its stream: cut the connections so
		// the readers, and the goroutine above, can finish.
		t.srv.CloseClientConnections()
		<-finished
	}
	for _, s := range t.streams {
		if !s.ended {
			rec.unclean++
		}
	}
	t.srv.Close()
	for _, c := range t.conns {
		c.CloseIdleConnections()
	}
	return err
}
