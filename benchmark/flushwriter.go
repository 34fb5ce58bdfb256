package main

import (
	"bytes"
	"net/http"
	"sync/atomic"
)

// flushWriter is an in-memory http.ResponseWriter that supports Flush, so
// the subscribe handler can be driven through ServeHTTP with no network
// under it. It discards the body and counts what the handler did:
// bytes, NDJSON lines (one per frame, however the handler batches them)
// and flushes. Counters are atomic because the probe reads them while
// handler goroutines are still streaming.
type flushWriter struct {
	header  http.Header
	status  atomic.Int64
	bytes   atomic.Int64
	lines   atomic.Int64
	flushes atomic.Int64
	// onLines, when set, is called after a write that completed n > 0 lines.
	onLines func(n int64)
}

func newFlushWriter() *flushWriter { return &flushWriter{header: make(http.Header)} }

func (w *flushWriter) Header() http.Header { return w.header }

func (w *flushWriter) WriteHeader(code int) { w.status.CompareAndSwap(0, int64(code)) }

func (w *flushWriter) Write(p []byte) (int, error) {
	w.status.CompareAndSwap(0, http.StatusOK)
	w.bytes.Add(int64(len(p)))
	if n := int64(bytes.Count(p, []byte{'\n'})); n > 0 {
		w.lines.Add(n)
		if w.onLines != nil {
			w.onLines(n)
		}
	}
	return len(p), nil
}

// Flush implements http.Flusher, which http.ResponseController finds.
func (w *flushWriter) Flush() { w.flushes.Add(1) }
