package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"

	"mobiquery"
)

// The seven segments of one delivered period, the same chain
// mobiquery-tracestat prints: the program's echoed PeriodSpan supplies the
// first six stamps and the harness's receive stamp closes the last.
const numSegments = 7

var segmentNames = [numSegments]string{"sched", "dispatch", "eval", "flush", "deliver", "wire", "client"}

// segment decomposes one traced result. recvNS is a recorder instant. An
// in-process delivery has no wire stamp: its wire segment is zero and the
// client segment runs from the channel send to the receive.
func (r *recorder) segment(sp *mobiquery.PeriodSpan, recvNS int64) {
	recv := r.wallNS(recvNS)
	wire, client := int64(0), recv-sp.DeliveredNS
	if sp.WireNS != 0 {
		wire, client = sp.WireNS-sp.DeliveredNS, recv-sp.WireNS
	}
	if client < 0 {
		client = 0
	}
	parts := [numSegments]int64{
		sp.PoppedNS - sp.ArmedNS,
		sp.EvalStartNS - sp.PoppedNS,
		sp.EvalEndNS - sp.EvalStartNS,
		sp.FlushNS - sp.EvalEndNS,
		sp.DeliveredNS - sp.FlushNS,
		wire,
		client,
	}
	for i, ns := range parts {
		r.segments[i] = append(r.segments[i], float32(ns)/1e3)
	}
}

// segmentP50 returns the median of segment i in microseconds.
func (r *recorder) segmentP50(i int) float64 {
	s := slices.Clone(r.segments[i])
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	return float64(s[(len(s)-1)/2])
}

// harnessSpan is one span the harness recorded around a call into the
// program. Parent is the boundary the call belongs to (0 during set-up);
// spans of one boundary share it, and a "boundary" span is its own root.
type harnessSpan struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// N is how many periods, subscribes or closes the span covers.
	N int `json:"n"`
}

func (r *recorder) span(name string, parent int, start, end int64, n int) {
	if !r.trace {
		return
	}
	r.spans = append(r.spans, harnessSpan{Name: name, Parent: parent, StartNS: r.wallNS(start), EndNS: r.wallNS(end), N: n})
}

// writeSpans writes the pass's harness spans as NDJSON, after the pass.
func (r *recorder) writeSpans(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+workload+".ndjson"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
