package main

import (
	"fmt"
	"math"
	"time"

	"mobiquery"
)

// runLayers produces the per-layer metrics of one workload: an untraced and
// a traced pass of the workload itself, the layer probes (which do not
// depend on the workload: each runs at the shape of the workload that owns
// its layer), the observability-off comparison, and the budget that must
// reconcile the probes with the untraced pass's CPU per period.
func runLayers(wl *workload, o options) (*outcome, error) {
	began := time.Now()
	// A third of the run's length for each of the two passes, a sixtieth
	// for each probe: a traced run then costs about what two untraced ones do.
	budget := time.Duration(o.seconds) * time.Second / 3
	cfg := passConfig{Budget: budget, MaxBoundaries: maxBoundaries(wl, budget)}
	plain, err := runPass(wl, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Trace = true
	traced, err := runPass(wl, cfg)
	if err != nil {
		return nil, err
	}
	if err := traced.Rec.writeSpans(o.out, wl.Name); err != nil {
		return nil, err
	}

	p := &prober{seed: o.seed, dur: time.Duration(o.seconds) * time.Second / 60, v: metricValues{}}
	p.probeGeom()
	p.probeWire()
	p.probeObs()
	for _, probe := range []func() error{p.probeCore, p.probeWarm, p.probeSession, p.probeServerFrames, p.probeTransport, p.probeServerRequests} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	v := p.v

	// What observability costs: dense_eval's shape with the trace rings and
	// the span firehose off, against the default, same length each.
	dense, err := generate("dense_eval", o.seed)
	if err != nil {
		return nil, err
	}
	short := passConfig{Budget: budget / 2, MaxBoundaries: maxBoundaries(dense, budget/2)}
	on, err := runPass(dense, short)
	if err != nil {
		return nil, err
	}
	short.Options = []mobiquery.Option{mobiquery.WithTraceDepth(0), mobiquery.WithSpanFirehose(0)}
	off, err := runPass(dense, short)
	if err != nil {
		return nil, err
	}
	v["obs.disabled_speedup_pct"] = 100 * (off.periodsPerS()/on.periodsPerS() - 1)
	v["obs.trace_overhead_pct"] = 100 * (plain.periodsPerS()/traced.periodsPerS() - 1)

	// From the traced pass: the harness's spans around Advance and the
	// receives, the program's stage histograms and class counters, and the
	// echoed PeriodSpans joined to the harness's receive stamps.
	rec := traced.Rec
	periods := float64(traced.Periods)
	v["session.advance_us_per_period"] = float64(rec.advanceNS) / 1e3 / periods
	v["session.receive_us_per_period"] = float64(rec.receiveNS) / 1e3 / periods
	advance := float64(rec.advanceNS) / 1e9
	for i, n := range []string{"pop", "eval", "flush", "deliver"} {
		v["session.stage_"+n+"_share"] = traced.Stage[i] / advance
	}
	for i, n := range classNames {
		// Per boundary, so that the count repeats exactly whatever K is.
		v["session.class_periods."+n] = float64(traced.Class[i]) / float64(traced.Boundaries)
	}
	for i, n := range segmentNames {
		v["trace."+n+"_us"] = rec.segmentP50(i)
	}
	v["prefetch.warmup_share"] = share(rec.warmupResults, rec.moverResults)
	v["corridor.hit_share"] = share(rec.corridorHits, rec.moverResults)
	v["pyramid.hit_share"] = share(rec.pyramidHits, rec.pyramidEligible)
	if ps := traced.Pyramid; ps.NodesIngested+ps.FringeNodes > 0 {
		v["pyramid.visit_advantage"] = float64(ps.ServedAreaNodes) / float64(ps.NodesIngested+ps.FringeNodes)
	}
	v["driver.fire_gap_us_p99"] = plain.FireGapP99US
	v["driver.gc_cycles"] = float64(plain.GCCycles)
	v["driver.gc_pause_ms"] = float64(plain.GCPause.Microseconds()) / 1e3
	v["driver.goroutines_end"] = float64(plain.Goroutines + traced.Goroutines)

	terms := budgetTerms(wl, v, float64(plain.Rec.receiveNS)/1e3/float64(plain.Periods))
	sum := 0.0
	for _, t := range terms {
		sum += t.US
	}
	e2e := plain.cpuUSPerPeriod()
	v["budget.sum_us_per_period"] = sum
	v["budget.e2e_us_per_period"] = e2e
	v["budget.unexplained_pct"] = 100 * math.Abs(e2e-sum) / e2e

	out := &outcome{
		Workload: wl.Name, Defs: perLayer, Values: v,
		Attempted: traced.Expected, Failed: traced.Failed,
		Correct: traced.Failed == 0 && plain.Failed == 0 && traced.Digest == plain.Digest,
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("untraced %.0f periods/s over K=%d, traced %.0f over K=%d; digests %016x / %016x; probes %v each",
			plain.periodsPerS(), plain.Boundaries, traced.periodsPerS(), traced.Boundaries, plain.Digest, traced.Digest, p.dur),
		fmt.Sprintf("harness spans: %s/trace_%s.ndjson (%d spans)", o.out, wl.Name, len(rec.spans)),
		"budget, CPU µs per subscriber-period:")
	for _, t := range terms {
		out.Notes = append(out.Notes, fmt.Sprintf("  %-8s %-46s %8.3f  %5.1f%%", t.Layer, t.What, t.US, 100*t.US/sum))
	}
	for _, l := range layerShares(terms) {
		out.Notes = append(out.Notes, fmt.Sprintf("  layer %-8s %5.1f%% of the sum", l.Layer, 100*l.US/sum))
	}
	out.Wall = time.Since(began)
	return out, nil
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// budgetTerm is one line of the budget: a layer's own CPU per
// subscriber-period on one workload.
type budgetTerm struct {
	Layer, What string
	US          float64
}

// budgetTerms weights the probe costs by the calls one period makes on the
// workload. Composite probes (an engine evaluation, a served frame) are
// split into the child layer's probe and the parent's remainder, so each
// line is self time and the lines add up without counting anything twice.
// receiveUS is the harness's own drain, measured in the untraced pass.
func budgetTerms(wl *workload, v metricValues, receiveUS float64) []budgetTerm {
	ns := func(name string) float64 { return v[name] / 1e3 }
	var terms []budgetTerm
	add := func(layer, what string, us float64) {
		terms = append(terms, budgetTerm{layer, what, us})
	}
	// evaluation adds an engine evaluation of the named probe's class to the
	// share w of periods that take it, split off from its children.
	evaluation := func(w float64, probe string, children ...budgetTerm) {
		self := ns(probe)
		for _, c := range children {
			self -= c.US
			add(c.Layer, c.What, w*c.US)
		}
		add("core", probe+" less the layers under it", w*self)
	}

	add("core", "pop_due_ns_per_entry + flush_rearms_ns_per_entry", ns("core.pop_due_ns_per_entry")+ns("core.flush_rearms_ns_per_entry"))
	add("session", "period_overhead_ns (lookups, collect, merge, deliver, obs)", ns("session.period_overhead_ns"))
	switch wl.Name {
	case "dense_eval":
		evaluation(1, "core.evaluate_due_ns", budgetTerm{"geom", "visit_within_ns", ns("geom.visit_within_ns")})
	case "warm_paths":
		n := float64(wl.subscribers())
		evaluation(3000/n, "core.evaluate_due_corridor_ns",
			budgetTerm{"corridor", "visit_staged_ns", ns("corridor.visit_staged_ns")},
			budgetTerm{"prefetch", "period_status_ns", ns("prefetch.period_status_ns")})
		add("corridor", "stage_through_ns", 3000/n*ns("corridor.stage_through_ns"))
		evaluation(1000/n, "core.evaluate_due_pyramid_ns", budgetTerm{"pyramid", "serve_window_ns", ns("pyramid.serve_window_ns")})
		evaluation(1000/n, "core.evaluate_due_window_ns")
		add("pyramid", "ensure_epoch_ns, one build per boundary", ns("pyramid.ensure_epoch_ns")/n)
	default: // sparse_churn and stream_fanout: the radius-25 Count query
		evaluation(1, "core.evaluate_due_small_ns")
	}
	if wl.Churn > 0 {
		perPeriod := float64(wl.Churn) / float64(len(wl.Cohorts[0]))
		add("session", "subscribe_us + close_us per churned pair", perPeriod*(v["session.subscribe_us"]+v["session.close_us"]))
	}
	if wl.Network {
		encode := ns("wire.encode_result_ns") // the probe includes FromResult
		add("wire", "from_result + encode_result_ns (server side)", encode)
		add("server", "frame_ns less the encode", ns("server.frame_ns")-encode)
		add("server", "transport_us_per_frame (h2, TLS, loopback)", v["server.transport_us_per_frame"])
		add("wire", "decode_result_ns (client side)", ns("wire.decode_result_ns"))
	} else {
		add("driver", "the harness's own channel receives", receiveUS)
	}
	return terms
}

// layerShares sums the budget per layer, in first-appearance order.
func layerShares(terms []budgetTerm) []budgetTerm {
	var out []budgetTerm
	for _, t := range terms {
		found := false
		for i := range out {
			if out[i].Layer == t.Layer {
				out[i].US += t.US
				found = true
			}
		}
		if !found {
			out = append(out, budgetTerm{Layer: t.Layer, US: t.US})
		}
	}
	return out
}
