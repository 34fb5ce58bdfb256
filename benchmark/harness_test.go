package main

import (
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the harness's registry")

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {99, 10}, {90, 9}, {91, 10}, {10, 1}, {0.1, 1}, {100, 10}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want it", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{9, 1, 5, 3}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if !reflect.DeepEqual(in, []float64{9, 1, 5, 3}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
}

func TestSegmentsAreMeasuredApart(t *testing.T) {
	// Eleven boundaries of 2 periods each; pairs of them take 1 s, 2 s,
	// 0.5 s, 1.5 s and 4 s, and the eleventh is the dropped remainder.
	const sec = int64(time.Second)
	r := passLog{
		startNS:  sec, // the pass did not start at the recorder's zero
		startCPU: 10 * sec,
		endNS:    []int64{sec + sec/2, 2 * sec, 3 * sec, 4 * sec, 4*sec + sec/4, 4*sec + sec/2, 5 * sec, 6 * sec, 8 * sec, 10 * sec, 100 * sec},
		cpuNS:    []int64{10 * sec, 10*sec + 4000, 10*sec + 4000, 10*sec + 12000, 0, 10*sec + 12400, 0, 10*sec + 16400, 0, 10*sec + 16800, 0},
		work:     []int32{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	for i := 0; i < 22; i++ { // lateness of sample i is i ms
		r.latenessNS = append(r.latenessNS, uint32(i)*1e6)
	}
	got := r.segments(5)
	want := []segmentStat{
		{Rate: 4, CPUUS: 1, P50MS: 1, P99MS: 3},
		{Rate: 2, CPUUS: 2, P50MS: 5, P99MS: 7},
		{Rate: 8, CPUUS: 0.1, P50MS: 9, P99MS: 11},
		{Rate: 4.0 / 1.5, CPUUS: 1, P50MS: 13, P99MS: 15},
		{Rate: 1, CPUUS: 0.1, P50MS: 17, P99MS: 19},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d segments, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Abs(g.Rate-w.Rate) > 1e-9 || math.Abs(g.CPUUS-w.CPUUS) > 1e-9 || g.P50MS != w.P50MS || g.P99MS != w.P99MS {
			t.Errorf("segment %d: %+v, want %+v", i, g, w)
		}
	}
	if m := median(column(got, func(s segmentStat) float64 { return s.Rate })); m != 4.0/1.5 {
		t.Errorf("median rate = %v, want 2.67", m)
	}
	if m := median(column(got, func(s segmentStat) float64 { return s.P99MS })); m != 11 {
		t.Errorf("median p99 = %v, want 11", m)
	}
	short := r
	short.endNS = r.endNS[:3]
	if short.segments(5) != nil {
		t.Error("fewer boundaries than segments should yield no segments")
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	type res struct {
		id      uint32
		k       int
		v       float64
		c, a, s int
	}
	rs := []res{{1, 1, 20.5, 80, 88, 8}, {2, 1, 19.25, 70, 90, 20}, {1, 2, 20.5, 80, 88, 8}, {7, 3, 0, 0, 0, 0}}
	sum := func(order []int) (d uint64) {
		for _, i := range order {
			r := rs[i]
			d += resultDigest(r.id, r.k, r.v, r.c, r.a, r.s)
		}
		return d
	}
	base := sum([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := sum(order); got != base {
			t.Errorf("digest depends on order %v: %x vs %x", order, got, base)
		}
	}
	// Every digested field must matter.
	r := rs[0]
	d0 := resultDigest(r.id, r.k, r.v, r.c, r.a, r.s)
	for name, d := range map[string]uint64{
		"id":           resultDigest(r.id+1, r.k, r.v, r.c, r.a, r.s),
		"k":            resultDigest(r.id, r.k+1, r.v, r.c, r.a, r.s),
		"value":        resultDigest(r.id, r.k, r.v+1e-9, r.c, r.a, r.s),
		"contributors": resultDigest(r.id, r.k, r.v, r.c+1, r.a, r.s),
		"areaNodes":    resultDigest(r.id, r.k, r.v, r.c, r.a+1, r.s),
		"staleNodes":   resultDigest(r.id, r.k, r.v, r.c, r.a, r.s+1),
	} {
		if d == d0 {
			t.Errorf("digest ignores %s", name)
		}
	}
}

func TestWorkloadsArePureFunctionsOfSeed(t *testing.T) {
	for _, info := range workloads {
		a, b, other := info.gen(7), info.gen(7), info.gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed generated different inputs", info.Name)
		}
		if reflect.DeepEqual(a.Cohorts, other.Cohorts) {
			t.Errorf("%s: different seeds generated the same plans", info.Name)
		}
		if a.Net.Seed == other.Net.Seed {
			t.Errorf("%s: the field does not follow the seed", info.Name)
		}
		if a.Name != info.Name || a.Warm <= 0 || a.subscribers() == 0 {
			t.Errorf("%s: malformed workload %+v", info.Name, a)
		}
		for s, cohort := range a.Cohorts {
			for i, p := range cohort {
				if err := p.Spec.Validate(); err != nil {
					t.Fatalf("%s: cohort %d plan %d: %v", info.Name, s, i, err)
				}
			}
		}
	}
}

func TestChurnPicksArePureAndDistinct(t *testing.T) {
	wl := genSparseChurn(3)
	pick := func(w *workload, b int) ([]int, []plan) {
		idx, repl := make([]int, w.Churn), make([]plan, w.Churn)
		w.churnPicks(b, 500, idx, repl)
		return idx, repl
	}
	i1, r1 := pick(wl, 1234)
	i2, r2 := pick(genSparseChurn(3), 1234)
	if !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(r1, r2) {
		t.Error("same seed and boundary picked different churn")
	}
	if i3, _ := pick(genSparseChurn(4), 1234); reflect.DeepEqual(i1, i3) {
		t.Error("a different seed picked the same churn")
	}
	if i4, _ := pick(wl, 1235); reflect.DeepEqual(i1, i4) {
		t.Error("a different boundary picked the same churn")
	}
	seen := map[int]bool{}
	for _, i := range i1 {
		if i < 0 || i >= 500 || seen[i] {
			t.Fatalf("picks %v are not distinct members of the cohort", i1)
		}
		seen[i] = true
	}
}

// benchmarkJSON mirrors the BENCHMARK.json schema.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonEndToEnd `json:"end_to_end"`
	PerLayer   []jsonPerLayer `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// registryJSON renders the harness's registry in the BENCHMARK.json schema.
func registryJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonPerLayer{d.Name, d.Unit, d.Better})
	}
	return b
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := registryJSON()
	if *update {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the harness's registry differ; run `go test ./benchmark -run TestRegistryMatchesBenchmarkJSON -update`\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q breaks the name grammar", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || len(w.Why) == 0 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit grammar", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if d.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", d.Name)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

func TestFlushWriterCounts(t *testing.T) {
	w := newFlushWriter()
	var notified int64
	w.onLines = func(n int64) { notified += n }
	rc := http.NewResponseController(w)
	for _, chunk := range []string{"{\"type\":\"ack\"}\n", "{\"type\":", "\"result\"}\n{\"type\":\"result\"}\n", "tail"} {
		if n, err := w.Write([]byte(chunk)); err != nil || n != len(chunk) {
			t.Fatalf("Write(%q) = %d, %v", chunk, n, err)
		}
		if err := rc.Flush(); err != nil {
			t.Fatalf("ResponseController.Flush: %v", err)
		}
	}
	if got := w.bytes.Load(); got != 15+8+28+4 {
		t.Errorf("bytes = %d, want 55", got)
	}
	if got := w.lines.Load(); got != 3 || notified != 3 {
		t.Errorf("lines = %d (notified %d), want 3", got, notified)
	}
	if got := w.flushes.Load(); got != 4 {
		t.Errorf("flushes = %d, want 4", got)
	}
	if got := w.status.Load(); got != http.StatusOK {
		t.Errorf("implicit status = %d, want 200", got)
	}
	early := newFlushWriter()
	early.WriteHeader(http.StatusBadRequest)
	early.Write([]byte("x"))
	if got := early.status.Load(); got != http.StatusBadRequest {
		t.Errorf("explicit status = %d, want 400", got)
	}
}

// shrink cuts a workload down to a size a unit test can afford while
// keeping its shape: every cohort keeps one plan in `keep`.
func shrink(wl *workload, keep, warm int) *workload {
	for s, c := range wl.Cohorts {
		var kept []plan
		for i := 0; i < len(c); i += keep {
			kept = append(kept, c[i])
		}
		wl.Cohorts[s] = kept
	}
	wl.Warm = warm
	if wl.Churn > 0 {
		wl.Churn = 1
	}
	return wl
}

// TestPassesAgreeWithTheirReference drives every workload, shrunk, through
// a measured pass and the digest check: the ledger must balance, nothing
// may fail, and the Shards=1/Workers=1 in-process reference must digest
// the same results — for stream_fanout, across the network tier.
func TestPassesAgreeWithTheirReference(t *testing.T) {
	for _, info := range workloads {
		t.Run(info.Name, func(t *testing.T) {
			wl := shrink(info.gen(5), 50, 8)
			if info.Name == "sparse_churn" {
				wl.Warm = 150 // past the first period, so churned replacements deliver too
			}
			p, err := runPass(wl, passConfig{Budget: time.Hour, MaxBoundaries: digestBoundaries + 5})
			if err != nil {
				t.Fatal(err)
			}
			if p.Failed != 0 || p.Expected == 0 {
				t.Errorf("%d of %d operations failed", p.Failed, p.Expected)
			}
			if p.Boundaries != digestBoundaries+5 || int64(p.Samples) != p.Periods || len(p.Segments) != passSegments {
				t.Errorf("measured %d boundaries, %d periods, %d lateness samples, %d segments", p.Boundaries, p.Periods, p.Samples, len(p.Segments))
			}
			if p.periodsPerS() <= 0 || p.latenessP99MS() < p.latenessP50MS() || p.cpuUSPerPeriod() <= 0 {
				t.Errorf("implausible timing: %v periods/s, p50 %v ms, p99 %v ms, %v CPU µs/period",
					p.periodsPerS(), p.latenessP50MS(), p.latenessP99MS(), p.cpuUSPerPeriod())
			}
			if p.Goroutines > 0 {
				t.Errorf("pass left %d goroutines behind", p.Goroutines)
			}
			ok, note, err := checkDigest(wl, p)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("digest mismatch: %s", note)
			}
		})
	}
}

// TestTracedPassEchoesSpans checks the traced pass: every result carries a
// PeriodSpan, the seven segments come out, and the harness keeps its spans.
func TestTracedPassEchoesSpans(t *testing.T) {
	for _, name := range []string{"dense_eval", "stream_fanout"} {
		wl := shrink(mustGenerate(t, name), 50, 4)
		p, err := runPass(wl, passConfig{Trace: true, MaxBoundaries: digestBoundaries})
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(len(p.Rec.segments[2])); got != p.Periods || p.Rec.segmentP50(2) <= 0 {
			t.Errorf("%s: %d eval segments for %d periods (p50 %v µs)", name, got, p.Periods, p.Rec.segmentP50(2))
		}
		if wire := p.Rec.segmentP50(5); (wire > 0) != wl.Network {
			t.Errorf("%s: wire segment p50 = %v µs", name, wire)
		}
		if len(p.Rec.spans) < 3*digestBoundaries {
			t.Errorf("%s: only %d harness spans", name, len(p.Rec.spans))
		}
		dir := t.TempDir()
		if err := p.Rec.writeSpans(dir, name); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(dir + "/trace_" + name + ".ndjson"); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", name, err)
		}
	}
}

func mustGenerate(t *testing.T, name string) *workload {
	t.Helper()
	wl, err := generate(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestBudgetTermsAddUpPerLayer(t *testing.T) {
	v := metricValues{}
	for _, d := range perLayer {
		v[d.Name] = 1000 // 1 µs for every ns probe
	}
	for _, info := range workloads {
		terms := budgetTerms(info.gen(1), v, 0.5)
		var sum, byLayer float64
		for _, term := range terms {
			sum += term.US
		}
		layers := layerShares(terms)
		wire := 0.0
		for _, l := range layers {
			byLayer += l.US
			if l.Layer == "wire" || l.Layer == "server" {
				wire += l.US
			}
		}
		if math.Abs(sum-byLayer) > 1e-9 {
			t.Errorf("%s: terms sum to %v, layers to %v", info.Name, sum, byLayer)
		}
		if network := info.Name == "stream_fanout"; (wire > 0) != network {
			t.Errorf("%s: wire+server share is %v", info.Name, wire)
		}
	}
	if _, ok := findWorkload("nope"); ok {
		t.Error("found a workload that does not exist")
	}
}
