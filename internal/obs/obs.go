// Package obs is the dependency-free observability core: atomic counters
// and gauges, fixed-boundary log-spaced histograms whose record path is
// 0-alloc and lock-free, and a registry rendering the lot in Prometheus
// text exposition format (version 0.0.4). It also carries the period
// lifecycle tracer (trace.go).
//
// The record path is the design constraint: Counter.Inc, Gauge.Set, and
// Histogram.Observe are a handful of atomic operations with no allocation,
// no lock, and no time lookup, so they are safe to call from Advance's
// 1M-subscriber hot loop. A loop that many goroutines run at once need not
// share even those: each goroutine records into counts and histograms of
// its own and batches its spans, and Counter.Add, Histogram.Fold and
// SpanSink.PublishBatch merge them, so the shared cache lines and the
// firehose's lock are touched once per batch, not once per record. All rendering cost (label formatting, bucket bounds, cumulative
// sums) is paid at registration or scrape time.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is unusable;
// obtain one from Registry.Counter.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n: a batch of events counted elsewhere, merged in one update.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the counter's value. It exists for scrape-time sampling of
// an external monotone ledger (the service's lifetime delivery totals) into
// the exposition; instrumented code paths should use Inc or Add.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. Obtain from Registry.Gauge.
type Gauge struct {
	labels string
	v      atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Histogram bucket geometry: values below histLinear get one bucket each
// (exact small counts — tiny batches); above that, each
// power-of-two octave splits into histSub log-linear sub-buckets, giving a
// worst-case relative bucket width of 1/histSub across the whole range. The
// bucket index is pure arithmetic (bits.Len64 + shift + mask), never a
// search, so Observe stays O(1) whatever the range.
const (
	histLinear  = 16
	histSubBits = 2
	histSub     = 1 << histSubBits
	// histMinOct is the first octave with sub-bucket resolution: values in
	// [16, 31] are octave 4.
	histMinOct = 4
)

// Histogram is a fixed-boundary log-spaced histogram over non-negative
// int64 values (typically nanoseconds or sizes). Observe is lock-free and
// allocation-free. Obtain from Registry.Histogram, or standalone from
// NewHistogram for non-exported uses (the benchmark's probes).
type Histogram struct {
	labels string
	scale  float64 // multiplies bounds and sum at exposition (1e-9: ns → s)
	maxOct int
	bounds []int64 // inclusive upper bound per bucket; last bucket is +Inf
	count  atomic.Uint64
	sum    atomic.Int64
	bkts   []atomic.Uint64
}

// NewHistogram returns a histogram resolving values up to max (larger
// observations land in the +Inf overflow bucket). scale multiplies bucket
// bounds and the sum at exposition time — pass 1e-9 to record nanoseconds
// and expose seconds, 1 for dimensionless sizes.
func NewHistogram(max int64, scale float64) *Histogram {
	if max < histLinear {
		max = histLinear
	}
	maxOct := bits.Len64(uint64(max)) - 1
	n := histLinear + (maxOct-histMinOct+1)*histSub + 1
	h := &Histogram{scale: scale, maxOct: maxOct, bkts: make([]atomic.Uint64, n)}
	h.bounds = make([]int64, 0, n-1)
	for v := int64(0); v < histLinear; v++ {
		h.bounds = append(h.bounds, v)
	}
	for oct := histMinOct; oct <= maxOct; oct++ {
		base := int64(1) << oct
		step := int64(1) << (oct - histSubBits)
		for s := int64(1); s <= histSub; s++ {
			h.bounds = append(h.bounds, base+s*step-1)
		}
	}
	return h
}

// index maps a value to its bucket: O(1) arithmetic, no search.
func (h *Histogram) index(v int64) int {
	if v < histLinear { // covers v < 0 too (clamped into bucket 0 by caller)
		return int(v)
	}
	oct := bits.Len64(uint64(v)) - 1
	if oct > h.maxOct {
		return len(h.bkts) - 1
	}
	sub := int((uint64(v) >> uint(oct-histSubBits)) & (histSub - 1))
	return histLinear + (oct-histMinOct)*histSub + sub
}

// Observe records one value. Negative values clamp to zero. Lock-free and
// allocation-free.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.bkts[h.index(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Fold adds every observation of from into h and leaves from empty, as if
// each value observed into from had been observed into h instead. from
// must have h's geometry (the same max) and no concurrent Observe; h may
// be observed concurrently. Allocation-free.
func (h *Histogram) Fold(from *Histogram) {
	if len(from.bkts) != len(h.bkts) {
		panic("obs: Fold between histograms of different geometry")
	}
	for i := range from.bkts {
		if n := from.bkts[i].Load(); n != 0 {
			from.bkts[i].Store(0)
			h.bkts[i].Add(n)
		}
	}
	h.count.Add(from.count.Swap(0))
	h.sum.Add(from.sum.Swap(0))
}

// Sum returns the sum of observed values in recorded (unscaled) units.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper bound on the q-quantile of the observed values
// in recorded units: the inclusive upper bound of the bucket the quantile
// falls in (the largest finite bound for observations in the overflow
// bucket). q is clamped to [0, 1]; a histogram with no observations
// reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the smallest rank covering fraction q, so p99 over 100
	// observations targets rank 99 (truncation would hand back rank 98).
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i := range h.bkts {
		cum += h.bkts[i].Load()
		if cum >= target {
			if i == len(h.bkts)-1 {
				return h.bounds[len(h.bounds)-1]
			}
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// metric kinds for the registry's families.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: a TYPE, a HELP string, and the label-distinct
// children registered under it, in registration order.
type family struct {
	name string
	help string
	kind metricKind

	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
}

// Registry holds metric families and renders them as Prometheus text. All
// registration methods are get-or-create: asking for the same
// (name, labels) twice returns the original, so independent components can
// share a family without coordination. Registering one name under two kinds
// panics — that is a programming error, not runtime input.
type Registry struct {
	mu       sync.Mutex
	fams     []*family
	byName   map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnScrape registers fn to run (under the registry lock, in registration
// order) at the start of every WritePrometheus call. Use it to sample
// externally-maintained ledgers into gauges and Set counters just in time
// for the exposition.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// familyFor returns the named family, creating it with the given kind and
// help on first use. Caller holds r.mu.
func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	if f := r.byName[name]; f != nil {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter returns the counter for (name, labels), creating it on first use.
// labels is the raw label body rendered inside the braces (e.g.
// `class="cold"`), or empty for an unlabeled metric.
func (r *Registry) Counter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, counterKind)
	for _, c := range f.counters {
		if c.labels == labels {
			return c
		}
	}
	c := &Counter{labels: labels}
	f.counters = append(f.counters, c)
	return c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, gaugeKind)
	for _, g := range f.gauges {
		if g.labels == labels {
			return g
		}
	}
	g := &Gauge{labels: labels}
	f.gauges = append(f.gauges, g)
	return g
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with NewHistogram(max, scale). max and scale are fixed by the first
// registration; later calls with the same (name, labels) return the
// original regardless.
func (r *Registry) Histogram(name, labels, help string, max int64, scale float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, histogramKind)
	for _, h := range f.histograms {
		if h.labels == labels {
			return h
		}
	}
	h := NewHistogram(max, scale)
	h.labels = labels
	f.histograms = append(f.histograms, h)
	return h
}

// WritePrometheus renders every family in registration order as Prometheus
// text exposition format 0.0.4, running the OnScrape hooks first. Histogram
// buckets with no new observations since the previous bound are elided
// (the cumulative series stays monotone and the +Inf bucket is always
// present, which the format permits); _count is computed from the bucket
// reads so count and +Inf always agree within one exposition.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.onScrape {
		fn()
	}
	var b strings.Builder
	for _, f := range r.fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		switch f.kind {
		case counterKind:
			for _, c := range f.counters {
				writeSample(&b, f.name, "", c.labels, strconv.FormatUint(c.v.Load(), 10))
			}
		case gaugeKind:
			for _, g := range f.gauges {
				writeSample(&b, f.name, "", g.labels, strconv.FormatInt(g.v.Load(), 10))
			}
		case histogramKind:
			for _, h := range f.histograms {
				writeHistogram(&b, f.name, h)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram child: cumulative _bucket series
// (zero-delta buckets elided, +Inf always present), then _sum and _count.
func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	var cum uint64
	for i := range h.bkts {
		n := h.bkts[i].Load()
		cum += n
		last := i == len(h.bkts)-1
		if n == 0 && !last {
			continue
		}
		le := "+Inf"
		if !last {
			// 9 significant digits: enough to keep adjacent bounds (≥ ~3%
			// apart) distinct while avoiding float artifacts like
			// 7.000000000000001e-09 from the ns→s scale multiply.
			le = strconv.FormatFloat(float64(h.bounds[i])*h.scale, 'g', 9, 64)
		}
		lbl := h.labels
		if lbl != "" {
			lbl += ","
		}
		lbl += `le="` + le + `"`
		writeSample(b, name, "_bucket", lbl, strconv.FormatUint(cum, 10))
	}
	writeSample(b, name, "_sum", h.labels,
		strconv.FormatFloat(float64(h.sum.Load())*h.scale, 'g', -1, 64))
	writeSample(b, name, "_count", h.labels, strconv.FormatUint(cum, 10))
}

// writeSample renders one `name suffix{labels} value` line.
func writeSample(b *strings.Builder, name, suffix, labels, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
