package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter accepts every method as a no-op, so handles
// from a nil Registry can be used unconditionally.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can move both ways (queue depths, live
// client counts). The zero value reads 0; nil receivers no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge reading (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram: one atomic count per
// bucket plus an atomic sum, so Observe takes no locks. Bucket upper
// bounds are set at creation and never change; the implicit last bucket
// is +Inf, matching Prometheus histogram semantics (bucket{le="x"} counts
// observations ≤ x, cumulatively at export).
type Histogram struct {
	upper  []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Int64
}

// Observe records one value (typically seconds). Nil receivers no-op; NaN
// is dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bound ≥ v, or len → +Inf bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns count exponentially spaced upper bounds starting at
// start and growing by factor. start must be > 0 and factor > 1.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("obs: bad ExpBuckets(%g, %g, %d)", start, factor, count))
	}
	b := make([]float64, count)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefTimeBuckets is the default latency bucket layout: 1µs to ~15min,
// ×2.5 per bucket — wide enough for a microsecond sub-solve and a
// minutes-long MILP search in the same histogram.
var DefTimeBuckets = ExpBuckets(1e-6, 2.5, 16)

// Registry is a named collection of metrics with get-or-create semantics.
// Handle lookup takes a read lock; the metrics themselves are lock-free.
// A metric name may carry a constant Prometheus label block
// (`name{key="value",...}`); series sharing a base name share one
// HELP/TYPE header at export. All methods are nil-receiver-safe and return
// nil handles, whose operations are no-ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // by base name
	kinds    map[string]string // base name -> "counter" | "gauge" | "histogram"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
		kinds:    map[string]string{},
	}
}

// baseName strips the optional {label} block.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labels returns the inner label block of name ("" when unlabelled).
func labels(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// register books HELP/TYPE metadata, panicking on a kind clash — mixing
// metric kinds under one base name is a programming error that would emit
// an unparsable exposition.
func (r *Registry) register(name, kind, help string) {
	base := baseName(name)
	if k, ok := r.kinds[base]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, not %s", base, k, kind))
	}
	r.kinds[base] = kind
	if help != "" {
		r.help[base] = help
	}
}

// Counter returns the counter registered under name, creating it on first
// use. help may be empty on repeat lookups.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	r.register(name, "counter", help)
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	r.register(name, "gauge", help)
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (nil means DefTimeBuckets) on first use.
// Later lookups reuse the original buckets; the buckets argument is then
// ignored.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	if buckets == nil {
		buckets = DefTimeBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
	}
	r.register(name, "histogram", help)
	h = &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
	}
	r.hists[name] = h
	return h
}

// sample is one export line group, sorted by (base, labels) so all series
// of one metric stay contiguous regardless of label interleaving.
type sample struct {
	base, labels string
	write        func(w io.Writer, base, labels string)
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by name for deterministic
// output. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()

	var samples []sample
	for name, c := range r.counters {
		samples = append(samples, sample{baseName(name), labels(name), func(w io.Writer, base, lbl string) {
			fmt.Fprintf(w, "%s %d\n", seriesName(base, lbl), c.Value())
		}})
	}
	for name, g := range r.gauges {
		samples = append(samples, sample{baseName(name), labels(name), func(w io.Writer, base, lbl string) {
			fmt.Fprintf(w, "%s %s\n", seriesName(base, lbl), formatFloat(g.Value()))
		}})
	}
	for name, h := range r.hists {
		samples = append(samples, sample{baseName(name), labels(name), func(w io.Writer, base, lbl string) {
			cum := int64(0)
			for i, ub := range h.upper {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s %d\n", seriesName(base+"_bucket", mergeLabels(lbl, `le="`+formatFloat(ub)+`"`)), cum)
			}
			fmt.Fprintf(w, "%s %d\n", seriesName(base+"_bucket", mergeLabels(lbl, `le="+Inf"`)), h.Count())
			fmt.Fprintf(w, "%s %s\n", seriesName(base+"_sum", lbl), formatFloat(h.Sum()))
			fmt.Fprintf(w, "%s %d\n", seriesName(base+"_count", lbl), h.Count())
		}})
	}
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].base != samples[j].base {
			return samples[i].base < samples[j].base
		}
		return samples[i].labels < samples[j].labels
	})
	lastBase := ""
	for _, s := range samples {
		if s.base != lastBase {
			if help := r.help[s.base]; help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", s.base, help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", s.base, r.kinds[s.base])
			lastBase = s.base
		}
		s.write(w, s.base, s.labels)
	}
}

func seriesName(base, lbl string) string {
	if lbl == "" {
		return base
	}
	return base + "{" + lbl + "}"
}

func mergeLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
