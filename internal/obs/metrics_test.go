package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pop_test_total", "test counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("pop_test_total", ""); again != c {
		t.Fatalf("second lookup returned a different counter")
	}

	g := r.Gauge("pop_depth", "queue depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil handles must read zero")
	}
	r.WritePrometheus(&strings.Builder{})

	var o *Observer
	o.Span("s").Arg("k", 1).End()
	o.Instant("i", nil)
	o.Counter("c", "").Inc()
	o.Gauge("g", "").Set(1)
	o.Histogram("h", "").Observe(1)
	if o.WithTID(3) != nil {
		t.Fatalf("nil Observer.WithTID must stay nil")
	}

	var tr *Trace
	tr.Begin(0, "s").End()
	tr.Instant(0, "i", nil)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatalf("nil Trace must record nothing")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pop_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-102.65) > 1e-9 {
		t.Fatalf("sum = %g, want 102.65", got)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP pop_lat_seconds latency",
		"# TYPE pop_lat_seconds histogram",
		`pop_lat_seconds_bucket{le="0.1"} 2`, // 0.05 and 0.1 (le is inclusive)
		`pop_lat_seconds_bucket{le="1"} 3`,
		`pop_lat_seconds_bucket{le="10"} 4`,
		`pop_lat_seconds_bucket{le="+Inf"} 5`,
		"pop_lat_seconds_sum 102.65",
		"pop_lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSeriesShareHeader(t *testing.T) {
	r := NewRegistry()
	r.Counter(`pop_http_requests_total{path="/b"}`, "requests").Add(2)
	r.Counter(`pop_http_requests_total{path="/a"}`, "").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if strings.Count(out, "# TYPE pop_http_requests_total counter") != 1 {
		t.Fatalf("want exactly one TYPE header:\n%s", out)
	}
	ai := strings.Index(out, `pop_http_requests_total{path="/a"} 1`)
	bi := strings.Index(out, `pop_http_requests_total{path="/b"} 2`)
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("labelled series missing or unsorted:\n%s", out)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("pop_mixed", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic on kind clash")
		}
	}()
	r.Gauge("pop_mixed", "")
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("pop_total", "")
			h := r.Histogram("pop_h_seconds", "", nil)
			g := r.Gauge("pop_g", "")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("pop_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("pop_h_seconds", "", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("pop_g", "").Value(); got != 8000 {
		t.Fatalf("gauge = %g, want 8000", got)
	}
}
