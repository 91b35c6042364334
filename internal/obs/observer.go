package obs

import "time"

// Observer bundles the metrics registry and the tracer a component should
// report into, plus the trace lane (TID) it owns. Solver options embed a
// *Observer; a nil observer — the default — makes every hook a no-op at
// the cost of one pointer check, so production solves without telemetry
// pay nothing. Either half may be nil independently: popserver runs
// metrics without tracing, the benches' -trace flag runs tracing without
// a registry.
type Observer struct {
	Metrics *Registry
	Trace   *Trace
	// TID is the Chrome-trace thread lane events are emitted on. Fan-out
	// layers (online partitions, milp workers) derive disjoint lanes with
	// WithTID so parallel work renders side by side.
	TID int
}

// WithTID returns a copy of the observer emitting on lane tid (nil in,
// nil out).
func (o *Observer) WithTID(tid int) *Observer {
	if o == nil {
		return nil
	}
	c := *o
	c.TID = tid
	return &c
}

// Span opens a trace span on the observer's lane; nil-safe.
func (o *Observer) Span(name string) *Span {
	if o == nil {
		return nil
	}
	return o.Trace.Begin(o.TID, name)
}

// Instant records a marker event on the observer's lane; nil-safe.
func (o *Observer) Instant(name string, args map[string]any) {
	if o == nil {
		return
	}
	o.Trace.Instant(o.TID, name, args)
}

// Counter resolves a counter handle from the observer's registry; nil-safe
// (returns a nil handle whose methods no-op).
func (o *Observer) Counter(name, help string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name, help)
}

// Gauge resolves a gauge handle from the observer's registry; nil-safe.
func (o *Observer) Gauge(name, help string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name, help)
}

// Histogram resolves a latency histogram (DefTimeBuckets) from the
// observer's registry; nil-safe.
func (o *Observer) Histogram(name, help string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, help, nil)
}

// Timed is one phase of a round reported both ways at once: a trace span
// and an observation in a latency histogram, so the timeline that explains
// one slow round and the /metrics series that show the trend come from the
// same call site and cannot drift apart.
type Timed struct {
	span  *Span
	hist  *Histogram
	start time.Time
}

// Timed opens the span and resolves the histogram; nil-safe (the zero Timed
// ends as a no-op without reading the clock).
func (o *Observer) Timed(span, hist, help string) Timed {
	if o == nil {
		return Timed{}
	}
	return Timed{span: o.Span(span), hist: o.Histogram(hist, help), start: time.Now()}
}

// End closes the span and records the elapsed time.
func (t Timed) End() {
	if t.start.IsZero() {
		return
	}
	t.span.End()
	t.hist.Observe(time.Since(t.start).Seconds())
}
