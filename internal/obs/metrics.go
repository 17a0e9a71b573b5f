// Package obs is the system's zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, log-bucketed
// histograms) and a lightweight span tracer with Chrome/Perfetto
// trace_event export.
//
// Everything is built for hot-path use.  Metric handles are resolved once at
// setup time and then updated with single atomic operations; a nil *Registry
// (and hence nil metric handles and a nil *Tracer) disables instrumentation
// entirely — every method is nil-safe and compiles down to a pointer test,
// so the disabled cost is ~0 and there is no build-tag or global flag to
// thread through the system.
//
// The registry is the system's only counter store.  The packages beneath
// the engine (wal, stable, cache, recovery, ship) resolve their handles from
// the registry they are given and count nowhere else; internal/core always
// hands them one (Options.Obs, or an engine-private registry), so
// Engine.Metrics() is the registry's snapshot.  A layer used on its own
// without a registry counts nothing.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.  Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
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

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a last-value-wins int64 metric.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.  Safe on a nil receiver (no-op).
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) reset() { g.v.Store(0) }

// Registry is a named collection of metrics.  Lookup (Counter, Gauge,
// Histogram) is get-or-create and intended for setup paths; the returned
// handles are then updated lock-free.  A nil *Registry returns nil handles,
// whose methods are all no-ops — instrumentation disabled.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metrics, suitable for
// JSON encoding.  Maps are keyed by metric name.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value.  Each individual metric is
// read atomically; the snapshot as a whole is not a cross-metric atomic cut
// (callers needing one, like Engine.Metrics, serialize mutators externally).
// A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Sum totals the counters whose names start with prefix (a counter family
// such as "wal.op_payload_bytes.").
func (s Snapshot) Sum(prefix string) int64 {
	var t int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			t += v
		}
	}
	return t
}

// Reset zeroes every registered metric (the handles stay valid).  Safe on a
// nil receiver.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.histograms {
		h.reset()
	}
}

// Names returns the sorted names of all registered metrics, prefixed by
// their kind — handy for debugging and tests.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counters {
		names = append(names, "counter:"+n)
	}
	for n := range r.gauges {
		names = append(names, "gauge:"+n)
	}
	for n := range r.histograms {
		names = append(names, "histogram:"+n)
	}
	sort.Strings(names)
	return names
}
