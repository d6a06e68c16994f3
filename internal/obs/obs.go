// Package obs is the unified observability layer of the synthesis flow:
// a zero-dependency metrics registry (atomic counters, gauges, fixed-bucket
// histograms) plus hierarchical spans (flow → phase → engine → worker) with
// key/value events, exported as a JSON summary and as Chrome trace_event
// JSON for about://tracing.
//
// Disabled observability is free: a nil *Registry, and every instrument or
// span derived from one, is a valid no-op sink — every method nil-checks its
// receiver and returns immediately, with zero allocations. Engines therefore
// thread *obs.Span / *obs.Registry through their Options unconditionally and
// instrument hot loops without guarding call sites.
//
// Instruments are looked up by name once per engine invocation (a mutex-map
// lookup) and then updated lock-free with atomics, so worker pools may hammer
// the same counter concurrently. Span event/attribute recording takes a
// per-span mutex; spans themselves are cheap but not meant for per-state
// granularity — counters are.
//
// # Aggregation contract
//
// Long-running processes fold many short-lived per-request registries into
// one aggregate via MergeRetain, which combines scalar instruments only:
// counters add, gauges raise to the larger value, histograms merge
// bucket-for-bucket. Span trees are deliberately NOT merged — spans are
// per-request data, and an aggregate registry that accumulated every
// request's tree would grow without bound. A caller that wants to keep them
// passes a retention callback, which receives the snapshot (spans intact) in
// the same call that folds the scalars; TraceRing is the bounded newest-N
// store built for exactly that callback. Live consumers subscribe with SetStream instead
// and receive span open/close/event records as they happen.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns the instruments and the span tree of one run. The zero value
// is not usable; construct with NewRegistry. A nil *Registry is the disabled
// sink: every derived instrument and span is nil and every operation on them
// is a no-op.
type Registry struct {
	epoch time.Time

	// stream, when set (SetStream, before the first span), receives live
	// span open/close/event records. Read without synchronization on the
	// span paths: the install must happen-before the instrumented run.
	stream StreamFunc

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	spans      []*Span
}

// NewRegistry returns an enabled registry; its epoch (span timestamp zero) is
// the call time.
func NewRegistry() *Registry {
	return &Registry{
		epoch:      time.Now(),
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil —
// the no-op counter — on a nil registry.
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

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
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

// Histogram returns the named histogram, creating it with the given ascending
// bucket upper bounds on first use (later calls reuse the existing buckets).
// With no buckets given, Pow2Buckets(20) is used. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, buckets ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if len(buckets) == 0 {
			buckets = Pow2Buckets(20)
		}
		h = &Histogram{bounds: append([]int64(nil), buckets...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		r.histograms[name] = h
	}
	return h
}

// Pow2Buckets returns the power-of-two bucket bounds 1, 2, 4, ..., 2^maxExp.
func Pow2Buckets(maxExp int) []int64 {
	out := make([]int64, maxExp+1)
	for i := range out {
		out[i] = int64(1) << uint(i)
	}
	return out
}

// Counter is a monotonically increasing atomic counter. The nil *Counter is
// the no-op sink.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value/max instrument. The nil *Gauge is the no-op
// sink.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Max raises the gauge to v if v is larger (CAS loop, safe under
// concurrency).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: Observe(v) increments the count of
// the first bucket whose upper bound is ≥ v, or the overflow bucket. The nil
// *Histogram is the no-op sink.
type Histogram struct {
	bounds []int64        // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of samples (0 on the nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// since returns the registry-relative timestamp in nanoseconds.
func (r *Registry) since() int64 { return int64(time.Since(r.epoch)) }
