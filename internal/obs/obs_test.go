package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("counter lookup is not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Max(3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after Max(3) = %d, want 7", got)
	}
	g.Max(10)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after Max(10) = %d, want 10", got)
	}
	h := r.Histogram("h", 1, 2, 4, 8)
	for _, v := range []int64{1, 2, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("histogram count = %d, want 4", got)
	}
	hs := r.Snapshot().Histograms["h"]
	want := []int64{1, 1, 1, 0, 1} // bucket ≤1, ≤2, ≤4, ≤8, overflow
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("histogram counts = %v, want %v", hs.Counts, want)
		}
	}
	if hs.Sum != 106 {
		t.Fatalf("histogram sum = %d, want 106", hs.Sum)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("g")
	g.Set(1)
	g.Max(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("h", 1, 2)
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("nil histogram has samples")
	}
	sp := r.Root("flow:x")
	if sp != nil {
		t.Fatal("nil registry produced a span")
	}
	child := sp.Child("engine:y")
	child.Attr("k", "v")
	child.Event("e", "k", "v")
	child.End()
	if child.Registry() != nil {
		t.Fatal("nil span has a registry")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
	if err := r.WriteJSON(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTrace(nil); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledPathAllocs is the zero-alloc guarantee of the nil sink: the
// exact calls engines make on hot paths — counter updates, span creation and
// events, registry lookups — must not allocate when observability is off.
func TestDisabledPathAllocs(t *testing.T) {
	var r *Registry
	var sp *Span
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		g.Set(3)
		g.Max(9)
		h.Observe(5)
	}); n != 0 {
		t.Fatalf("disabled instrument calls allocate %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		child := sp.Child("engine:x")
		child.Attr("k", "v")
		child.Event("step")
		child.End()
		_ = child.Registry()
	}); n != 0 {
		t.Fatalf("disabled span calls allocate %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_ = r.Counter("reach.states")
		_ = r.Gauge("symbolic.peak_nodes")
		_ = r.Root("flow:x")
	}); n != 0 {
		t.Fatalf("disabled registry lookups allocate %.1f/op, want 0", n)
	}
}

// TestConcurrentRegistry exercises concurrent instrument and span writes from
// a worker pool; run under -race by the verification gate.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	root := r.Root("flow:test")
	eng := root.Child("engine:pool")
	const workers, n = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("work.items")
			g := r.Gauge("work.depth")
			h := r.Histogram("work.sizes", 1, 10, 100)
			sp := eng.ChildLane(fmt.Sprintf("worker:%d", w), w+1)
			for i := 0; i < n; i++ {
				c.Inc()
				g.Max(int64(i))
				h.Observe(int64(i % 200))
				if i%100 == 0 {
					sp.Event("checkpoint", "i", fmt.Sprint(i))
				}
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	eng.End()
	root.End()
	snap := r.Snapshot()
	if got := snap.Counters["work.items"]; got != workers*n {
		t.Fatalf("work.items = %d, want %d", got, workers*n)
	}
	if got := snap.Gauges["work.depth"]; got != n-1 {
		t.Fatalf("work.depth = %d, want %d", got, n-1)
	}
	if len(snap.Spans) != 2+workers {
		t.Fatalf("span count = %d, want %d", len(snap.Spans), 2+workers)
	}
	if err := snap.ValidateHierarchy(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	r := NewRegistry()
	sp := r.Root("flow:x")
	sp.End()
	first := r.Snapshot().Spans[0].DurUS
	sp.End()
	if again := r.Snapshot().Spans[0].DurUS; again != first {
		t.Fatalf("second End changed the duration: %v != %v", again, first)
	}
}
