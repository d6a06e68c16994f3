package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one operation share a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes share the code of traced ones.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartUS: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].DurUS = now - t.spans[id].StartUS
}

// group is the self-time account of the spans under one kind of root span
// ("flow", "request", ...).
type group struct {
	total time.Duration            // summed duration of the root spans
	self  map[string]time.Duration // self time per span name
}

// groups accounts the spans with ids in [from, len) by root name. A span's
// self time is its duration minus its children's; children of one span run
// one after another, so their durations do not overlap. A root's own self
// time is the part of an operation no layer call covers, kept as
// "unattributed".
func (t *tracer) groups(from int) map[string]*group {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int]float64{}
	for _, s := range t.spans[from:] {
		if s.Parent >= 0 {
			child[s.Parent] += s.DurUS
		}
	}
	root := map[int]string{}
	out := map[string]*group{}
	for _, s := range t.spans[from:] {
		name := s.Name
		if s.Parent < 0 {
			root[s.ID] = s.Name
			if out[s.Name] == nil {
				out[s.Name] = &group{self: map[string]time.Duration{}}
			}
			out[s.Name].total += usDur(s.DurUS)
			name = "unattributed"
		} else {
			root[s.ID] = root[s.Parent] // parents open before their children
		}
		out[root[s.ID]].self[name] += usDur(s.DurUS - child[s.ID])
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func usDur(us float64) time.Duration { return time.Duration(us * 1e3) }

// write stores the spans and the per-layer self-time table of each root
// kind under .bench_build/trace/ and prints the tables to standard error.
func (t *tracer) write(workload string, seed int64, overhead float64) error {
	type row struct {
		Layer  string  `json:"layer"`
		SelfMS float64 `json:"self_ms"`
		Share  float64 `json:"share"`
	}
	type table struct {
		TotalMS float64 `json:"total_ms"`
		Rows    []row   `json:"self_time"`
	}
	tables := map[string]table{}
	fmt.Fprintf(os.Stderr, "trace overhead ratio %.3f\n", overhead)
	for rootName, g := range t.groups(0) {
		names := make([]string, 0, len(g.self))
		for n := range g.self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return g.self[names[i]] > g.self[names[j]] })
		tb := table{TotalMS: ms(g.total)}
		fmt.Fprintf(os.Stderr, "%s spans: %.1f ms\n", rootName, tb.TotalMS)
		for _, n := range names {
			r := row{Layer: n, SelfMS: ms(g.self[n]), Share: ratio(float64(g.self[n]), float64(g.total))}
			tb.Rows = append(tb.Rows, r)
			fmt.Fprintf(os.Stderr, "  %-28s %12.2f ms %6.1f%%\n", n, r.SelfMS, 100*r.Share)
		}
		tables[rootName] = tb
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "trace_overhead_ratio": overhead,
		"self_time": tables, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
