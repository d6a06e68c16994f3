package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshot is the structured metrics state of a registry: every counter,
// gauge and histogram value plus the full span tree. It is the JSON summary
// format (-metrics), the payload embedded in core.Report.Metrics, and the
// record cmd/report merges into the benchmark trajectory JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot               `json:"spans"`
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	// Buckets are the ascending upper bounds; Counts has one extra final
	// entry for overflow samples.
	Buckets []int64 `json:"buckets"`
	Counts  []int64 `json:"counts"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

// SpanSnapshot is one span of the exported tree.
type SpanSnapshot struct {
	ID      int             `json:"id"`
	Parent  int             `json:"parent"` // -1 for roots
	Name    string          `json:"name"`
	Cat     string          `json:"cat"`
	Lane    int             `json:"lane"`
	StartUS float64         `json:"start_us"`
	DurUS   float64         `json:"dur_us"`
	Attrs   []KV            `json:"attrs,omitempty"`
	Events  []EventSnapshot `json:"events,omitempty"`
}

// EventSnapshot is one span event.
type EventSnapshot struct {
	Name string  `json:"name"`
	TSUS float64 `json:"ts_us"`
	KV   []KV    `json:"kv,omitempty"`
}

// Snapshot captures the registry's current state. Open spans are exported
// with the capture time as their end. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	now := r.since()
	snap := &Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
	}
	r.mu.Lock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	if len(r.histograms) > 0 {
		snap.Histograms = map[string]HistogramSnapshot{}
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Buckets: append([]int64(nil), h.bounds...),
				Counts:  make([]int64, len(h.counts)),
				Sum:     h.sum.Load(),
			}
			// Observe bumps each bucket and the total as independent atomics,
			// so a snapshot racing with writers could load a total that
			// disagrees with the buckets. Deriving Count from the loaded
			// buckets keeps every snapshot internally consistent
			// (count == sum of bucket counts) by construction.
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
				hs.Count += hs.Counts[i]
			}
			snap.Histograms[name] = hs
		}
	}
	spans := append([]*Span(nil), r.spans...)
	r.mu.Unlock()

	snap.Spans = make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		s.mu.Lock()
		end := s.end
		if end == 0 {
			end = now
		}
		ss := SpanSnapshot{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			Cat:     Category(s.name),
			Lane:    s.lane,
			StartUS: float64(s.start) / 1e3,
			DurUS:   float64(end-s.start) / 1e3,
			Attrs:   append([]KV(nil), s.attrs...),
		}
		for _, ev := range s.events {
			ss.Events = append(ss.Events, EventSnapshot{
				Name: ev.name, TSUS: float64(ev.ts) / 1e3, KV: append([]KV(nil), ev.kv...),
			})
		}
		s.mu.Unlock()
		snap.Spans[i] = ss
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and writes the JSON summary. A nil
// registry writes nothing and returns nil.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.Snapshot().WriteJSON(w)
}

// MergeRetain folds a snapshot's scalar instruments into the registry:
// counters are added, gauges raised to the snapshot value when larger, and
// histograms merged bucket-for-bucket when the bounds agree (shape
// mismatches skip that histogram rather than corrupt the aggregate). Spans
// are not merged, so short-lived per-request registries can fold into a
// long-running aggregate registry without unbounded span growth — see the
// package-doc aggregation contract. Instead of silently discarding the span
// tree, MergeRetain hands the snapshot to retain when it carries spans: a
// server folds every per-request registry into its aggregate while keeping
// the request's trace in a bounded store (TraceRing.Put is the canonical
// retain callback). A nil retain drops the spans. Nil receiver or snapshot
// is a no-op.
func (r *Registry) MergeRetain(s *Snapshot, retain func(*Snapshot)) {
	if r == nil || s == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Max(v)
	}
	for name, hs := range s.Histograms {
		if len(hs.Counts) != len(hs.Buckets)+1 {
			continue
		}
		h := r.Histogram(name, hs.Buckets...)
		if !sameBounds(h.bounds, hs.Buckets) {
			continue
		}
		for i, c := range hs.Counts {
			h.counts[i].Add(c)
		}
		h.sum.Add(hs.Sum)
		h.n.Add(hs.Count)
	}
	if retain != nil && len(s.Spans) > 0 {
		retain(s)
	}
}

func sameBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// traceEvent is one Chrome trace_event entry.
type traceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds
	Dur   float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace writes the span tree in Chrome trace_event format (the
// about://tracing / Perfetto JSON object form): one complete "X" event per
// span on tid = lane+1, one instant "i" event per span event.
func (s *Snapshot) WriteTrace(w io.Writer) error {
	tf := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for _, sp := range s.Spans {
		ev := traceEvent{
			Name: sp.Name, Cat: sp.Cat, Phase: "X",
			TS: sp.StartUS, Dur: sp.DurUS, PID: 1, TID: sp.Lane + 1,
		}
		if len(sp.Attrs) > 0 {
			ev.Args = map[string]string{}
			for _, kv := range sp.Attrs {
				ev.Args[kv.Key] = kv.Value
			}
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
		for _, e := range sp.Events {
			ie := traceEvent{
				Name: e.Name, Cat: sp.Cat, Phase: "i",
				TS: e.TSUS, PID: 1, TID: sp.Lane + 1, Scope: "t",
			}
			if len(e.KV) > 0 {
				ie.Args = map[string]string{}
				for _, kv := range e.KV {
					ie.Args[kv.Key] = kv.Value
				}
			}
			tf.TraceEvents = append(tf.TraceEvents, ie)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// WriteTrace snapshots the registry and writes the trace_event file. A nil
// registry writes nothing and returns nil.
func (r *Registry) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.Snapshot().WriteTrace(w)
}

// Validate checks the snapshot's structural invariants: every span's parent
// exists and opened no later than the child, span ids are unique, categories
// match the name prefixes, and histograms have consistent bucket/count
// shapes. It is the schema check behind the verify.sh observability gate.
func (s *Snapshot) Validate() error {
	if s.Counters == nil || s.Gauges == nil {
		return fmt.Errorf("obs: snapshot missing counters/gauges maps")
	}
	byID := map[int]*SpanSnapshot{}
	for i := range s.Spans {
		sp := &s.Spans[i]
		if _, dup := byID[sp.ID]; dup {
			return fmt.Errorf("obs: duplicate span id %d", sp.ID)
		}
		byID[sp.ID] = sp
		if sp.Cat != Category(sp.Name) {
			return fmt.Errorf("obs: span %q category %q does not match name", sp.Name, sp.Cat)
		}
		if sp.DurUS < 0 {
			return fmt.Errorf("obs: span %q has negative duration", sp.Name)
		}
	}
	for i := range s.Spans {
		sp := &s.Spans[i]
		if sp.Parent < 0 {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			return fmt.Errorf("obs: span %q references missing parent %d", sp.Name, sp.Parent)
		}
		// A microsecond of slack absorbs float rounding in the export.
		if parent.StartUS > sp.StartUS+1 {
			return fmt.Errorf("obs: span %q starts before its parent %q", sp.Name, parent.Name)
		}
	}
	for name, h := range s.Histograms {
		if len(h.Counts) != len(h.Buckets)+1 {
			return fmt.Errorf("obs: histogram %q has %d counts for %d buckets",
				name, len(h.Counts), len(h.Buckets))
		}
		if !sort.SliceIsSorted(h.Buckets, func(i, j int) bool { return h.Buckets[i] < h.Buckets[j] }) {
			return fmt.Errorf("obs: histogram %q buckets not ascending", name)
		}
		var total int64
		for _, c := range h.Counts {
			if c < 0 {
				return fmt.Errorf("obs: histogram %q has a negative bucket count", name)
			}
			total += c
		}
		// Registry.Snapshot derives Count from the bucket counts it loaded,
		// so a healthy export satisfies this exactly, even when the snapshot
		// raced with concurrent Observe calls.
		if h.Count != total {
			return fmt.Errorf("obs: histogram %q count %d != bucket sum %d", name, h.Count, total)
		}
	}
	return nil
}

// ValidateHierarchy additionally enforces the flow → phase → engine span
// discipline on a full synthesis snapshot: at least one "flow" root exists,
// every "phase" span hangs off a flow, and every "engine" span has a phase
// or flow ancestor. Worker spans must hang off an engine span.
func (s *Snapshot) ValidateHierarchy() error {
	if err := s.Validate(); err != nil {
		return err
	}
	byID := map[int]*SpanSnapshot{}
	for i := range s.Spans {
		byID[s.Spans[i].ID] = &s.Spans[i]
	}
	ancestorCat := func(sp *SpanSnapshot, cats ...string) bool {
		for p := sp.Parent; p >= 0; {
			a, ok := byID[p]
			if !ok {
				return false
			}
			for _, c := range cats {
				if a.Cat == c {
					return true
				}
			}
			p = a.Parent
		}
		return false
	}
	flows := 0
	for i := range s.Spans {
		sp := &s.Spans[i]
		switch sp.Cat {
		case "flow":
			if sp.Parent != -1 {
				return fmt.Errorf("obs: flow span %q is not a root", sp.Name)
			}
			flows++
		case "phase":
			if !ancestorCat(sp, "flow") {
				return fmt.Errorf("obs: phase span %q has no flow ancestor", sp.Name)
			}
		case "engine":
			if !ancestorCat(sp, "phase", "flow") {
				return fmt.Errorf("obs: engine span %q has no phase/flow ancestor", sp.Name)
			}
		case "worker":
			if !ancestorCat(sp, "engine") {
				return fmt.Errorf("obs: worker span %q has no engine ancestor", sp.Name)
			}
		}
	}
	if flows == 0 {
		return fmt.Errorf("obs: no flow root span")
	}
	return nil
}

// ParseSnapshot decodes and validates a JSON summary produced by WriteJSON.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("obs: snapshot JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ValidateTraceJSON checks that data is a well-formed trace_event file: a
// JSON object with a traceEvents array whose entries all carry name/ph/pid/
// tid, with non-negative timestamps and durations.
func ValidateTraceJSON(data []byte) error {
	var tf struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("obs: trace JSON: %w", err)
	}
	if tf.TraceEvents == nil {
		return fmt.Errorf("obs: trace JSON has no traceEvents array")
	}
	for i, ev := range tf.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				return fmt.Errorf("obs: traceEvents[%d] missing %q", i, key)
			}
		}
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil || (ph != "X" && ph != "i") {
			return fmt.Errorf("obs: traceEvents[%d] has unsupported phase %s", i, ev["ph"])
		}
		var ts float64
		if err := json.Unmarshal(ev["ts"], &ts); err != nil || ts < 0 {
			return fmt.Errorf("obs: traceEvents[%d] has bad ts %s", i, ev["ts"])
		}
		if ph == "X" {
			var dur float64
			if raw, ok := ev["dur"]; ok {
				if err := json.Unmarshal(raw, &dur); err != nil || dur < 0 {
					return fmt.Errorf("obs: traceEvents[%d] has bad dur %s", i, raw)
				}
			}
		}
	}
	return nil
}
