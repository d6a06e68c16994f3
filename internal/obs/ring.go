package obs

import (
	"encoding/json"
	"sync"
)

// TraceRing is a bounded newest-N store of per-request span-tree snapshots,
// keyed by an opaque id (the service layer uses job ids). It is the sink
// side of the aggregation contract: Registry.MergeRetain folds scalars into
// a long-running aggregate and hands the span tree to a TraceRing, which
// keeps the most recent span trees so "what did job X do" stays answerable
// after the request finished, without unbounded growth.
//
// Both bounds are enforced on Put: the entry count and the total byte size
// (measured as the JSON encoding of each snapshot, the same bytes the trace
// endpoint serves). Eviction is strictly oldest-first. A single snapshot
// larger than the byte bound is still retained while it is the newest entry
// — the ring always answers for the most recent request — and is evicted as
// soon as anything newer lands. Re-putting an existing id replaces the
// snapshot and refreshes its position (a retried job keeps one entry, the
// last attempt's tree).
//
// The nil *TraceRing is a valid disabled sink: Put and Get are no-ops.
type TraceRing struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	entries    map[string]*ringEntry
	order      []string // insertion order, oldest first
	bytes      int64
	evictions  int64
}

type ringEntry struct {
	trace string
	snap  *Snapshot
	size  int64
}

// NewTraceRing builds a ring bounded to maxEntries snapshots and maxBytes of
// encoded snapshot data. Non-positive bounds select 64 entries / 16 MiB.
func NewTraceRing(maxEntries int, maxBytes int64) *TraceRing {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	if maxBytes <= 0 {
		maxBytes = 16 << 20
	}
	return &TraceRing{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    map[string]*ringEntry{},
	}
}

// Put stores (or replaces) the snapshot under id, tagged with its trace id,
// and evicts oldest entries until the bounds hold again.
func (tr *TraceRing) Put(id, traceID string, snap *Snapshot) {
	if tr == nil || snap == nil {
		return
	}
	size := int64(len(snap.Spans)+1) * 64 // floor if the encode ever fails
	if data, err := json.Marshal(snap); err == nil {
		size = int64(len(data))
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if old, ok := tr.entries[id]; ok {
		tr.bytes -= old.size
		for i, oid := range tr.order {
			if oid == id {
				tr.order = append(tr.order[:i], tr.order[i+1:]...)
				break
			}
		}
	}
	tr.entries[id] = &ringEntry{trace: traceID, snap: snap, size: size}
	tr.order = append(tr.order, id)
	tr.bytes += size
	for len(tr.order) > 1 && (len(tr.order) > tr.maxEntries || tr.bytes > tr.maxBytes) {
		oldest := tr.order[0]
		tr.order = tr.order[1:]
		tr.bytes -= tr.entries[oldest].size
		delete(tr.entries, oldest)
		tr.evictions++
	}
}

// Get returns the stored snapshot and its trace id, or ok=false when the id
// was never stored or has been evicted.
func (tr *TraceRing) Get(id string) (traceID string, snap *Snapshot, ok bool) {
	if tr == nil {
		return "", nil, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	e, ok := tr.entries[id]
	if !ok {
		return "", nil, false
	}
	return e.trace, e.snap, true
}

// Stats reports the current entry count, retained byte size and cumulative
// eviction count (all zero on the nil ring).
func (tr *TraceRing) Stats() (entries int, bytes int64, evictions int64) {
	if tr == nil {
		return 0, 0, 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.order), tr.bytes, tr.evictions
}
