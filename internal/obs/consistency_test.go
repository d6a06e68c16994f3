package obs

import (
	"sync"
	"testing"
)

// TestHistogramSnapshotConsistentUnderLoad is the regression test for the
// torn-snapshot bug: Observe bumps the bucket and the total count as
// independent atomics, so a snapshot racing with writers used to export
// count != sum(buckets) and fail Validate on an otherwise-healthy registry.
// Snapshots now derive the count from the loaded buckets, so every snapshot
// taken mid-load must validate. Run under -race (verify.sh covers it).
func TestHistogramSnapshotConsistentUnderLoad(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", Pow2Buckets(10)...)

	const writers = 4
	const perWriter = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(seed + int64(i%1500))
			}
		}(int64(w))
	}
	go func() {
		wg.Wait()
		close(stop)
	}()

	snapshots := 0
	for {
		select {
		case <-stop:
			goto drained
		default:
		}
		snap := r.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatalf("snapshot %d under concurrent Observe: %v", snapshots, err)
		}
		hs := snap.Histograms["latency"]
		var total int64
		for _, c := range hs.Counts {
			total += c
		}
		if hs.Count != total {
			t.Fatalf("snapshot %d: count %d != bucket sum %d", snapshots, hs.Count, total)
		}
		snapshots++
	}
drained:
	// The quiescent snapshot must account for every sample exactly.
	snap := r.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := snap.Histograms["latency"].Count; got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("live Count() = %d, want %d", h.Count(), writers*perWriter)
	}
}

// TestRegistryMerge covers the aggregation path the synthesis daemon uses:
// per-request registries fold into a server-level registry without spans.
func TestRegistryMerge(t *testing.T) {
	job := NewRegistry()
	job.Counter("reach.states").Add(10)
	job.Gauge("symbolic.peak_nodes").Max(100)
	job.Histogram("logic.cover_size", 1, 2, 4).Observe(3)
	job.Root("flow:synthesize").End()

	agg := NewRegistry()
	agg.Counter("reach.states").Add(5)
	agg.Gauge("symbolic.peak_nodes").Max(400)
	agg.MergeRetain(job.Snapshot(), nil)
	agg.MergeRetain(job.Snapshot(), nil)

	snap := agg.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["reach.states"]; got != 25 {
		t.Fatalf("merged counter = %d, want 25", got)
	}
	if got := snap.Gauges["symbolic.peak_nodes"]; got != 400 {
		t.Fatalf("merged gauge = %d, want 400 (Max semantics)", got)
	}
	hs, ok := snap.Histograms["logic.cover_size"]
	if !ok || hs.Count != 2 || hs.Sum != 6 {
		t.Fatalf("merged histogram = %+v, want count 2 sum 6", hs)
	}
	if len(snap.Spans) != 0 {
		t.Fatalf("merge must not import spans, got %d", len(snap.Spans))
	}

	// Bound-mismatched histograms are skipped, not corrupted.
	other := NewRegistry()
	other.Histogram("logic.cover_size", 7, 9).Observe(8)
	agg.MergeRetain(other.Snapshot(), nil)
	if got := agg.Snapshot().Histograms["logic.cover_size"]; got.Count != 2 {
		t.Fatalf("mismatched-bounds merge changed histogram: %+v", got)
	}

	// Nil receiver and nil snapshot are no-ops.
	var nilReg *Registry
	nilReg.MergeRetain(job.Snapshot(), nil)
	agg.MergeRetain(nil, nil)
}
