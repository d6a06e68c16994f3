package obs

import (
	"bytes"
	"strings"
	"testing"
)

// --- stream hook ---

func TestStreamEmitsOpenEventClose(t *testing.T) {
	reg := NewRegistry()
	var got []StreamEvent
	reg.SetStream(func(ev StreamEvent) { got = append(got, ev) })

	flow := reg.Root("flow:test")
	phase := flow.Child("phase:work")
	phase.Event("tick", "k", "v")
	phase.End()
	phase.End() // double End must not emit a second close
	flow.End()

	want := []struct{ typ, name string }{
		{"open", "flow:test"},
		{"open", "phase:work"},
		{"event", "tick"},
		{"close", "phase:work"},
		{"close", "flow:test"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d stream events, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Type != w.typ || got[i].Name != w.name {
			t.Fatalf("event %d = %q/%q, want %q/%q", i, got[i].Type, got[i].Name, w.typ, w.name)
		}
	}
	if got[1].Parent != got[0].Span {
		t.Fatalf("child open parent %d != root span %d", got[1].Parent, got[0].Span)
	}
	if got[3].DurUS < 0 {
		t.Fatalf("close record has negative duration %v", got[3].DurUS)
	}
	if len(got[2].KV) != 1 || got[2].KV[0].Key != "k" || got[2].KV[0].Value != "v" {
		t.Fatalf("event record kv = %+v", got[2].KV)
	}
	if got[2].Cat != "phase" {
		t.Fatalf("event record cat = %q, want phase", got[2].Cat)
	}

	// Stream ids must match the exported snapshot ids.
	snap := reg.Snapshot()
	if snap.Spans[0].ID != got[0].Span || snap.Spans[1].ID != got[1].Span {
		t.Fatalf("stream ids %d/%d do not match snapshot ids %d/%d",
			got[0].Span, got[1].Span, snap.Spans[0].ID, snap.Spans[1].ID)
	}
}

func TestStreamNilSafety(t *testing.T) {
	var reg *Registry
	reg.SetStream(func(StreamEvent) { t.Fatal("stream on nil registry") })
	sp := reg.Root("flow:x")
	sp.Event("e")
	sp.End()

	// Enabled registry without a hook must work as before.
	reg2 := NewRegistry()
	flow := reg2.Root("flow:x")
	flow.End()
	if n := len(reg2.Snapshot().Spans); n != 1 {
		t.Fatalf("hookless registry exported %d spans, want 1", n)
	}
}

// --- MergeRetain ---

func TestMergeRetain(t *testing.T) {
	src := NewRegistry()
	src.Counter("c").Add(3)
	flow := src.Root("flow:r")
	flow.End()
	snap := src.Snapshot()

	agg := NewRegistry()
	var retained *Snapshot
	agg.MergeRetain(snap, func(s *Snapshot) { retained = s })

	if got := agg.Counter("c").Value(); got != 3 {
		t.Fatalf("merged counter = %d, want 3", got)
	}
	if len(agg.Snapshot().Spans) != 0 {
		t.Fatal("MergeRetain leaked spans into the aggregate registry")
	}
	if retained == nil || len(retained.Spans) != 1 {
		t.Fatalf("retain callback got %+v, want the 1-span snapshot", retained)
	}

	// A span-free snapshot must not invoke retain.
	retained = nil
	spanless := NewRegistry()
	spanless.Counter("c").Inc()
	agg.MergeRetain(spanless.Snapshot(), func(s *Snapshot) { retained = s })
	if retained != nil {
		t.Fatal("retain invoked for a span-free snapshot")
	}
	// A nil retain drops the spans.
	agg.MergeRetain(snap, nil)
	if got := agg.Counter("c").Value(); got != 7 {
		t.Fatalf("counter after nil-retain merge = %d, want 7", got)
	}
}

// --- TraceRing ---

func ringSnap(spans int) *Snapshot {
	reg := NewRegistry()
	root := reg.Root("flow:ring")
	for i := 1; i < spans; i++ {
		root.Child("phase:p").End()
	}
	root.End()
	return reg.Snapshot()
}

func TestTraceRingBasics(t *testing.T) {
	tr := NewTraceRing(2, 1<<20)
	tr.Put("a", "trace-a", ringSnap(1))
	tr.Put("b", "trace-b", ringSnap(1))

	trace, snap, ok := tr.Get("a")
	if !ok || trace != "trace-a" || len(snap.Spans) != 1 {
		t.Fatalf("Get(a) = %q/%v/%v", trace, snap, ok)
	}

	tr.Put("c", "trace-c", ringSnap(1)) // evicts oldest ("a")
	if _, _, ok := tr.Get("a"); ok {
		t.Fatal("oldest entry survived entry-count eviction")
	}
	if _, _, ok := tr.Get("b"); !ok {
		t.Fatal("entry b evicted prematurely")
	}
	entries, bytes, evictions := tr.Stats()
	if entries != 2 || evictions != 1 || bytes <= 0 {
		t.Fatalf("Stats = %d/%d/%d, want 2 entries, 1 eviction, >0 bytes", entries, bytes, evictions)
	}
}

func TestTraceRingByteBoundKeepsNewest(t *testing.T) {
	tr := NewTraceRing(100, 1) // absurdly small byte bound
	tr.Put("big1", "t1", ringSnap(5))
	if entries, _, _ := tr.Stats(); entries != 1 {
		t.Fatalf("newest oversized entry evicted: %d entries", entries)
	}
	tr.Put("big2", "t2", ringSnap(5))
	if _, _, ok := tr.Get("big1"); ok {
		t.Fatal("over-budget older entry survived")
	}
	if _, _, ok := tr.Get("big2"); !ok {
		t.Fatal("newest entry must always be retained")
	}
}

func TestTraceRingReplaceSameID(t *testing.T) {
	tr := NewTraceRing(2, 1<<20)
	tr.Put("a", "t1", ringSnap(1))
	tr.Put("b", "tb", ringSnap(1))
	tr.Put("a", "t2", ringSnap(3)) // replace refreshes position: "b" is now oldest
	entries, _, _ := tr.Stats()
	if entries != 2 {
		t.Fatalf("replace grew the ring to %d entries", entries)
	}
	trace, snap, ok := tr.Get("a")
	if !ok || trace != "t2" || len(snap.Spans) != 3 {
		t.Fatalf("replaced entry = %q, %d spans, %v", trace, len(snap.Spans), ok)
	}
	tr.Put("c", "tc", ringSnap(1))
	if _, _, ok := tr.Get("b"); ok {
		t.Fatal("refresh did not move replaced entry to newest (b should be evicted)")
	}
	if _, _, ok := tr.Get("a"); !ok {
		t.Fatal("refreshed entry evicted")
	}
}

func TestTraceRingNil(t *testing.T) {
	var tr *TraceRing
	tr.Put("a", "t", ringSnap(1))
	if _, _, ok := tr.Get("a"); ok {
		t.Fatal("nil ring returned an entry")
	}
	if e, b, ev := tr.Stats(); e != 0 || b != 0 || ev != 0 {
		t.Fatal("nil ring has non-zero stats")
	}
}

// --- Prometheus exposition ---

func promSnapshot() *Snapshot {
	reg := NewRegistry()
	reg.Counter("serve.requests").Add(12)
	reg.Counter("serve.cache_hits").Add(3)
	reg.Gauge("serve.queue_depth").Set(2)
	h := reg.Histogram("serve.latency_us", 10, 100, 1000)
	for _, v := range []int64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	return reg.Snapshot()
}

func TestWritePromRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := promSnapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateProm(buf.Bytes()); err != nil {
		t.Fatalf("ValidateProm rejected WriteProm output: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE serve_requests counter\nserve_requests 12\n",
		"# TYPE serve_queue_depth gauge\nserve_queue_depth 2\n",
		"# TYPE serve_latency_us histogram\n",
		"serve_latency_us_bucket{le=\"10\"} 1\n",
		"serve_latency_us_bucket{le=\"100\"} 2\n",
		"serve_latency_us_bucket{le=\"1000\"} 3\n",
		"serve_latency_us_bucket{le=\"+Inf\"} 4\n",
		"serve_latency_us_sum 5555\n",
		"serve_latency_us_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := promSnapshot().WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Fatal("WriteProm output is not deterministic")
	}
}

func TestPromNameSanitization(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.bdd-nodes").Inc()
	reg.Counter("1weird").Inc()
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "engine_bdd_nodes 1\n") {
		t.Fatalf("dots/dashes not sanitized:\n%s", out)
	}
	if !strings.Contains(out, "_1weird 1\n") {
		t.Fatalf("leading digit not sanitized:\n%s", out)
	}
	if err := ValidateProm(buf.Bytes()); err != nil {
		t.Fatalf("sanitized output rejected: %v", err)
	}
}

func TestPromCollisionDisambiguation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.b").Add(1)
	reg.Counter("a_b").Add(2)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a_b 1\n") || !strings.Contains(out, "a_b_2 2\n") {
		t.Fatalf("collision not disambiguated deterministically:\n%s", out)
	}
	if err := ValidateProm(buf.Bytes()); err != nil {
		t.Fatalf("disambiguated output rejected: %v", err)
	}
}

func TestValidatePromRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no-newline", "# TYPE a counter\na 1"},
		{"sample-without-type", "a 1\n"},
		{"duplicate-type", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"bad-name", "# TYPE a-b counter\na-b 1\n"},
		{"bad-value", "# TYPE a counter\na xyz\n"},
		{"unknown-type", "# TYPE a widget\na 1\n"},
		{"bare-histogram-sample", "# TYPE h histogram\nh 1\n"},
		{"histogram-no-inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram-no-sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
		{"histogram-no-count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n"},
		{"histogram-not-cumulative",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n"},
		{"histogram-descending-le",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"},
		{"histogram-inf-count-mismatch",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 5\n"},
		{"bucket-without-le", "# TYPE h histogram\nh_bucket{x=\"1\"} 1\n"},
		{"unterminated-labels", "# TYPE a counter\na{x=\"1\" 1\n"},
		{"unquoted-label", "# TYPE a counter\na{x=1} 1\n"},
		{"malformed-type-line", "# TYPE a\na 1\n"},
	}
	for _, tc := range cases {
		if err := ValidateProm([]byte(tc.in)); err == nil {
			t.Errorf("%s: ValidateProm accepted bad input:\n%s", tc.name, tc.in)
		}
	}
}

func TestValidatePromAcceptsTolerated(t *testing.T) {
	good := []string{
		"# TYPE a counter\n# HELP a something\na 1\n",
		"# TYPE a gauge\na 1.5\n",
		"# TYPE a counter\na 1 1712345678000\n", // trailing timestamp
		"# TYPE a counter\na{shard=\"3\"} 1\n",  // labeled counter
	}
	for _, in := range good {
		if err := ValidateProm([]byte(in)); err != nil {
			t.Errorf("ValidateProm rejected tolerable input %q: %v", in, err)
		}
	}
}
