package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

const tinySpec = `.model tiny
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
`

func writeJournal(t *testing.T, dir string, lines ...string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data := strings.Join(lines, "\n")
	if len(lines) > 0 {
		data += "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func acceptLine(t *testing.T, id, kind string) string {
	t.Helper()
	rec := journalRecord{T: "accept", Job: id, Kind: kind, Spec: tinySpec, Opts: &ReqOptions{}}
	raw, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func newDurableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Workers: 2, Queue: 8, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, hs
}

func pollJob(t *testing.T, base, id string, want func(*Response) bool) *Response {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var out Response
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want(&out) {
			return &out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: stuck at %q (%s)", id, out.Status, out.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoveryReenqueue: a job accepted but never started before the crash
// is re-enqueued on restart, runs, and completes normally with its id.
func TestRecoveryReenqueue(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, acceptLine(t, "j7", "analyze"))
	srv, hs := newDurableServer(t, dir)
	if got := srv.jobsRecovered.Value(); got != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", got)
	}
	out := pollJob(t, hs.URL, "j7", func(r *Response) bool { return r.Status == "done" })
	if out.JobID != "j7" {
		t.Fatalf("job id = %q, want j7", out.JobID)
	}
	// The recovered id reserves the sequence: a new job must not collide.
	code, body := post(t, hs.URL+"/v1/analyze", map[string]any{"spec": tinySpec, "async": true,
		"options": map[string]any{"style": "gc"}})
	if code != http.StatusAccepted {
		t.Fatalf("new job after recovery: %d %s", code, body.Error)
	}
	if body.JobID <= "j7" {
		t.Fatalf("new job id %q does not continue past recovered j7", body.JobID)
	}
}

// TestRecoveryInterrupted: a job with a start record but no finish died
// mid-run; restart reports it as terminal "interrupted" and does not re-run
// it.
func TestRecoveryInterrupted(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		acceptLine(t, "j2", "synthesize"),
		`{"t":"start","job":"j2"}`,
	)
	srv, hs := newDurableServer(t, dir)
	if got := srv.jobsInterrupted.Value(); got != 1 {
		t.Fatalf("jobs_interrupted = %d, want 1", got)
	}
	if got := srv.jobsRecovered.Value(); got != 0 {
		t.Fatalf("jobs_recovered = %d, want 0", got)
	}
	out := pollJob(t, hs.URL, "j2", func(r *Response) bool { return r.Status != "queued" })
	if out.Status != "interrupted" || out.ErrorKind != "interrupted" {
		t.Fatalf("status=%q kind=%q, want interrupted/interrupted", out.Status, out.ErrorKind)
	}
	// Terminal: a second restart drops it from the compacted journal.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	srv2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	if got := srv2.jobsInterrupted.Value() + srv2.jobsRecovered.Value(); got != 0 {
		t.Fatalf("second restart resurrected %d jobs", got)
	}
}

// TestRecoveryCanceledNotResurrected: a cancel record is terminal — replay
// must not re-enqueue the job the client was told is being canceled.
func TestRecoveryCanceledNotResurrected(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		acceptLine(t, "j1", "analyze"),
		`{"t":"cancel","job":"j1"}`,
	)
	srv, _ := newDurableServer(t, dir)
	if got := srv.jobsRecovered.Value() + srv.jobsInterrupted.Value(); got != 0 {
		t.Fatalf("canceled job resurrected (%d recovered/interrupted)", got)
	}
}

// TestRecoveryTruncatedTail: the torn tail of the record a crash
// interrupted is tolerated — replay stops there, keeps everything before it,
// and flags the truncation for the log.
func TestRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		acceptLine(t, "j1", "analyze"),
		`{"t":"accept","job":"j2","kind":"ana`, // torn mid-record
	)
	rp, err := replayJournal(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatalf("replay failed on torn tail: %v", err)
	}
	if !rp.Truncated {
		t.Fatal("truncation not flagged")
	}
	if !strings.Contains(rp.TruncatedLine, `"j2"`) {
		t.Fatalf("truncated line = %q, want the torn record", rp.TruncatedLine)
	}
	open := rp.open()
	if len(open) != 1 || open[0].Job != "j1" {
		t.Fatalf("open jobs = %+v, want exactly j1", open)
	}

	// End to end: the server still starts and recovers j1.
	srv, hs := newDurableServer(t, dir)
	if got := srv.jobsRecovered.Value(); got != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", got)
	}
	pollJob(t, hs.URL, "j1", func(r *Response) bool { return r.Status == "done" })
}

// TestRecoveryCompaction: startup rewrites the journal to exactly the
// recovered state — terminal jobs dropped, open jobs kept.
func TestRecoveryCompaction(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		acceptLine(t, "j1", "analyze"),
		`{"t":"start","job":"j1"}`,
		`{"t":"finish","job":"j1","status":"done"}`,
		acceptLine(t, "j2", "analyze"),
	)
	rp, err := replayJournal(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if open := rp.open(); len(open) != 1 || open[0].Job != "j2" {
		t.Fatalf("open = %+v, want exactly j2", open)
	}
	if err := compactJournal(filepath.Join(dir, journalName), rp.open()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 1 {
		t.Fatalf("compacted journal has %d records, want 1:\n%s", n, data)
	}
	if !bytes.Contains(data, []byte(`"j2"`)) || bytes.Contains(data, []byte(`"j1"`)) {
		t.Fatalf("compacted journal kept the wrong records:\n%s", data)
	}
}

// TestColdStart: an empty or missing data dir is a clean cold start — no
// recovered jobs, and the durable pipeline works from the first request.
func TestColdStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "created", "yet")
	srv, hs := newDurableServer(t, dir)
	if got := srv.jobsRecovered.Value() + srv.jobsInterrupted.Value(); got != 0 {
		t.Fatalf("cold start recovered %d jobs from nothing", got)
	}
	code, body := post(t, hs.URL+"/v1/analyze", map[string]any{"spec": tinySpec})
	if code != http.StatusOK || body.Status != "done" {
		t.Fatalf("first durable request: %d %q %s", code, body.Status, body.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); err != nil {
		t.Fatalf("journal not created: %v", err)
	}
}

// TestDiskCacheCorruptQuarantined: a bit-flipped cache file fails header
// validation on read, is quarantined as .corrupt, and is reported as a miss
// — a torn or rotted entry is never served.
func TestDiskCacheCorruptQuarantined(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c, err := openDiskCache(dir, 16, 1<<20,
		reg.Counter("hits"), reg.Counter("evictions"), reg.Counter("corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	payload := []byte(`{"result":"payload"}`)
	c.put(key, payload)
	if got, ok := c.get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("pre-corruption get = %q, %v", got, ok)
	}

	// Flip one payload byte on disk.
	path := filepath.Join(dir, key+diskEntExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[diskHdrSize] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := c.get(key); ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	if v := reg.Counter("corrupt").Value(); v != 1 {
		t.Fatalf("corrupt counter = %d, want 1", v)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still live: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, key+diskBadExt)); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The quarantined entry stays a miss on a fresh index too.
	c2, err := openDiskCache(dir, 16, 1<<20,
		reg.Counter("hits2"), reg.Counter("evictions2"), reg.Counter("corrupt2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.get(key); ok {
		t.Fatal("quarantined entry reindexed after restart")
	}
}

// TestDiskCacheConcurrentPut writes one hot key and a set of cold keys from
// many goroutines at once, with lookups in between; run under -race. Every
// put does its file I/O outside the index lock, so afterwards no temp file
// may be left behind, the byte account must match the index, and every
// indexed entry must read back as one of the payloads written for it.
func TestDiskCacheConcurrentPut(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c, err := openDiskCache(dir, 64, 1<<20,
		reg.Counter("hits"), reg.Counter("evictions"), reg.Counter("corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	hot := strings.Repeat("0", 64)
	payload := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-i%d", w, i%3)) }
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c.put(hot, payload(w, i))
				c.put(fmt.Sprintf("%064x", i%10+1), []byte("cold"))
				c.get(hot)
			}
		}(w)
	}
	wg.Wait()

	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+diskTmpExt)); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	c.mu.Lock()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*diskEntry)
		raw, err := os.ReadFile(c.path(e.key))
		if err != nil {
			c.mu.Unlock()
			t.Fatalf("indexed entry %s has no file: %v", e.key, err)
		}
		if data, ok := decodeEntry(raw); !ok || int64(len(data)) != e.size {
			c.mu.Unlock()
			t.Fatalf("entry %s: decoded %v, %d bytes, indexed size %d", e.key, ok, len(data), e.size)
		}
		sum += e.size
	}
	total, entries := c.bytes, c.ll.Len()
	c.mu.Unlock()
	if total != sum || entries != 11 {
		t.Fatalf("bytes=%d (entry sum %d) entries=%d, want sum and 11", total, sum, entries)
	}
}

// TestDiskCacheSurvivesRestart is the byte-identical persistence check: a
// result cached by one server generation is replayed exactly by the next.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newDurableServer(t, dir)
	body := map[string]any{"spec": tinySpec}
	code, first := post(t, hs.URL+"/v1/synthesize", body)
	if code != http.StatusOK || first.Status != "done" || first.Cached {
		t.Fatalf("cold run: %d %q cached=%v %s", code, first.Status, first.Cached, first.Error)
	}
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	defer srv2.Shutdown(context.Background())
	code, second := post(t, hs2.URL+"/v1/synthesize", body)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("restarted run: %d cached=%v %s", code, second.Cached, second.Error)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result not byte-identical across restart:\n%s\nvs\n%s",
			first.Result, second.Result)
	}
	if srv2.diskHits.Value() != 1 {
		t.Fatalf("cache_disk_hits = %d, want 1", srv2.diskHits.Value())
	}
}

func post(t *testing.T, url string, body any) (int, *Response) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, &out
}

// TestCrashRetryPolicy: a recovered engine panic (budget.ErrInternal) gets
// exactly one retry with the degradation ladder forced, and the final
// response carries the failed first attempt in its trace. The panic is
// injected through the budget hook seam in the explicit state-graph build,
// which core recovers into a typed internal error — the same shape a real
// engine crash produces.
func TestCrashRetryPolicy(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	var fired atomic.Bool
	srv.testBudgetHook = func(site string) error {
		if site == "reach.explore" && fired.CompareAndSwap(false, true) {
			panic("chaos: injected engine panic")
		}
		return nil
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	code, out := post(t, hs.URL+"/v1/synthesize",
		map[string]any{"spec": tinySpec})
	if code != http.StatusOK || out.Status != "done" {
		t.Fatalf("retried job: %d %q (%s)", code, out.Status, out.Error)
	}
	if got := srv.jobsRetried.Value(); got != 1 {
		t.Fatalf("jobs_retried = %d, want 1", got)
	}
	found := false
	for _, a := range out.Attempts {
		if strings.Contains(a, "retried with fallback ladder") {
			found = true
		}
	}
	if !found {
		t.Fatalf("attempt trace missing the retry marker: %v", out.Attempts)
	}

	// One retry max: a hook that panics at every check site fails the job
	// as internal. (The retry's fallback ladder recovers the explicit
	// build's panic and moves on to the symbolic rung, which panics too.)
	srv2, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	srv2.testBudgetHook = func(site string) error {
		panic("chaos: persistent engine panic at " + site)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	code, out = post(t, hs2.URL+"/v1/synthesize",
		map[string]any{"spec": tinySpec})
	if code != http.StatusInternalServerError || out.ErrorKind != "internal" {
		t.Fatalf("persistent panic: %d kind=%q (%s), want 500/internal", code, out.ErrorKind, out.Error)
	}
	if got := srv2.jobsRetried.Value(); got != 1 {
		t.Fatalf("persistent panic retried %d times, want exactly 1", got)
	}
}
