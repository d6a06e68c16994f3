package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The chaos scenarios below follow one script: start an armed generation,
// drive it onto the kill site, watch it SIGKILL itself, restart unarmed on
// the same data dir, and assert the recovery invariants over HTTP.

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

var serveBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "chaos-serve-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	serveBin = filepath.Join(tmp, "serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "repro/cmd/serve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: building cmd/serve: %v\n%s", err, out)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// leakCheck snapshots the goroutine count and returns a function that fails
// the test if the count has not settled back by the deadline — the harness
// must not leak watchers across daemon generations.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// wireResp is the subset of the serve wire Response the invariants read.
type wireResp struct {
	JobID     string          `json:"job_id"`
	Status    string          `json:"status"`
	TraceID   string          `json:"trace_id"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error"`
	ErrorKind string          `json:"error_kind"`
	Attempts  []string        `json:"attempts"`
	Result    json.RawMessage `json:"result"`
}

// chaosTraceparent is the fixed W3C trace context every postSynth carries;
// the trace id is journaled with the accept record, so it must survive a
// crash and restart along with the job.
const (
	chaosTraceparent = "00-c4a05c75a11b44e59c2255a4a0e5f7d1-00f067aa0ba902b7-01"
	chaosTraceID     = "c4a05c75a11b44e59c2255a4a0e5f7d1"
)

// postSynth submits the tiny spec. async jobs come back 202 with a job id;
// lostOK tolerates a connection torn by the daemon dying mid-response (the
// whole point of some scenarios).
func postSynth(t *testing.T, addr string, async, lostOK bool) *wireResp {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"spec": tinySpec, "async": async})
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", chaosTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if lostOK {
			return nil
		}
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wireResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		if lostOK {
			return nil
		}
		t.Fatalf("decoding response: %v", err)
	}
	return &out
}

func getJob(t *testing.T, addr, id string) *wireResp {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wireResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func pollJob(t *testing.T, addr, id string, until func(*wireResp) bool) *wireResp {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := getJob(t, addr, id)
		if until(out) {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %q (%s)", id, out.Status, out.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func counters(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

func getStatus(t *testing.T, addr, path string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCrashJournalAppend kills the daemon halfway through an fsync'd journal
// append (a genuinely torn record on disk). The job whose accept record
// landed before the torn write must survive the crash: the restarted daemon
// replays the journal, tolerates the torn tail, re-enqueues the job and
// completes it. Zero acknowledged jobs lost.
func TestCrashJournalAppend(t *testing.T) {
	defer leakCheck(t)()
	dir := t.TempDir()

	// Append #1 is j1's accept record (completes); append #2 is the start
	// record the single worker writes when it picks j1 up — armed, it tears.
	p, err := Start(serveBin, dir, "serve.journal.append:2", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	postSynth(t, p.Addr, true, true) // ack may race the death; the journal is the contract
	if err := p.WaitSIGKILL(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	p2, err := Start(serveBin, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	out := pollJob(t, p2.Addr, "j1", func(r *wireResp) bool { return r.Status == "done" })
	if len(out.Result) == 0 {
		t.Fatalf("recovered job finished without a result: %+v", out)
	}
	// The trace id rode the journaled accept record across the crash: the
	// recovered job still answers with the trace the original request carried.
	if out.TraceID != chaosTraceID {
		t.Fatalf("recovered job trace_id = %q, want journaled %q", out.TraceID, chaosTraceID)
	}
	if c := counters(t, p2.Addr); c["serve.jobs_recovered"] != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", c["serve.jobs_recovered"])
	}
	if !strings.Contains(p2.Log(), "truncated final record") {
		t.Fatalf("torn journal tail not logged:\n%s", p2.Log())
	}
	if err := p2.Stop(15 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidJob kills the daemon while a job is running (after its start
// record). The restarted daemon must report the job as interrupted — not
// silently re-run it, not forget it — and keep serving new work.
func TestCrashMidJob(t *testing.T) {
	defer leakCheck(t)()
	dir := t.TempDir()

	p, err := Start(serveBin, dir, "serve.job.run:1", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	postSynth(t, p.Addr, true, true)
	if err := p.WaitSIGKILL(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	p2, err := Start(serveBin, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	out := pollJob(t, p2.Addr, "j1", func(r *wireResp) bool { return r.Status != "queued" && r.Status != "running" })
	if out.Status != "interrupted" || out.ErrorKind != "interrupted" {
		t.Fatalf("died-mid-run job: status=%q kind=%q, want interrupted", out.Status, out.ErrorKind)
	}
	if c := counters(t, p2.Addr); c["serve.jobs_interrupted"] != 1 {
		t.Fatalf("jobs_interrupted = %d, want 1", c["serve.jobs_interrupted"])
	}
	// The daemon is healthy after recovery: fresh work completes.
	if out := postSynth(t, p2.Addr, false, false); out.Status != "done" {
		t.Fatalf("fresh job after recovery: %q (%s)", out.Status, out.Error)
	}
	if err := p2.Stop(15 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidCacheWrite kills the daemon halfway through writing a result
// to the disk cache. The torn temp file must never become visible: the
// restart sweeps it, the entry is a miss, and re-running the request
// produces and then replays a byte-identical cached result.
func TestCrashMidCacheWrite(t *testing.T) {
	defer leakCheck(t)()
	dir := t.TempDir()

	p, err := Start(serveBin, dir, "serve.cache.write:1", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	postSynth(t, p.Addr, true, true)
	if err := p.WaitSIGKILL(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The death left at most a torn .tmp, never a committed entry.
	if res, _ := filepath.Glob(filepath.Join(dir, "cache", "*.res")); len(res) != 0 {
		t.Fatalf("torn cache write committed an entry: %v", res)
	}

	p2, err := Start(serveBin, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "cache", "*.tmp")); len(tmps) != 0 {
		t.Fatalf("restart did not sweep torn temp files: %v", tmps)
	}
	// The interrupted writer's job is reported, and the same request now
	// runs fresh (no torn read), caches, and replays byte-identically.
	pollJob(t, p2.Addr, "j1", func(r *wireResp) bool { return r.Status == "interrupted" })
	first := postSynth(t, p2.Addr, false, false)
	if first.Status != "done" || first.Cached {
		t.Fatalf("first re-run: status=%q cached=%v (%s)", first.Status, first.Cached, first.Error)
	}
	second := postSynth(t, p2.Addr, false, false)
	if !second.Cached || !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached replay mismatch: cached=%v, byte-identical=%v",
			second.Cached, bytes.Equal(first.Result, second.Result))
	}
	if err := p2.Stop(15 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestHealthEndpoints checks liveness and readiness over a real daemon
// lifecycle: both 200 while serving, and the process drains cleanly on
// SIGTERM (readiness flipping during Shutdown is covered in-process by the
// serve package tests; a drained process can no longer answer).
func TestHealthEndpoints(t *testing.T) {
	defer leakCheck(t)()
	p, err := Start(serveBin, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	if code := getStatus(t, p.Addr, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if code := getStatus(t, p.Addr, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	if err := p.Stop(15 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSIGTERMRightAfterReady signals the daemon the instant it prints its
// listening line: the drain handler must already be installed, so every
// generation logs "draining" and exits 0 instead of dying by the signal.
func TestSIGTERMRightAfterReady(t *testing.T) {
	defer leakCheck(t)()
	for gen := 0; gen < 8; gen++ {
		p, err := Start(serveBin, t.TempDir(), "")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Stop(15 * time.Second); err != nil {
			t.Fatalf("generation %d: %v\n%s", gen, err, p.Log())
		}
		if !strings.Contains(p.Log(), "draining") {
			t.Fatalf("generation %d: no draining line\n%s", gen, p.Log())
		}
	}
}
