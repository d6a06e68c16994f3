package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSolveCSC/vme-read-4         	      27	  42724567 ns/op
BenchmarkSolveCSC/cscring-2/w4-4     	      31	  37000000 ns/op	       5.000 states
BenchmarkStubbornReduction/phil-6-4 	     100	    123456 ns/op	    1000 states	     200 B/op	       3 allocs/op
PASS
ok  	repro	12.345s
`

func TestWriteBenchJSON(t *testing.T) {
	var out bytes.Buffer
	if err := writeBenchJSON(strings.NewReader(sampleBenchOutput), &out, 4, "", ""); err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if f.Suite != "synth" || f.GOMAXPROCS < 1 || f.GoVersion == "" {
		t.Fatalf("metadata incomplete: %+v", f)
	}
	if !strings.Contains(f.CPU, "Xeon") {
		t.Fatalf("cpu line not captured: %q", f.CPU)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("want 3 benchmarks, got %d", len(f.Benchmarks))
	}
	first := f.Benchmarks[0]
	if first.Name != "SolveCSC/vme-read" || first.Iterations != 27 || first.NsPerOp != 42724567 {
		t.Fatalf("first result misparsed: %+v", first)
	}
	second := f.Benchmarks[1]
	if second.Name != "SolveCSC/cscring-2/w4" || second.Metrics["states"] != 5 {
		t.Fatalf("second result misparsed: %+v", second)
	}
	third := f.Benchmarks[2]
	if third.Name != "StubbornReduction/phil-6" {
		t.Fatalf("third name misparsed: %q", third.Name)
	}
	if third.Metrics["allocs/op"] != 3 || third.Metrics["B/op"] != 200 {
		t.Fatalf("alloc metrics misparsed: %+v", third)
	}
}

func TestWriteBenchJSONRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	err := writeBenchJSON(strings.NewReader("BenchmarkBroken notanumber ns/op\n"), &out, 4, "", "")
	if err == nil {
		t.Fatal("malformed benchmark line must error")
	}
}

func TestWriteBenchJSONMergesMetrics(t *testing.T) {
	snap := `{
  "counters": {"reach.states": 24, "logic.signals": 5},
  "gauges": {"symbolic.peak_nodes": 37},
  "spans": [
    {"id": 0, "parent": -1, "name": "flow:synthesize", "cat": "flow", "start_us": 0, "dur_us": 100},
    {"id": 1, "parent": 0, "name": "phase:sg", "cat": "phase", "start_us": 1, "dur_us": 40}
  ]
}`
	dir := t.TempDir()
	path := dir + "/vme-read.metrics.json"
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeBenchJSON(strings.NewReader(sampleBenchOutput), &out, 4, path, ""); err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	got, ok := f.Snapshots["vme-read.metrics"]
	if !ok {
		t.Fatalf("snapshot not merged; keys: %v", f.Snapshots)
	}
	if got.Counters["reach.states"] != 24 || got.Gauges["symbolic.peak_nodes"] != 37 {
		t.Fatalf("snapshot content lost: %+v", got)
	}
}

func TestWriteBenchJSONScalingSweep(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// go test appends no suffix at GOMAXPROCS 1.
	p1 := write("sweep1.txt", "BenchmarkEquationDerivation/cscring-2/w4 \t 5\t 8000 ns/op\nBenchmarkSolveCSC/cscring-3/w4 \t 10\t 4000 ns/op\n")
	p2 := write("sweep2.txt", "BenchmarkEquationDerivation/cscring-2/w4-2 \t 5\t 5000 ns/op\nBenchmarkSolveCSC/cscring-3/w4-2 \t 10\t 2500 ns/op\n")
	p4 := write("sweep4.txt", "BenchmarkEquationDerivation/cscring-2/w4-4 \t 5\t 4000 ns/op\nBenchmarkSolveCSC/cscring-3/w4-4 \t 10\t 1000 ns/op\n")
	var out bytes.Buffer
	spec := "1=" + p1 + ",2=" + p2 + ",4=" + p4
	if err := writeBenchJSON(strings.NewReader(sampleBenchOutput), &out, 4, "", spec); err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if f.Scaling == nil {
		t.Fatal("scaling table missing")
	}
	if got := f.Scaling.GOMAXPROCS; len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Fatalf("gomaxprocs = %v, want [1 2 4]", got)
	}
	if len(f.Scaling.Rows) != 2 {
		t.Fatalf("want 2 rows, got %+v", f.Scaling.Rows)
	}
	row := f.Scaling.Rows[1] // sorted: EquationDerivation before SolveCSC
	if row.Name != "SolveCSC/cscring-3/w4" {
		t.Fatalf("row 0 is %q", row.Name)
	}
	if row.NsPerOp["1"] != 4000 || row.NsPerOp["4"] != 1000 {
		t.Fatalf("ns_per_op misparsed: %+v", row.NsPerOp)
	}
	if row.Speedup["2"] != 1.6 || row.Speedup["4"] != 4 {
		t.Fatalf("speedup wrong: %+v", row.Speedup)
	}
	if _, ok := row.Speedup["1"]; ok {
		t.Fatal("baseline must not carry a speedup column")
	}
}

func TestWriteBenchJSONScalingRejectsBadSpec(t *testing.T) {
	var out bytes.Buffer
	if err := writeBenchJSON(strings.NewReader(""), &out, 4, "", "nope"); err == nil {
		t.Fatal("spec without procs= must error")
	}
	if err := writeBenchJSON(strings.NewReader(""), &out, 4, "", "2=/does/not/exist"); err == nil {
		t.Fatal("missing sweep file must error")
	}
}

func TestWriteBenchJSONRejectsBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bad.json"
	if err := os.WriteFile(path, []byte(`{"counters": {"x": 1}, "spans": [{"name": "no-category"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := writeBenchJSON(strings.NewReader(sampleBenchOutput), &out, 4, path, "")
	if err == nil {
		t.Fatal("invalid snapshot must be rejected")
	}
}
