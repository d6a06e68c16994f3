package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// writeRecord marshals a minimal bench-json record to a temp file.
func writeRecord(t *testing.T, name string, benches map[string]float64) string {
	t.Helper()
	rec := benchFile{Suite: "synth", GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4}
	var names []string
	for bname := range benches {
		names = append(names, bname)
	}
	sort.Strings(names)
	for _, bname := range names {
		rec.Benchmarks = append(rec.Benchmarks,
			benchResult{Name: bname, Iterations: 10, NsPerOp: benches[bname]})
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + name
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegressCleanRun(t *testing.T) {
	oldP := writeRecord(t, "old.json", map[string]float64{
		"FullFlow/vme-read": 1000,
		"SolveCSC/ring":     2000,
	})
	newP := writeRecord(t, "new.json", map[string]float64{
		"FullFlow/vme-read": 1100, // +10%, under the 15% default
		"SolveCSC/ring":     1800, // faster
	})
	var out bytes.Buffer
	if err := runRegress(&out, oldP, newP, 0.15, 0); err != nil {
		t.Fatalf("clean comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "regress: OK") {
		t.Fatalf("missing OK banner:\n%s", out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("spurious regression mark:\n%s", out.String())
	}
}

func TestRegressTripsPastThreshold(t *testing.T) {
	oldP := writeRecord(t, "old.json", map[string]float64{
		"FullFlow/vme-read": 1000,
		"SolveCSC/ring":     2000,
	})
	newP := writeRecord(t, "new.json", map[string]float64{
		"FullFlow/vme-read": 1300, // +30%
		"SolveCSC/ring":     2000,
	})
	var out bytes.Buffer
	err := runRegress(&out, oldP, newP, 0.15, 0)
	if err == nil {
		t.Fatalf("+30%% must trip the 15%% gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "FullFlow/vme-read") {
		t.Fatalf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("table does not mark the regression:\n%s", out.String())
	}
	// The same delta passes a looser gate.
	out.Reset()
	if err := runRegress(&out, oldP, newP, 0.5, 0); err != nil {
		t.Fatalf("+30%% must pass a 50%% gate: %v", err)
	}
}

func TestRegressOneSidedNamesAreInformational(t *testing.T) {
	oldP := writeRecord(t, "old.json", map[string]float64{
		"FullFlow/vme-read": 1000,
		"Removed/bench":     500,
	})
	newP := writeRecord(t, "new.json", map[string]float64{
		"FullFlow/vme-read": 1000,
		"Added/bench":       99999,
	})
	var out bytes.Buffer
	if err := runRegress(&out, oldP, newP, 0.15, 0); err != nil {
		t.Fatalf("one-sided names must not fail the gate: %v", err)
	}
	if !strings.Contains(out.String(), "Removed/bench") || !strings.Contains(out.String(), "Added/bench") {
		t.Fatalf("one-sided names not reported:\n%s", out.String())
	}
}

func TestRegressMinNsFloorIsNotGated(t *testing.T) {
	// A sub-microsecond baseline measured at low iteration counts is timer
	// overhead, not the benchmark: it must never trip the gate.
	oldP := writeRecord(t, "old.json", map[string]float64{
		"ObsDisabledOverhead/counter": 0.5,
		"FullFlow/vme-read":           1e6,
	})
	newP := writeRecord(t, "new.json", map[string]float64{
		"ObsDisabledOverhead/counter": 120, // 240× "slower" — pure timer noise
		"FullFlow/vme-read":           1e6,
	})
	var out bytes.Buffer
	if err := runRegress(&out, oldP, newP, 0.15, 1000); err != nil {
		t.Fatalf("sub-floor baseline must not gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "below -min-ns") {
		t.Fatalf("floor not reported:\n%s", out.String())
	}
	// With the floor off, the same delta trips.
	out.Reset()
	if err := runRegress(&out, oldP, newP, 0.15, 0); err == nil {
		t.Fatal("with min-ns 0 the delta must gate")
	}
}

func TestRegressRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := runRegress(&out, "/does/not/exist.json", "/also/missing.json", 0.15, 0); err == nil {
		t.Fatal("missing files must error")
	}
	empty := t.TempDir() + "/empty.json"
	if err := os.WriteFile(empty, []byte(`{"suite":"synth","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runRegress(&out, empty, empty, 0.15, 0); err == nil {
		t.Fatal("empty record must error")
	}
	good := writeRecord(t, "good.json", map[string]float64{"A": 1})
	if err := runRegress(&out, good, good, 0, 0); err == nil {
		t.Fatal("non-positive threshold must error")
	}
}

// symbolicVsExplicitProcs1 is `go test -bench SymbolicVsExplicit/.*/toggles
// -benchtime=1x` output at GOMAXPROCS 1, where go test appends no -procs
// suffix: the trailing numbers are model sizes. Stripping any trailing -N
// collapsed these rows to two names.
const symbolicVsExplicitProcs1 = `BenchmarkSymbolicVsExplicit/explicit/toggles-4         	       1	     40207 ns/op	        16.00 states
BenchmarkSymbolicVsExplicit/symbolic/toggles-4         	       1	    138140 ns/op	       224.0 bddnodes	        16.00 states
BenchmarkSymbolicVsExplicit/explicit/toggles-8         	       1	    294915 ns/op	       256.0 states
BenchmarkSymbolicVsExplicit/symbolic/toggles-8         	       1	   3535656 ns/op	      1862 bddnodes	       256.0 states
BenchmarkSymbolicVsExplicit/explicit/toggles-12        	       1	   7058072 ns/op	      4096 states
BenchmarkSymbolicVsExplicit/symbolic/toggles-12        	       1	   1781159 ns/op	      6332 bddnodes	      4096 states
BenchmarkSymbolicVsExplicit/explicit/toggles-16        	       1	 215769910 ns/op	     65536 states
BenchmarkSymbolicVsExplicit/symbolic/toggles-16        	       1	   4823116 ns/op	     15042 bddnodes	     65536 states
`

// TestRegressBenchNameCollision parses the toggles-4/8/12/16 rows at
// GOMAXPROCS 1 and 2: every size keeps its own name, a -2 suffix is
// stripped only from the procs-2 run, and -regress compares size against
// size.
func TestRegressBenchNameCollision(t *testing.T) {
	dir := t.TempDir()
	record := func(name, raw string, procs int) string {
		var out bytes.Buffer
		if err := writeBenchJSON(strings.NewReader(raw), &out, procs, "", ""); err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p1 := record("p1.json", symbolicVsExplicitProcs1, 1)
	rec, err := loadBenchRecord(p1)
	if err != nil {
		t.Fatalf("procs-1 record: %v", err)
	}
	var names []string
	for _, b := range rec.Benchmarks {
		names = append(names, b.Name)
	}
	var want []string
	for _, n := range []string{"4", "8", "12", "16"} {
		want = append(want, "SymbolicVsExplicit/explicit/toggles-"+n,
			"SymbolicVsExplicit/symbolic/toggles-"+n)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("names = %v, want %v", names, want)
	}

	// The same rows at GOMAXPROCS 2 carry a -2 suffix; toggles-12's own
	// "-12" must survive the strip.
	procs2 := regexp.MustCompile(`(toggles-\d+)(\s)`).ReplaceAllString(symbolicVsExplicitProcs1, "$1-2$2")
	p2 := record("p2.json", procs2, 2)
	var out bytes.Buffer
	if err := runRegress(&out, p1, p2, 0.15, 0); err != nil {
		t.Fatalf("same timings must compare clean: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "only in") {
		t.Fatalf("sizes must pair up across procs:\n%s", out.String())
	}

	// The collapsed names the old parser produced are rejected.
	collapsed := writeRecordList(t, "collapsed.json", []benchResult{
		{Name: "SymbolicVsExplicit/explicit/toggles", NsPerOp: 40207},
		{Name: "SymbolicVsExplicit/explicit/toggles", NsPerOp: 215769910},
	})
	for _, args := range [][2]string{{collapsed, p1}, {p1, collapsed}} {
		err := runRegress(&out, args[0], args[1], 0.15, 0)
		if err == nil || !strings.Contains(err.Error(), "duplicate benchmark names") {
			t.Fatalf("regress %s %s: want a duplicate-name error, got %v", args[0], args[1], err)
		}
	}
}

// writeRecordList marshals a bench-json record with the results in order,
// duplicates included.
func writeRecordList(t *testing.T, name string, benches []benchResult) string {
	t.Helper()
	rec := benchFile{Suite: "synth", GOMAXPROCS: 1, Benchmarks: benches}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + name
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
