package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (e.g. "SolveCSC/cscring-2/w4"). go test appends the suffix only
	// when GOMAXPROCS > 1.
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics holds any additional value/unit pairs the benchmark reported
	// (allocs/op, states, events, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the committed benchmark trajectory record (BENCH_synth.json).
type benchFile struct {
	Suite      string        `json:"suite"`
	GoVersion  string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
	// Scaling is the GOMAXPROCS sweep of the pooled benchmark families
	// (-scaling): per-worker-count ns/op and speedup columns relative to
	// the single-processor run.
	Scaling *scalingTable `json:"scaling,omitempty"`
	// Snapshots are metrics exports from instrumented runs (-metrics),
	// keyed by snapshot name, merged in via -merge-metrics so the committed
	// trajectory carries engine counters next to the timing numbers.
	Snapshots map[string]*obs.Snapshot `json:"metrics_snapshots,omitempty"`
}

// scalingTable is the parsed GOMAXPROCS sweep: the processor counts swept
// and one row per benchmark present in every run.
type scalingTable struct {
	GOMAXPROCS []int        `json:"gomaxprocs"`
	Rows       []scalingRow `json:"rows"`
}

// scalingRow carries one benchmark's wall-clock across the sweep. Keys of
// NsPerOp and Speedup are the decimal GOMAXPROCS values; Speedup is
// ns/op(1) ÷ ns/op(p), present when the single-processor run has the
// benchmark.
type scalingRow struct {
	Name    string             `json:"name"`
	NsPerOp map[string]float64 `json:"ns_per_op"`
	Speedup map[string]float64 `json:"speedup,omitempty"`
}

// writeBenchJSON converts `go test -bench` plain-text output on r, run at
// GOMAXPROCS procs, into the benchmark trajectory JSON on w. Lines that are
// not benchmark results (the goos/goarch/pkg/cpu header, PASS, ok)
// contribute metadata or are skipped. merge names metrics-snapshot JSON
// files (comma-separated) whose validated contents are embedded under
// "metrics_snapshots"; scaling names the GOMAXPROCS sweep files
// ("1=path,2=path,...") embedded under "scaling".
func writeBenchJSON(r io.Reader, w io.Writer, procs int, merge, scaling string) error {
	out := benchFile{
		Suite:      "synth",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: procs,
		Benchmarks: []benchResult{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			out.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseBenchLine(line, procs)
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		out.Benchmarks = append(out.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := mergeSnapshots(&out, merge); err != nil {
		return err
	}
	if err := mergeScaling(&out, scaling); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// mergeScaling parses the sweep spec "1=path,2=path,..." — each path a raw
// `go test -bench` output captured at that GOMAXPROCS — into the scaling
// table, computing per-worker-count speedups against the p=1 column.
func mergeScaling(out *benchFile, scaling string) error {
	if scaling == "" {
		return nil
	}
	perProc := map[int]map[string]float64{}
	var procs []int
	for _, part := range strings.Split(scaling, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return fmt.Errorf("scaling: %q is not procs=path", part)
		}
		p, err := strconv.Atoi(part[:eq])
		if err != nil || p < 1 {
			return fmt.Errorf("scaling: bad processor count in %q", part)
		}
		results, err := parseBenchFile(part[eq+1:], p)
		if err != nil {
			return fmt.Errorf("scaling: %w", err)
		}
		col := map[string]float64{}
		for _, res := range results {
			col[res.Name] = res.NsPerOp
		}
		perProc[p] = col
		procs = append(procs, p)
	}
	if len(procs) == 0 {
		return nil
	}
	sort.Ints(procs)
	// Row order follows the first (lowest-procs) run.
	var names []string
	for name := range perProc[procs[0]] {
		names = append(names, name)
	}
	sort.Strings(names)
	tbl := &scalingTable{GOMAXPROCS: procs}
	for _, name := range names {
		row := scalingRow{Name: name, NsPerOp: map[string]float64{}}
		base, haveBase := perProc[1][name]
		for _, p := range procs {
			ns, ok := perProc[p][name]
			if !ok {
				continue
			}
			key := strconv.Itoa(p)
			row.NsPerOp[key] = ns
			if haveBase && p != 1 && ns > 0 {
				if row.Speedup == nil {
					row.Speedup = map[string]float64{}
				}
				row.Speedup[key] = base / ns
			}
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	out.Scaling = tbl
	return nil
}

// parseBenchFile reads one raw `go test -bench` output file, run at
// GOMAXPROCS procs, into results.
func parseBenchFile(path string, procs int) ([]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var results []benchResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseBenchLine(line, procs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		results = append(results, res)
	}
	return results, sc.Err()
}

// mergeSnapshots loads each comma-separated metrics snapshot file, validates
// it, and stores it in the bench file keyed by base name (extension
// stripped).
func mergeSnapshots(out *benchFile, merge string) error {
	if merge == "" {
		return nil
	}
	out.Snapshots = map[string]*obs.Snapshot{}
	for _, path := range strings.Split(merge, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("merge-metrics: %w", err)
		}
		snap, err := obs.ParseSnapshot(data)
		if err != nil {
			return fmt.Errorf("merge-metrics %s: %w", path, err)
		}
		key := filepath.Base(path)
		key = strings.TrimSuffix(key, filepath.Ext(key))
		out.Snapshots[key] = snap
	}
	return nil
}

// parseBenchLine parses one result line of a run at GOMAXPROCS procs:
//
//	BenchmarkSolveCSC/cscring-2/w4-8   100   123456 ns/op   12.00 states
//
// Only a trailing "-procs" is stripped, and nothing at procs 1, where go
// test appends no suffix: a name such as "toggles-16" keeps its own number.
func parseBenchLine(line string, procs int) (benchResult, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchResult{}, fmt.Errorf("malformed line %q", line)
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if procs > 1 {
		name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, fmt.Errorf("iterations in %q: %w", line, err)
	}
	res := benchResult{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, fmt.Errorf("value in %q: %w", line, err)
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.NsPerOp = val
			continue
		}
		if res.Metrics == nil {
			res.Metrics = map[string]float64{}
		}
		res.Metrics[unit] = val
	}
	return res, nil
}
