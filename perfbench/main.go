// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the paper's flow (STG → state graph → CSC encoding → logic →
// verification) or of the synthesis daemon from a single process, checks
// every output against an oracle, and prints one JSON result line. Run it
// from the repository root, which run.sh builds it for:
//
//	bash perfbench/run.sh --workload csc-search --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
// traced pass times each layer's public calls and the result holds the
// per-layer metrics. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's operation counts and metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// op records one attempted operation and whether its outputs checked out.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(os.Stderr, "failed: %v\n", err)
	}
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workers  int
}

func main() {
	var cfg config
	var secs float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "csc-search, concurrent-pipelines or daemon-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.traced = trace == 1
	cfg.workers = runtime.GOMAXPROCS(0)

	rep := &report{Metrics: map[string]metric{}}
	var err error
	switch cfg.workload {
	case "csc-search":
		err = runFlow(cfg, rep, cscSpecs)
	case "concurrent-pipelines":
		err = runFlow(cfg, rep, pipelineSpecs)
	case "daemon-mixed":
		err = runDaemon(cfg, rep)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		os.Exit(1)
	}
	if cfg.traced {
		rep.set("failed_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
			os.Exit(1)
		}
	}
	rep.Correct = rep.Failed == 0
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
