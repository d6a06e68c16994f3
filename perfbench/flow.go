package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median. A set-up takes about a millisecond, so it takes this many to
	// span enough time that host noise averages out.
	setupReps = 1001
	// A spec whose call takes under repMS is run repeatedly within a pass,
	// up to maxReps calls, so it gets enough samples for a steady median.
	repMS   = 500.0
	maxReps = 200
)

// runFlow runs a flow workload: repeated passes of core.Synthesize over a
// fixed spec list at the default worker count. Traced runs alternate an
// untraced pass with a layer-by-layer replay of the same flow.
func runFlow(cfg config, rep *report, list func() ([]spec, error)) error {
	var specs []spec
	var gs []*stg.STG
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if specs, err = list(); err != nil {
			return err
		}
		gs = gs[:0]
		for _, s := range specs {
			g, err := parse(s.text)
			if err != nil {
				return fmt.Errorf("parse %s: %w", s.name, err)
			}
			gs = append(gs, g)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fb := &flowBench{cfg: cfg, rep: rep, specs: specs, gs: gs, ref: map[string]string{}}
	if cfg.traced {
		return fb.traced()
	}
	rep.set("setup_s", "s", median(setups))
	fb.rss = sampleRSS()
	defer fb.rss.close()
	return fb.untraced()
}

type flowBench struct {
	cfg   config
	rep   *report
	specs []spec
	gs    []*stg.STG
	ref   map[string]string // spec name → equations of its first flow

	passes []float64   // seconds per untraced pass: its calls' summed time
	calls  [][]float64 // ms per core.Synthesize call, per spec
	lits   int         // netlist literals summed over one pass
	rss    *rssPeaks   // untraced runs only
	peaks  []float64   // MB, peak resident set size per pass
}

// pass runs core.Synthesize on every spec and checks each result. Small
// specs run repeatedly (see repMS); only the first call of each spec counts
// toward the pass time.
func (b *flowBench) pass() {
	if b.calls == nil {
		b.calls = make([][]float64, len(b.gs))
	}
	var total time.Duration
	lits := 0
	if b.rss != nil {
		b.rss.take()
	}
	for i, g := range b.gs {
		reps := 1
		if n := len(b.calls[i]); n > 0 {
			reps = min(max(int(repMS/b.calls[i][n-1]), 1), maxReps)
		}
		for r := 0; r < reps; r++ {
			// Each call starts from a collected heap with its free memory
			// returned, rather than paying for the previous spec's garbage.
			debug.FreeOSMemory()
			t := time.Now()
			res, err := core.Synthesize(g, core.Options{Workers: b.cfg.workers})
			d := time.Since(t)
			b.calls[i] = append(b.calls[i], ms(d))
			if err == nil {
				err = b.check(i, res.Netlist, res.SG, res.Verification)
			}
			b.rep.op(err)
			if r == 0 {
				total += d
				if err == nil {
					lits += res.Netlist.LiteralCount()
				}
			}
		}
	}
	b.passes = append(b.passes, total.Seconds())
	b.lits = lits
	if b.rss != nil {
		b.peaks = append(b.peaks, b.rss.take())
	}
}

// check is the flow oracle: a verified netlist whose equations match the
// spec's first flow and, for the VME read cycle, the paper's equations.
func (b *flowBench) check(i int, nl *logic.Netlist, sg *ts.SG, v *sim.Result) error {
	name := b.specs[i].name
	if v == nil || !v.OK() {
		return fmt.Errorf("%s: implementation fails verification", name)
	}
	eq := nl.Equations()
	if ref, ok := b.ref[name]; !ok {
		b.ref[name] = eq
	} else if eq != ref {
		return fmt.Errorf("%s: equations changed between flows:\n%s\nvs\n%s", name, ref, eq)
	}
	if name == "vme-read" {
		return paperCheck(nl, sg)
	}
	return nil
}

// paperCheck compares the VME read netlist with the paper's equations
// (vme.PaperReadEquations) on every input vector over the final state
// graph's signals. The inserted state signal's polarity is the encoder's
// choice, so csc0 may be the complement of the paper's; the check passes
// when the equations agree everywhere under one of the two polarities.
func paperCheck(nl *logic.Netlist, sg *ts.SG) error {
	var err error
	for _, inverted := range []bool{false, true} {
		if err = paperCheckPolarity(nl, sg, inverted); err == nil {
			return nil
		}
	}
	return err
}

func paperCheckPolarity(nl *logic.Netlist, sg *ts.SG, inverted bool) error {
	n := len(sg.Signals)
	for v := uint64(0); v < 1<<n; v++ {
		env := map[string]bool{}
		var code uint64
		for i, s := range sg.Signals {
			idx := nl.SignalIndex(s.Name)
			if idx < 0 {
				return fmt.Errorf("vme-read: no signal %s in the netlist", s.Name)
			}
			bit := v&(1<<i) != 0
			if bit {
				code |= 1 << idx
			}
			env[s.Name] = bit != (inverted && s.Name == "csc0")
		}
		for _, eq := range vme.PaperReadEquations() {
			idx := nl.SignalIndex(eq.Signal)
			if idx < 0 {
				return fmt.Errorf("vme-read: no signal %s in the netlist", eq.Signal)
			}
			next := nl.Next(code, idx) != (inverted && eq.Signal == "csc0")
			if next != eq.Eval(env) {
				return fmt.Errorf("vme-read: %s deviates from the paper at vector %0*b", eq.Signal, n, v)
			}
		}
	}
	return nil
}

// loopFor runs step at least once, then again while one more step as long
// as the last would end less than half a step past d, so a run of long
// steps ends close to its measurement time.
func loopFor(d time.Duration, step func()) {
	deadline := time.Now().Add(d)
	for {
		start := time.Now()
		step()
		if time.Now().Add(time.Since(start) / 2).After(deadline) {
			return
		}
	}
}

func (b *flowBench) untraced() error {
	loopFor(b.cfg.seconds, b.pass)
	var perSpec []float64
	for i, c := range b.calls {
		perSpec = append(perSpec, median(c))
		fmt.Fprintf(os.Stderr, "%-16s %4d calls, median %10.3f ms\n", b.specs[i].name, len(c), median(c))
	}
	// A flow caller's request is one spec's flow; there is no result cache,
	// so every request is a miss. Request latencies are per-spec medians.
	flowS := median(b.passes)
	b.rep.set("flow_s", "s", flowS)
	b.rep.set("flow_geomean_ms", "ms", geomean(perSpec))
	b.rep.set("netlist_literals", "count", float64(b.lits))
	b.rep.set("req_p50_ms", "ms", median(perSpec))
	b.rep.set("req_p99_ms", "ms", quantile(perSpec, 0.99))
	b.rep.set("miss_p50_ms", "ms", median(perSpec))
	b.rep.set("req_per_s", "1/s", float64(len(b.gs))/flowS)
	// A pass's peak swings with where collections fall, between two levels;
	// the mean of a few passes is steadier than their median.
	b.rep.set("peak_rss_mb", "MB", mean(b.peaks))
	return nil
}

func (b *flowBench) traced() error {
	tr := newTracer()
	parseMS, hashMS := timeFrontEnd(tr, b.specs)
	var lp []layerPass
	loopFor(b.cfg.seconds, func() {
		b.pass()
		p, nls := replayPass(tr, b.gs, b.cfg.workers)
		for i, r := range nls {
			err := r.err
			if err == nil {
				err = b.check(i, r.nl, r.sg, r.v)
			}
			b.rep.op(err)
		}
		lp = append(lp, p)
	})
	var calls []float64
	for _, c := range b.calls {
		calls = append(calls, median(c))
	}
	layerMetrics(b.rep, lp, median(b.passes))
	b.rep.set("stg.parse_ms", "ms", median(parseMS))
	b.rep.set("stg.canonical_hash_ms", "ms", median(hashMS))
	b.rep.set("prop.check_ms", "ms", 0)
	b.rep.set("core.flow_ms", "ms", median(calls))
	for name, unit := range serveUnits {
		b.rep.set(name, unit, 0) // no daemon runs on a flow workload
	}
	return tr.write(b.cfg.workload, b.cfg.seed, b.rep.Metrics["trace_overhead_ratio"].Value)
}

// timeFrontEnd times stg.ParseG and CanonicalHash on each spec text, the
// front end the daemon runs per request. It returns per-call milliseconds.
func timeFrontEnd(tr *tracer, specs []spec) (parseMS, hashMS []float64) {
	for rep := 0; rep < setupReps; rep++ {
		for _, s := range specs {
			root := tr.begin("front-end", -1)
			id := tr.begin("stg.parse", root)
			t := time.Now()
			g, err := parse(s.text)
			parseMS = append(parseMS, ms(time.Since(t)))
			tr.end(id)
			if err == nil {
				id = tr.begin("stg.canonical_hash", root)
				t = time.Now()
				_, err = g.CanonicalHash()
				hashMS = append(hashMS, ms(time.Since(t)))
				tr.end(id)
			}
			tr.end(root)
		}
	}
	return parseMS, hashMS
}

// layerPass is what one traced replay pass over a spec list measured.
type layerPass struct {
	self     map[string]time.Duration // self time per layer span name
	total    time.Duration            // summed "flow" root span time
	counters map[string]int64         // the engines' obs counters
	states   int                      // reach.BuildSG states
	composed int                      // sim.Verify composed states
}

type replayed struct {
	nl  *logic.Netlist
	sg  *ts.SG
	v   *sim.Result
	err error
}

// replayPass runs the flow layer by layer on every spec, with one span per
// public call and the engines' Obs hooks on a fresh registry.
func replayPass(tr *tracer, gs []*stg.STG, workers int) (layerPass, []replayed) {
	reg := obs.NewRegistry()
	root := reg.Root("perfbench:replay")
	first := tr.len()
	p := layerPass{}
	out := make([]replayed, len(gs))
	for i, g := range gs {
		debug.FreeOSMemory()
		id := tr.begin("flow", -1)
		out[i] = replay(tr, id, root, g, workers, &p)
		tr.end(id)
	}
	root.End()
	g := tr.groups(first)["flow"]
	p.self, p.total = g.self, g.total
	p.counters = reg.Snapshot().Counters
	return p, out
}

// replay mirrors core.Synthesize with default options, one call per layer.
func replay(tr *tracer, parent int, o *obs.Span, g *stg.STG, workers int, p *layerPass) replayed {
	call := func(name string, fn func()) {
		id := tr.begin(name, parent)
		fn()
		tr.end(id)
	}
	var r replayed
	if r.err = g.Validate(); r.err != nil {
		return r
	}
	var sg *ts.SG
	call("reach.build_sg", func() { sg, r.err = reach.BuildSG(g, reach.Options{Obs: o}) })
	if r.err != nil {
		return r
	}
	p.states += sg.NumStates()
	call("ts.contract_dummies", func() { sg, r.err = ts.ContractDummies(sg) })
	if r.err != nil {
		return r
	}
	var props ts.Implementability
	call("ts.check_implementability", func() { props = sg.CheckImplementability() })
	if !props.Persistent || !props.DeadlockFree {
		r.err = fmt.Errorf("%s: not implementable: %v", g.Name(), props)
		return r
	}
	var sols []*encoding.Solution
	call("encoding.solutions", func() {
		sols, r.err = encoding.SolutionsOpts(g, 0, 5, encoding.Options{Workers: workers, Obs: o})
	})
	if r.err != nil {
		return r
	}
	var spec *stg.STG
	call("logic.synthesize", func() {
		r.err = errors.New("no encoding solution")
		for _, sol := range sols {
			r.nl, r.err = logic.SynthesizeOpts(sol.SG, logic.ComplexGate, logic.Options{Workers: workers, Obs: o})
			if r.err == nil {
				spec, r.sg = sol.STG, sol.SG
				break
			}
		}
	})
	if r.err != nil {
		return r
	}
	call("sim.verify", func() { r.v, r.err = sim.Verify(r.nl, spec, sim.Options{}) })
	if r.err == nil {
		p.composed += r.v.States
	}
	return r
}

// layerMetrics reports the per-layer metrics of the flow layers: the median
// over traced passes of each layer's summed self time per pass, the obs
// counters, and the tracing overhead against the untraced pass time.
func layerMetrics(rep *report, passes []layerPass, untracedS float64) {
	per := func(f func(p layerPass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	selfMS := func(names ...string) float64 {
		return per(func(p layerPass) float64 {
			var d time.Duration
			for _, n := range names {
				d += p.self[n]
			}
			return ms(d)
		})
	}
	count := func(name string) float64 {
		return per(func(p layerPass) float64 { return float64(p.counters[name]) })
	}
	rep.set("encoding.solutions_ms", "ms", selfMS("encoding.solutions"))
	rep.set("encoding.candidates", "count", count("encoding.candidates"))
	rep.set("encoding.memo_hit_ratio", "ratio", per(func(p layerPass) float64 {
		h := float64(p.counters["encoding.memo_hits"])
		return ratio(h, h+float64(p.counters["encoding.memo_misses"]))
	}))
	rep.set("reach.build_sg_ms", "ms", selfMS("reach.build_sg"))
	rep.set("reach.states", "count", per(func(p layerPass) float64 { return float64(p.states) }))
	rep.set("reach.states_per_s", "1/s", per(func(p layerPass) float64 {
		return ratio(float64(p.states), p.self["reach.build_sg"].Seconds())
	}))
	rep.set("logic.synthesize_ms", "ms", selfMS("logic.synthesize"))
	rep.set("logic.minimizer_calls", "count", count("logic.minimizer_calls"))
	rep.set("logic.cover_literals", "count", count("logic.cover_literals"))
	rep.set("sim.verify_ms", "ms", selfMS("sim.verify"))
	rep.set("sim.composed_states", "count", per(func(p layerPass) float64 { return float64(p.composed) }))
	rep.set("ts.check_ms", "ms", selfMS("ts.contract_dummies", "ts.check_implementability"))
	rep.set("unattributed_ratio", "ratio", per(func(p layerPass) float64 {
		return ratio(float64(p.self["unattributed"]), float64(p.total))
	}))
	rep.set("trace_overhead_ratio", "ratio", ratio(per(func(p layerPass) float64 { return p.total.Seconds() }), untracedS))
}
