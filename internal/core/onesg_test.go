package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

func parseSpec(t *testing.T, path string) *stg.STG {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := stg.ParseG(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

func corpusSpecs(t *testing.T) []*stg.STG {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	var specs []*stg.STG
	for _, path := range files {
		specs = append(specs, parseSpec(t, path))
	}
	return append(specs, vme.ReadSTG(), vme.ReadWriteSTG(),
		gen.MullerPipeline(3), gen.MullerPipeline(5), gen.CSCRing(2))
}

// referenceFlow is the flow with every layer building its own state graph:
// the encoding search (which returns the spec itself when CSC holds), logic
// synthesis over the ranked solutions, and verification from the spec.
func referenceFlow(g *stg.STG, style logic.Style) (*ts.SG, string, string, *sim.Result, error) {
	sols, err := encoding.SolutionsOpts(g, 0, 5, encoding.Options{})
	if err != nil {
		return nil, "", "", nil, err
	}
	for _, sol := range sols {
		nl, err := logic.SynthesizeOpts(sol.SG, style, logic.Options{})
		if err != nil {
			continue
		}
		res, err := sim.Verify(nl, sol.STG, sim.Options{})
		return sol.SG, sol.Description, nl.Equations(), res, err
	}
	return nil, "", "", nil, fmt.Errorf("no solution synthesizes")
}

// TestSynthesizeMatchesReferencePath: building the spec's state graph once
// per flow, skipping the search when CSC holds and verifying from the held
// graph gives the same graph, encoding, equations and verification result
// as the reference path.
func TestSynthesizeMatchesReferencePath(t *testing.T) {
	compared := 0
	for _, g := range corpusSpecs(t) {
		sg, err := reach.BuildSG(g, reach.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if imp := sg.CheckImplementability(); !imp.Persistent || !imp.DeadlockFree {
			continue // rejected by core before encoding; the reference has no such check
		}
		for _, style := range []logic.Style{logic.ComplexGate, logic.GeneralizedC} {
			rep, err := core.Synthesize(g, core.Options{Style: style, Workers: 2})
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), style, err)
			}
			refSG, refCSC, refEqs, refRes, err := referenceFlow(g, style)
			if err != nil {
				t.Fatalf("%s/%v: reference: %v", g.Name(), style, err)
			}
			if rep.SG.Dump() != refSG.Dump() {
				t.Fatalf("%s/%v: state graphs differ", g.Name(), style)
			}
			if rep.CSC != refCSC {
				t.Fatalf("%s/%v: CSC %q, reference %q", g.Name(), style, rep.CSC, refCSC)
			}
			if rep.Equations() != refEqs {
				t.Fatalf("%s/%v: equations\n%s\nreference\n%s", g.Name(), style, rep.Equations(), refEqs)
			}
			if rep.Verification.States != refRes.States ||
				!reflect.DeepEqual(rep.Verification.Violations, refRes.Violations) {
				t.Fatalf("%s/%v: verification %+v, reference %+v", g.Name(), style, rep.Verification, refRes)
			}
			compared++
		}
	}
	if compared < 16 {
		t.Fatalf("only %d flows compared", compared)
	}
}

// labelChecks counts the reach.label budget checks made during run; a hooked
// budget checks once per state labeled, so the count measures state-graph
// builds.
func labelChecks(run func(*budget.Budget) error) (int64, error) {
	var n atomic.Int64
	b := &budget.Budget{Hook: func(site string) error {
		if site == "reach.label" {
			n.Add(1)
		}
		return nil
	}}
	err := run(b)
	return n.Load(), err
}

// TestOneSGBuildPerFlow: on a CSC-free spec the flow builds the spec's state
// graph once — no rebuild for the encoding search or for verification.
func TestOneSGBuildPerFlow(t *testing.T) {
	muller4 := parseSpec(t, filepath.Join("..", "..", "testdata", "muller4.g"))
	for _, g := range []*stg.STG{muller4, gen.MullerPipeline(5)} {
		one, err := labelChecks(func(b *budget.Budget) error {
			_, err := reach.BuildSG(g, reach.Options{Budget: b})
			return err
		})
		if err != nil || one == 0 {
			t.Fatalf("%s: one build: %d checks, %v", g.Name(), one, err)
		}
		flow, err := labelChecks(func(b *budget.Budget) error {
			rep, err := core.Synthesize(g, core.Options{Budget: b})
			if err == nil && rep.CSC != "" {
				err = fmt.Errorf("spec needed encoding: %s", rep.CSC)
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if flow != one {
			t.Fatalf("%s: flow ran %d reach.label checks, one build runs %d", g.Name(), flow, one)
		}
	}
}
