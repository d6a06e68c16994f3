package sim_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/boolmin"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/ts"
)

// Mutation robustness: random single-literal mutations of a verified circuit
// must never crash the verifier, and flipping a literal's polarity must
// always be detected (the mutated function differs on some reachable code,
// so the circuit misbehaves).
func TestMutationPolarityAlwaysCaught(t *testing.T) {
	spec := timedSpec(t)
	sg, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := logic.Synthesize(sg, logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	nls, gates := polarityMutants(golden, 7, 40)
	for trial, nl := range nls {
		gi := gates[trial]
		res, err := sim.Verify(nl, spec, sim.Options{MaxViolations: 3})
		if err != nil {
			// Structural rejection (e.g. no stable initial vector) is a
			// legitimate detection too.
			continue
		}
		if res.OK() {
			// A mutation can only go unnoticed if the mutated cover equals
			// the original on every reachable code — check that is the case.
			for s := range sg.States {
				code := uint64(sg.States[s].Code)
				if nl.Next(code, nl.Gates[gi].Output) != golden.Next(code, golden.Gates[gi].Output) {
					t.Fatalf("trial %d: functional mutation escaped verification", trial)
				}
			}
		}
	}
	if len(nls) < 20 {
		t.Fatalf("only %d mutations exercised", len(nls))
	}
}

// polarityMutants makes up to trials copies of golden, each with the
// polarity of one random literal flipped, and returns them with the index
// of the mutated gate.
func polarityMutants(golden *logic.Netlist, seed int64, trials int) ([]*logic.Netlist, []int) {
	rng := rand.New(rand.NewSource(seed))
	var nls []*logic.Netlist
	var gates []int
	for trial := 0; trial < trials; trial++ {
		nl := cloneForMutation(golden)
		gi := rng.Intn(len(nl.Gates))
		g := &nl.Gates[gi]
		if len(g.F.Cubes) == 0 {
			continue
		}
		ci := rng.Intn(len(g.F.Cubes))
		cube := g.F.Cubes[ci]
		lits := supportOf(cube)
		if len(lits) == 0 {
			continue
		}
		v := lits[rng.Intn(len(lits))]
		g.F.Cubes[ci] = boolmin.Cube{Val: cube.Val ^ (1 << uint(v)), Care: cube.Care}
		nls = append(nls, nl)
		gates = append(gates, gi)
	}
	return nls, gates
}

func cloneForMutation(nl *logic.Netlist) *logic.Netlist {
	c := &logic.Netlist{Name: nl.Name}
	for i, s := range nl.Signals {
		c.AddSignal(s, nl.Kinds[i])
	}
	for _, g := range nl.Gates {
		c.Gates = append(c.Gates, logic.Gate{
			Kind: g.Kind, Output: g.Output,
			F: g.F.Clone(), Set: g.Set.Clone(), Reset: g.Reset.Clone(),
		})
	}
	return c
}

func supportOf(c boolmin.Cube) []int {
	var out []int
	for v := 0; v < 64; v++ {
		if c.Care&(1<<uint(v)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// Dropping a whole gate cube (stuck-at fault on part of the network) is
// caught as deadlock or conformance failure.
func TestMutationDroppedCube(t *testing.T) {
	spec := timedSpec(t)
	nl := timedNetlist(t, spec)
	for gi := range nl.Gates {
		if len(nl.Gates[gi].F.Cubes) < 2 {
			continue
		}
		mut := cloneForMutation(nl)
		mut.Gates[gi].F.Cubes = mut.Gates[gi].F.Cubes[1:]
		res, err := sim.Verify(mut, spec, sim.Options{MaxViolations: 3})
		if err != nil {
			continue // structural detection
		}
		if res.OK() {
			t.Fatalf("dropping a cube of %s escaped verification",
				mut.Signals[mut.Gates[gi].Output])
		}
	}
}

// TestVerifySGMatchesVerify: verifying against a state graph the caller
// already holds gives the same result and error as Verify, which builds it,
// on the mutation corpus (passing and failing netlists), on netlists with an
// implementation-only wire, and on a spec with dummy transitions, whose
// contracted graph serves as well as the raw one.
func TestVerifySGMatchesVerify(t *testing.T) {
	type tc struct {
		spec *stg.STG
		nl   *logic.Netlist
	}
	spec := timedSpec(t)
	golden := timedNetlist(t, spec)
	var cases []tc
	nls, _ := polarityMutants(golden, 7, 40)
	// An implementation-only buffer wire: the initial vector must settle it.
	buf := cloneForMutation(golden)
	w := buf.AddSignal("w", stg.Internal)
	n := len(buf.Signals)
	for gi := range buf.Gates {
		buf.Gates[gi].F.N = n
	}
	in := golden.Gates[0].Output
	buf.Gates = append(buf.Gates, logic.Gate{Kind: logic.Comb, Output: w,
		F: boolmin.Cover{N: n, Cubes: []boolmin.Cube{boolmin.FullCube().WithLiteral(in, true)}}})
	nls = append(nls, golden, buf)
	for gi := range golden.Gates {
		if len(golden.Gates[gi].F.Cubes) >= 2 {
			mut := cloneForMutation(golden)
			mut.Gates[gi].F.Cubes = mut.Gates[gi].F.Cubes[1:]
			nls = append(nls, mut)
		}
	}
	for _, nl := range nls {
		cases = append(cases, tc{spec, nl})
	}
	f, err := os.Open(filepath.Join("..", "..", "testdata", "dummy-hs.g"))
	if err != nil {
		t.Fatal(err)
	}
	dummy, err := stg.ParseG(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	dsg, err := reach.BuildSG(dummy, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dcsg, err := ts.ContractDummies(dsg)
	if err != nil {
		t.Fatal(err)
	}
	dnl, err := logic.Synthesize(dcsg, logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	dnls, _ := polarityMutants(dnl, 3, 10)
	for _, nl := range append(dnls, dnl) {
		cases = append(cases, tc{dummy, nl})
	}

	failing := 0
	for i, c := range cases {
		sg, err := reach.BuildSG(c.spec, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		csg, err := ts.ContractDummies(sg)
		if err != nil {
			t.Fatal(err)
		}
		opts := sim.Options{MaxViolations: 3}
		want, wantErr := sim.Verify(c.nl, c.spec, opts)
		for _, g := range []*ts.SG{sg, csg} {
			got, gotErr := sim.VerifySG(c.nl, c.spec, g, opts)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("case %d: VerifySG error %v, Verify error %v", i, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d: VerifySG %+v, Verify %+v", i, got, want)
			}
		}
		if wantErr != nil || !want.OK() {
			failing++
		}
	}
	if failing < 10 {
		t.Fatalf("only %d failing cases in the corpus", failing)
	}
}
