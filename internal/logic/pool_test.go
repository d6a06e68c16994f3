package logic_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/encoding"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/ts"
	"repro/internal/vme"
)

var logicWorkerCounts = []int{0, 1, 2, 4, 8}

// solvedSG runs the CSC solver on g and returns the implementable SG.
func solvedSG(t testing.TB, k int) *ts.SG {
	t.Helper()
	sol, err := encoding.SolveCSC(gen.CSCRing(k), k)
	if err != nil {
		t.Fatal(err)
	}
	return sol.SG
}

func parityModels(t testing.TB) map[string]*ts.SG {
	muller, err := reach.BuildSG(gen.MullerPipeline(4), reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*ts.SG{
		"vme-csc":   cscSG(t),
		"muller-4":  muller,
		"cscring-2": solvedSG(t, 2),
	}
}

// TestDeriveAllOptsMatchesSequential: the shared-extraction deriver returns
// functions — minterm lists, covers, everything — bit-identical to the
// per-signal reference at every worker count, the pool of one included.
func TestDeriveAllOptsMatchesSequential(t *testing.T) {
	for name, sg := range parityModels(t) {
		ref, err := logic.DeriveAllRef(sg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range logicWorkerCounts {
			got, err := logic.DeriveAllOpts(sg, logic.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, w, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s w=%d: derived functions differ from the reference", name, w)
			}
		}
	}
}

// TestSynthesizeOptsMatchesSequential pins netlist identity across worker
// counts for all three architectures.
func TestSynthesizeOptsMatchesSequential(t *testing.T) {
	styles := []logic.Style{logic.ComplexGate, logic.GeneralizedC, logic.StandardC}
	for name, sg := range parityModels(t) {
		for _, style := range styles {
			ref, err := logic.SynthesizeRef(sg, style)
			if err != nil {
				t.Fatalf("%s %v: %v", name, style, err)
			}
			for _, w := range logicWorkerCounts {
				got, err := logic.SynthesizeOpts(sg, style, logic.Options{Workers: w})
				if err != nil {
					t.Fatalf("%s %v w=%d: %v", name, style, w, err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s %v w=%d: netlist differs from the reference", name, style, w)
				}
			}
		}
	}
}

// TestDeriveAllOptsCSCError: on a conflicted SG the shared-extraction
// deriver reproduces the per-signal reference's exact witness error.
func TestDeriveAllOptsCSCError(t *testing.T) {
	sg, err := reach.BuildSG(vme.ReadSTG(), reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, refErr := logic.DeriveAllRef(sg)
	var ref *logic.CSCError
	if !errors.As(refErr, &ref) {
		t.Fatalf("reference: want *CSCError, got %v", refErr)
	}
	for _, w := range logicWorkerCounts {
		_, gotErr := logic.DeriveAllOpts(sg, logic.Options{Workers: w})
		var got *logic.CSCError
		if !errors.As(gotErr, &got) {
			t.Fatalf("w=%d: want *CSCError, got %v", w, gotErr)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("w=%d: error %v, want %v", w, got, ref)
		}
		if _, err := logic.SynthesizeOpts(sg, logic.ComplexGate, logic.Options{Workers: w}); err == nil {
			t.Fatalf("w=%d: synthesis of a conflicted SG must fail", w)
		}
	}
}
