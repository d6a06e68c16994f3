package ts_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

// checkCodingPass compares the one-pass USC/CSC decision of HasUSC, HasCSC
// and CheckImplementability with the conflict listings.
func checkCodingPass(t *testing.T, name string, sg *ts.SG) {
	t.Helper()
	usc, csc := len(sg.USCConflicts()) == 0, len(sg.CSCConflicts()) == 0
	imp := sg.CheckImplementability()
	if sg.HasUSC() != usc || imp.USC != usc {
		t.Fatalf("%s: HasUSC=%v Implementability.USC=%v, conflict list says %v",
			name, sg.HasUSC(), imp.USC, usc)
	}
	if sg.HasCSC() != csc || imp.CSC != csc {
		t.Fatalf("%s: HasCSC=%v Implementability.CSC=%v, conflict list says %v",
			name, sg.HasCSC(), imp.CSC, csc)
	}
}

// buildSGs returns the raw and dummy-contracted state graphs of g.
func buildSGs(t *testing.T, g *stg.STG) []*ts.SG {
	t.Helper()
	sg, err := reach.BuildSG(g, reach.Options{})
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	csg, err := ts.ContractDummies(sg)
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return []*ts.SG{sg, csg}
}

func TestCodingPassMatchesConflictLists(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	var specs []*stg.STG
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stg.ParseG(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		specs = append(specs, g)
	}
	for n := 2; n <= 5; n++ {
		specs = append(specs, gen.MullerPipeline(n))
	}
	specs = append(specs, gen.CSCRing(2), gen.CSCRing(3), vme.ReadSTG(), vme.ReadWriteSTG())
	violating := 0
	for _, g := range specs {
		for _, sg := range buildSGs(t, g) {
			checkCodingPass(t, sg.Name, sg)
			if !sg.HasCSC() {
				violating++
			}
		}
	}
	// vme-read, vme-read-write and the two rings violate CSC in raw and
	// contracted form (the .g copies of the VME specs add more).
	if violating < 8 {
		t.Fatalf("only %d CSC-violating graphs exercised", violating)
	}
}

// TestCodingPassRandomSGs runs the differential on random graphs whose
// codes are drawn from a small range, so that most states share a code and
// both verdicts occur.
func TestCodingPassRandomSGs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kinds := []stg.Kind{stg.Input, stg.Output, stg.Internal, stg.Dummy}
	seen := map[[2]bool]int{}
	for trial := 0; trial < 500; trial++ {
		nSig := 1 + rng.Intn(6)
		sg := &ts.SG{Name: fmt.Sprintf("random-%d", trial)}
		for i := 0; i < nSig; i++ {
			sg.Signals = append(sg.Signals, stg.Signal{
				Name: fmt.Sprintf("s%d", i), Kind: kinds[rng.Intn(len(kinds))],
			})
		}
		nStates := 1 + rng.Intn(12)
		codes := 1 + rng.Intn(nStates)
		sg.States = make([]ts.State, nStates)
		sg.Out = make([][]ts.Arc, nStates)
		for s := range sg.States {
			sg.States[s].Code = ts.Code(rng.Intn(codes))
			for a := rng.Intn(4); a > 0; a-- {
				sig := rng.Intn(nSig+1) - 1 // -1 is a dummy event
				ev := ts.Event{Sig: sig, Dir: stg.Rise, Name: "e"}
				if rng.Intn(2) == 0 {
					ev.Dir = stg.Fall
				}
				sg.Out[s] = append(sg.Out[s], ts.Arc{Event: ev, To: rng.Intn(nStates)})
			}
		}
		checkCodingPass(t, sg.Name, sg)
		seen[[2]bool{sg.HasUSC(), sg.HasCSC()}]++
	}
	for _, v := range [][2]bool{{true, true}, {false, true}, {false, false}} {
		if seen[v] == 0 {
			t.Fatalf("no random graph with USC=%v CSC=%v: %v", v[0], v[1], seen)
		}
	}
}
