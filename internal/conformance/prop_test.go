package conformance

import (
	"testing"

	"repro/internal/prop"
	"repro/internal/reach"
	"repro/internal/stg"
)

func hasToggle(g *stg.STG) bool {
	for _, l := range g.Labels {
		if l.Sig >= 0 && l.Dir == stg.Toggle {
			return true
		}
	}
	return false
}

// TestPropConformance is the differential for the property layer: on every
// STG-backed corpus model the general checker's Standard() verdicts must
// match the dedicated implementability analyses, the symbolic engine must
// agree with the explicit one, and every emitted trace must replay as a genuine
// run of the token game.
func TestPropConformance(t *testing.T) {
	for _, mdl := range corpus(t) {
		if mdl.g == nil {
			continue
		}
		mdl := mdl
		t.Run(mdl.name, func(t *testing.T) {
			t.Parallel()
			sg, serr := reach.BuildSG(mdl.g, reach.Options{})
			if serr != nil {
				// Dedicated analysis rejects the model (e.g. inconsistent):
				// the property checker must reject it too, on both engines.
				for _, eng := range []prop.Engine{prop.EngineExplicit, prop.EngineSymbolic} {
					if _, err := prop.Check(mdl.g, prop.Standard(), prop.Options{Engine: eng}); err == nil {
						t.Errorf("%s accepts a model BuildSG rejects (%v)", eng, serr)
					}
				}
				return
			}
			imp := sg.CheckImplementability()
			want := map[string]bool{
				"deadlock_free": imp.DeadlockFree,
				"usc":           imp.USC,
				"csc":           imp.CSC,
				"persistent":    imp.Persistent,
			}

			check := func(rep *prop.Report) {
				t.Helper()
				for _, v := range rep.Verdicts {
					if v.Status == prop.StatusUnknown {
						t.Errorf("%s/%s: unknown verdict without a budget", rep.Engine, v.Property.Name)
						continue
					}
					if got := v.Status == prop.StatusHolds; got != want[v.Property.Name] {
						t.Errorf("%s/%s: checker says %v, dedicated analysis says %v",
							rep.Engine, v.Property.Name, v.Status, want[v.Property.Name])
					}
					if v.Status == prop.StatusViolated && v.Trace == nil {
						t.Errorf("%s/%s: violated without a counterexample", rep.Engine, v.Property.Name)
					}
					if v.Trace != nil {
						if err := prop.ReplayTrace(mdl.g, v.Trace); err != nil {
							t.Errorf("%s/%s: trace does not replay: %v", rep.Engine, v.Property.Name, err)
						}
					}
				}
			}

			first, err := prop.Check(mdl.g, prop.Standard(), prop.Options{Engine: prop.EngineExplicit})
			if err != nil {
				t.Fatalf("explicit: %v", err)
			}
			check(first)

			if mdl.unsafe || hasToggle(mdl.g) {
				return // outside the symbolic engine's 1-safe rise/fall domain
			}
			sym, err := prop.Check(mdl.g, prop.Standard(), prop.Options{Engine: prop.EngineSymbolic})
			if err != nil {
				t.Fatalf("symbolic: %v", err)
			}
			check(sym)
			for i, v := range sym.Verdicts {
				if v.Status != first.Verdicts[i].Status {
					t.Errorf("symbolic/%s: %v, explicit says %v",
						v.Property.Name, v.Status, first.Verdicts[i].Status)
				}
			}
			if sym.States.Cmp(first.States) != 0 {
				t.Errorf("state counts differ: symbolic %s, explicit %s", sym.States, first.States)
			}
		})
	}
}
