package faultinject

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/prop"
)

// TestPropInjection drives cancellation and budget limits into the
// property checker's sites — the state-space construction ("reach.*" for
// the explicit engine, "prop.reach" for the symbolic one), the CTL/value
// fixpoints ("prop.fix") and the explicit per-state sweeps
// ("prop.explicit"). A fired plan must surface the typed error together
// with a partial report whose unfinished verdicts are StatusUnknown, and
// must not hang, panic or leak goroutines.
func TestPropInjection(t *testing.T) {
	g := gen.MullerPipeline(4)
	props := prop.Standard()
	cases := []struct {
		engine  prop.Engine
		workers int
		plan    Plan
	}{
		{prop.EngineExplicit, 1, Plan{Mode: Cancel, N: 3, Site: "reach.explore"}},
		{prop.EngineExplicit, 1, Plan{Mode: Limit, N: 5, Site: "reach.explore"}},
		{prop.EngineExplicit, 1, Plan{Mode: Cancel, N: 2, Site: "prop.explicit"}},
		{prop.EngineExplicit, 1, Plan{Mode: Limit, N: 40, Site: "prop.explicit"}},
		{prop.EngineExplicit, 1, Plan{Mode: Cancel, N: 1, Site: "prop.fix"}},
		{prop.EngineExplicit, 1, Plan{Mode: Limit, N: 3, Site: "prop.fix"}},
		{prop.EngineSymbolic, 0, Plan{Mode: Cancel, N: 2, Site: "prop.reach"}},
		{prop.EngineSymbolic, 0, Plan{Mode: Limit, N: 4, Site: "prop.reach"}},
		{prop.EngineSymbolic, 0, Plan{Mode: Cancel, N: 3, Site: "prop.fix"}},
		{prop.EngineSymbolic, 0, Plan{Mode: Limit, N: 9, Site: "prop.fix"}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/w%d/%v", tc.engine, tc.workers, tc.plan), func(t *testing.T) {
			done := leakCheck(t)
			in, b := New(tc.plan)
			defer in.Release()
			rep, err := prop.Check(g, props, prop.Options{
				Engine: tc.engine, Workers: tc.workers, Budget: b,
			})
			wantTyped(t, tc.plan, in, err)
			if in.Fired() {
				if rep == nil {
					t.Fatalf("%v: no partial report alongside the typed error", tc.plan)
				}
				unknown := 0
				for _, v := range rep.Verdicts {
					if v.Status == prop.StatusUnknown {
						unknown++
					}
				}
				if unknown == 0 {
					t.Fatalf("%v: budget tripped but every verdict is decided", tc.plan)
				}
			} else {
				if err != nil || rep == nil {
					t.Fatalf("unfired plan must succeed, got %v", err)
				}
				for _, v := range rep.Verdicts {
					if v.Status == prop.StatusUnknown {
						t.Fatalf("unfired plan left %s unknown", v.Property.Name)
					}
				}
			}
			done()
		})
	}
}

// TestPropNodeCeiling trips the real BDD node ceiling (not an injected
// hook) mid-fixpoint and expects the typed ErrLimit with an all-unknown
// partial report.
func TestPropNodeCeiling(t *testing.T) {
	done := leakCheck(t)
	defer done()
	g := gen.MullerPipeline(6)
	b := &budget.Budget{Ctx: context.Background(), MaxNodes: 128}
	rep, err := prop.Check(g, prop.Standard(), prop.Options{Engine: prop.EngineSymbolic, Budget: b})
	var le budget.ErrLimit
	if !errors.As(err, &le) {
		t.Fatalf("want ErrLimit from the node ceiling, got %v", err)
	}
	if rep == nil {
		t.Fatal("no partial report alongside ErrLimit")
	}
	for _, v := range rep.Verdicts {
		if v.Status != prop.StatusUnknown {
			t.Errorf("%s decided as %v under a ceiling hit during reachability", v.Property.Name, v.Status)
		}
	}
}
