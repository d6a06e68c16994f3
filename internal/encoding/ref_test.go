package encoding

import (
	"sort"

	"repro/internal/stg"
)

// evalPairsSequential is the reference evaluator the pool is checked
// against: one candidate at a time, no memo, every candidate built and
// scored. Budget cancellation is polled once per candidate, at the pool's
// abort points.
func evalPairsSequential(g *stg.STG, name string, pairs []insPair, baseConflicts int, ctx *evalCtx) ([]scored, error) {
	var all []scored
	for _, p := range pairs {
		ctx.checks.Inc()
		if err := ctx.bgt.Check("encoding.eval"); err != nil {
			return nil, err
		}
		cand, err := InsertSignalAt(g, name, p.r, p.f)
		if err != nil {
			continue
		}
		ctx.candidates.Inc()
		sg, m := evaluateCandidate(cand, baseConflicts, ctx.arenas[0])
		if !m.ok {
			continue
		}
		all = append(all, scored{
			sol: &Solution{
				STG:         cand,
				SG:          sg,
				Description: describeInsertion(g, name, p.r, p.f),
				Literals:    m.lits,
			},
			key: [3]int{m.conflicts, m.lits, p.order},
		})
	}
	return all, nil
}

// solutionsRef is SolutionsOpts on the reference evaluator.
func solutionsRef(g *stg.STG, maxSignals, limit int) ([]*Solution, error) {
	ctx := newEvalCtx(Options{})
	ctx.evalPairs = evalPairsSequential
	out, err := firstRound(g, maxSignals, limit, ctx)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Literals < out[j].Literals })
	return out, nil
}
