package reach

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/petri"
)

// exploreSeq is the reference explorer the arena explorer is checked
// against: a plain breadth-first token game with a fresh marking per firing
// and a fresh visited map, no scratch reuse.
func exploreSeq(n *petri.Net, opts Options) (*Graph, error) {
	g := &Graph{Net: n, Index: make(map[string]int)}
	add := func(m petri.Marking) int {
		idx := len(g.Markings)
		g.Markings = append(g.Markings, m)
		g.Out = append(g.Out, nil)
		g.Index[m.Key()] = idx
		return idx
	}
	init := n.InitialMarking()
	if opts.RequireSafe && !init.Safe() {
		return nil, fmt.Errorf("%w: initial marking %s", ErrUnsafe, init.Format(n))
	}
	add(init)
	maxStates := opts.maxStates()
	for head := 0; head < len(g.Markings); head++ {
		if opts.Budget.Hooked() || head%budget.CheckEvery == 0 {
			if err := opts.Budget.Check("reach.explore"); err != nil {
				return g, err
			}
		}
		m := g.Markings[head]
		for t := range n.Transitions {
			if !n.Enabled(m, t) {
				continue
			}
			next := n.Fire(m, t)
			if opts.RequireSafe && !next.Safe() {
				return nil, fmt.Errorf("%w: firing %s from %s", ErrUnsafe,
					n.Transitions[t].Name, m.Format(n))
			}
			idx, ok := g.Index[next.Key()]
			if !ok {
				if len(g.Markings) >= maxStates {
					return g, budget.LimitStates(maxStates, len(g.Markings))
				}
				idx = add(next)
			}
			g.Out[head] = append(g.Out[head], Step{Transition: t, To: idx})
		}
	}
	return g, nil
}
