package main

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/stg"
	"repro/internal/vme"
)

// spec is one benchmark input: a name and the .g text the program receives.
type spec struct {
	name string
	text string
}

// cscSpecs need state-signal insertion, so the encoding search does almost
// all the work. gen.CSCRing clamps k to at least 2, so CSCRing(1..3) is the
// two distinct rings cscring-2 and cscring-3.
func cscSpecs() ([]spec, error) {
	return render(vme.ReadSTG(), vme.ReadWriteSTG(), gen.CSCRing(2), gen.CSCRing(3))
}

// pipelineSpecs are CSC-free and carry large state spaces, so the candidate
// search never runs. gen.MullerPipeline(7) is left out: its 14 signals take
// the exact minimizer path and one flow runs about 80 s at two workers.
func pipelineSpecs() ([]spec, error) {
	files, err := readTestdata("fork-join", "pipeline-stage", "muller4")
	if err != nil {
		return nil, err
	}
	gens, err := render(gen.MullerPipeline(5), gen.MullerPipeline(6), gen.MullerPipeline(8))
	return append(files, gens...), err
}

// hotSpecs are the small specs the daemon workload keeps in its cache.
func hotSpecs() ([]spec, error) {
	return readTestdata("vme-read", "handshake", "dummy-hs", "fork-join", "pipeline-stage", "muller4")
}

// render turns generated STGs into .g text, as a user would submit them.
func render(gs ...*stg.STG) ([]spec, error) {
	out := make([]spec, 0, len(gs))
	for _, g := range gs {
		var b strings.Builder
		if err := g.WriteG(&b); err != nil {
			return nil, fmt.Errorf("render %s: %w", g.Name(), err)
		}
		out = append(out, spec{name: g.Name(), text: b.String()})
	}
	return out, nil
}

// readTestdata loads specs shipped with the repository, relative to the
// repository root the benchmark runs from.
func readTestdata(names ...string) ([]spec, error) {
	out := make([]spec, 0, len(names))
	for _, n := range names {
		data, err := os.ReadFile("testdata/" + n + ".g")
		if err != nil {
			return nil, err
		}
		out = append(out, spec{name: n, text: string(data)})
	}
	return out, nil
}

func parse(text string) (*stg.STG, error) {
	return stg.ParseG(strings.NewReader(text))
}

var ident = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// renamer maps every signal and the model name of a spec to fresh names
// with one common prefix. The prefix keeps the signals' declaration order
// and relative name order, so the engines do the same work, while the
// canonical hash — and hence the daemon's cache key — changes.
type renamer struct {
	prefix  string
	forward map[string]string
	back    map[string]string
}

// newRenamer draws a fresh prefix from rng; n makes it unique per caller.
func newRenamer(g *stg.STG, rng *rand.Rand, n int) *renamer {
	var b strings.Builder
	for i := 0; i < 4; i++ {
		b.WriteByte(byte('a' + rng.Intn(26)))
	}
	r := &renamer{prefix: fmt.Sprintf("%s%d_", b.String(), n), forward: map[string]string{}, back: map[string]string{}}
	for _, s := range g.Signals {
		r.forward[s.Name] = r.prefix + s.Name
		r.back[r.prefix+s.Name] = s.Name
	}
	return r
}

// spec renames the signals in a .g text and suffixes its model name.
func (r *renamer) spec(text string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, ".model ") {
			b.WriteString(strings.TrimRight(line, "\n") + "-" + strings.TrimSuffix(r.prefix, "_") + "\n")
			continue
		}
		b.WriteString(ident.ReplaceAllStringFunc(line, func(id string) string {
			if to, ok := r.forward[id]; ok {
				return to
			}
			return id
		}))
	}
	return b.String()
}

// restore maps renamed signals in equations back to the original names and
// canonicalizes them, so results of a renamed spec compare with the
// original's.
func (r *renamer) restore(eqn string) string {
	return canonEquations(ident.ReplaceAllStringFunc(eqn, func(id string) string {
		if to, ok := r.back[id]; ok {
			return to
		}
		return id
	}))
}

// canonEquations puts .eqn text in a name-independent order: comment lines
// dropped, lines sorted, and the products of every sum and the literals of
// every product sorted. Renaming signals changes the order the netlist
// prints terms in, not the functions.
func canonEquations(s string) string {
	var keep []string
	for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if lhs, rhs, ok := strings.Cut(l, " = "); ok {
			l = lhs + " = " + canonExpr(rhs)
		}
		keep = append(keep, l)
	}
	sort.Strings(keep)
	return strings.Join(keep, "\n")
}

// canonExpr handles the gate forms of logic.Netlist.Equations: a sum of
// products, KIND(set: SOP, reset: SOP) latches and MUTEX(SOP) halves.
func canonExpr(e string) string {
	if kind, body, ok := strings.Cut(e, "(set: "); ok && strings.HasSuffix(body, ")") {
		if set, reset, ok := strings.Cut(strings.TrimSuffix(body, ")"), ", reset: "); ok {
			return kind + "(set: " + canonSOP(set) + ", reset: " + canonSOP(reset) + ")"
		}
	}
	if body, ok := strings.CutPrefix(e, "MUTEX("); ok && strings.HasSuffix(body, ")") {
		return "MUTEX(" + canonSOP(strings.TrimSuffix(body, ")")) + ")"
	}
	return canonSOP(e)
}

func canonSOP(s string) string {
	terms := strings.Split(s, " + ")
	for i, t := range terms {
		lits := strings.Fields(t)
		sort.Strings(lits)
		terms[i] = strings.Join(lits, " ")
	}
	sort.Strings(terms)
	return strings.Join(terms, " + ")
}
