package reach

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/vme"
)

// TestArenaMatchesSequential reuses ONE arena across every model, in both
// safe and unsafe modes, and demands the exact Graph the fresh-allocation
// reference explorer (exploreSeq) builds — state numbering, edges
// (including nil adjacency on deadlock states), and index — from Explore on
// the shared arena and on its private one. Cross-model reuse is the point:
// stale scratch from a big net must never leak into a small one.
func TestArenaMatchesSequential(t *testing.T) {
	models := []struct {
		name string
		net  *petri.Net
		safe bool // net is 1-safe, so exercise RequireSafe too
	}{
		{"vme-read", vme.ReadSTG().Net, true},
		{"vme-read-write", vme.ReadWriteSTG().Net, true},
		{"toggles-8", gen.IndependentToggles(8), true},
		{"ring-9-4", gen.MarkedGraphRing(9, 4), false}, // adjacent tokens merge
		{"muller-8", gen.MullerPipeline(8).Net, true},
		{"phil-5", gen.Philosophers(5), true}, // has deadlock states (nil Out rows)
		{"cscring-3", gen.CSCRing(3).Net, true},
	}
	type tc struct {
		name string
		net  *petri.Net
		safe bool
		ref  *Graph
	}
	var cases []tc
	for _, mdl := range models {
		// On a 1-safe net RequireSafe changes nothing, so one reference
		// graph serves both modes.
		ref, err := exploreSeq(mdl.net, Options{})
		if err != nil {
			t.Fatalf("%s: reference: %v", mdl.name, err)
		}
		cases = append(cases, tc{mdl.name, mdl.net, false, ref})
		if mdl.safe {
			cases = append(cases, tc{mdl.name, mdl.net, true, ref})
		}
	}
	check := func(c tc, label string, opts Options) {
		t.Helper()
		got, err := Explore(c.net, opts)
		if err != nil {
			t.Fatalf("%s safe=%v %s: %v", c.name, c.safe, label, err)
		}
		if diff := graphDiff(c.ref, got); diff != "" {
			t.Fatalf("%s safe=%v %s: %s", c.name, c.safe, label, diff)
		}
	}
	a := NewArena()
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			check(c, "shared arena", Options{RequireSafe: c.safe, Arena: a})
			if round == 0 {
				check(c, "private arena", Options{RequireSafe: c.safe})
			}
		}
	}
}

// graphDiff reports the first difference between two graphs, "" when they
// are identical: the same checks as reflect.DeepEqual on Markings, Out and
// Index (nil-vs-empty adjacency included), without the reflection cost that
// dominates on large graphs under the race detector.
func graphDiff(want, got *Graph) string {
	if len(want.Markings) != len(got.Markings) {
		return fmt.Sprintf("%d states, want %d", len(got.Markings), len(want.Markings))
	}
	for i := range want.Markings {
		if !bytes.Equal(want.Markings[i], got.Markings[i]) {
			return fmt.Sprintf("marking %d differs", i)
		}
	}
	if len(want.Out) != len(got.Out) {
		return fmt.Sprintf("%d adjacency rows, want %d", len(got.Out), len(want.Out))
	}
	for i := range want.Out {
		w, g := want.Out[i], got.Out[i]
		if (w == nil) != (g == nil) || !slices.Equal(w, g) {
			return fmt.Sprintf("edges of state %d differ", i)
		}
	}
	if len(want.Index) != len(got.Index) {
		return fmt.Sprintf("index has %d keys, want %d", len(got.Index), len(want.Index))
	}
	for k, v := range want.Index {
		if gv, ok := got.Index[k]; !ok || gv != v {
			return "index differs"
		}
	}
	return ""
}

// TestArenaBuildSG checks the scratch plumbing through BuildSG: repeated
// arena-backed builds return SGs identical to the fresh-allocation path,
// and the SG owns its storage — it must survive the arena moving on to a
// different spec.
func TestArenaBuildSG(t *testing.T) {
	a := NewArena()
	ref, err := BuildSG(vme.ReadWriteSTG(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildSG(vme.ReadWriteSTG(), Options{Arena: a})
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the arena with unrelated builds before comparing.
	if _, err := BuildSG(gen.CSCRing(2), Options{Arena: a}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSG(gen.MullerPipeline(6), Options{Arena: a}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.States, got.States) || !reflect.DeepEqual(ref.Out, got.Out) {
		t.Fatal("arena-backed SG differs from fresh-allocation SG")
	}
}

// TestArenaStateLimit pins the partial-graph contract on the arena path:
// exactly MaxStates states, nil adjacency for unexpanded states, and no
// stale rows from a previous full exploration of the same net.
func TestArenaStateLimit(t *testing.T) {
	net := gen.IndependentToggles(6) // 64 states
	a := NewArena()
	if _, err := Explore(net, Options{Arena: a}); err != nil {
		t.Fatal(err)
	}
	ref, err := exploreSeq(net, Options{MaxStates: 17})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
	got, err := Explore(net, Options{MaxStates: 17, Arena: a})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("arena: want ErrStateLimit, got %v", err)
	}
	if len(got.Markings) != 17 {
		t.Fatalf("abort must leave exactly MaxStates states, got %d", len(got.Markings))
	}
	if !reflect.DeepEqual(ref.Markings, got.Markings) || !reflect.DeepEqual(ref.Out, got.Out) {
		t.Fatal("partial graphs differ")
	}
}

// TestArenaBuildSGAllocs pins the win the arena exists for: after a warm-up
// build, rebuilding the same spec's reachability graph allocates only the
// per-state key strings and the SG's own storage — the visited table,
// marking storage and adjacency rows are all reused. The fresh-allocation
// path pays more than twice that.
func TestArenaBuildSGAllocs(t *testing.T) {
	g := vme.ReadSTG()
	a := NewArena()
	if _, err := Explore(g.Net, Options{RequireSafe: true, Arena: a}); err != nil {
		t.Fatal(err)
	}
	arena := testing.AllocsPerRun(20, func() {
		if _, err := Explore(g.Net, Options{RequireSafe: true, Arena: a}); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := Explore(g.Net, Options{RequireSafe: true}); err != nil {
			t.Fatal(err)
		}
	})
	if arena*2 > fresh {
		t.Fatalf("arena exploration allocates %.0f/run, fresh %.0f/run — want < half", arena, fresh)
	}
}

func BenchmarkArenaExplore(b *testing.B) {
	net := vme.ReadWriteSTG().Net
	run := func(b *testing.B, opts Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Explore(net, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) { run(b, Options{RequireSafe: true}) })
	b.Run("arena", func(b *testing.B) {
		run(b, Options{RequireSafe: true, Arena: NewArena()})
	})
}
