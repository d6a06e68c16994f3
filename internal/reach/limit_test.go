package reach

import (
	"errors"
	"testing"

	"repro/internal/gen"
)

// TestStateLimitExactAtInsertion pins the MaxStates cap regression: the
// abort happens at insertion time, with exactly MaxStates states explored,
// and a cap the space fits exactly is not an error.
func TestStateLimitExactAtInsertion(t *testing.T) {
	net := gen.IndependentToggles(6) // 64 states
	g, err := Explore(net, Options{MaxStates: 17})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
	if g == nil || len(g.Markings) != 17 {
		t.Fatalf("abort must leave exactly MaxStates explored states, got %v", g)
	}
	g, err = Explore(net, Options{MaxStates: 64})
	if err != nil || g.NumStates() != 64 {
		t.Fatalf("exact-fit cap must succeed: %v %v", g, err)
	}
}

// TestBuildSGToggleStateLimit pins the same insertion-time semantics on the
// (marking, code) toggle exploration.
func TestBuildSGToggleStateLimit(t *testing.T) {
	g := toggleRingSpec(8)
	if _, err := BuildSG(g, Options{MaxStates: 3}); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
	if _, err := BuildSG(g, Options{}); err != nil {
		t.Fatalf("unbounded toggle SG: %v", err)
	}
}
