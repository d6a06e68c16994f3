package boolmin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCubeBasics(t *testing.T) {
	c := MintermCube(0b101, 3)
	if !c.Contains(0b101) || c.Contains(0b100) {
		t.Fatal("minterm cube containment broken")
	}
	if c.String(3) != "101" {
		t.Fatalf("String = %q", c.String(3))
	}
	full := FullCube()
	if !full.Covers(c) || c.Covers(full) {
		t.Fatal("full cube covering broken")
	}
	d := Cube{}.WithLiteral(0, true)
	if d.String(3) != "1--" || d.Literals() != 1 {
		t.Fatalf("WithLiteral: %q", d.String(3))
	}
	if !d.Intersects(c) {
		t.Fatal("1-- intersects 101")
	}
	e := Cube{}.WithLiteral(0, false)
	if e.Intersects(c) {
		t.Fatal("0-- does not intersect 101")
	}
	if got := c.Expr([]string{"a", "b", "c"}); got != "a b' c" {
		t.Fatalf("Expr = %q", got)
	}
	if got := full.Expr([]string{"a"}); got != "1" {
		t.Fatalf("full Expr = %q", got)
	}
}

func TestMerge(t *testing.T) {
	a := MintermCube(0b000, 3)
	b := MintermCube(0b001, 3)
	m, ok := merge(a, b)
	if !ok || m.String(3) != "-00" {
		t.Fatalf("merge: %v %q", ok, m.String(3))
	}
	c := MintermCube(0b011, 3)
	if _, ok := merge(a, c); ok {
		t.Fatal("two-bit difference must not merge")
	}
	d := Cube{Val: 0, Care: 0b011}
	if _, ok := merge(a, d); ok {
		t.Fatal("different care sets must not merge")
	}
}

// Classic QMC example: f = Σm(0,1,2,5,6,7) over 3 vars minimizes to
// a'c' + bc' ... let's use the canonical f = Σm(4,8,10,11,12,15) d(9,14)
// over 4 vars: minimal cover has 4 cubes / known literal count.
func TestMinimizeCanonical(t *testing.T) {
	on := []uint64{4, 8, 10, 11, 12, 15}
	dc := []uint64{9, 14}
	cv := MinimizeOnOff(on, refOffSet(on, dc, 4), 4)
	checkCover(t, cv, on, dc, 4)
	if len(cv.Cubes) > 3 {
		t.Fatalf("canonical example needs <= 3 cubes, got %d: %s", len(cv.Cubes), cv.String())
	}
}

func TestMinimizeXor(t *testing.T) {
	// XOR has no mergeable adjacent minterms: cover = the minterms.
	on := []uint64{0b01, 0b10}
	cv := MinimizeOnOff(on, refOffSet(on, nil, 2), 2)
	checkCover(t, cv, on, nil, 2)
	if len(cv.Cubes) != 2 || cv.Literals() != 4 {
		t.Fatalf("xor cover: %s", cv.String())
	}
}

func TestMinimizeTautology(t *testing.T) {
	var on []uint64
	for m := uint64(0); m < 8; m++ {
		on = append(on, m)
	}
	cv := MinimizeOnOff(on, nil, 3)
	if v, ok := cv.IsConstant(); !ok || !v {
		t.Fatalf("tautology must reduce to constant 1, got %s", cv.String())
	}
}

func TestMinimizeEmpty(t *testing.T) {
	cv := MinimizeOnOff(nil, refOffSet(nil, []uint64{1, 2}, 3), 3)
	if v, ok := cv.IsConstant(); !ok || v {
		t.Fatalf("empty on-set must yield constant 0, got %s", cv.String())
	}
}

func TestMinimizeAllDontCareNeighbors(t *testing.T) {
	// on={0}, dc = everything else: minimal cover is the full cube.
	on := []uint64{0}
	var dc []uint64
	for m := uint64(1); m < 16; m++ {
		dc = append(dc, m)
	}
	cv := MinimizeOnOff(on, refOffSet(on, dc, 4), 4)
	if len(cv.Cubes) != 1 || cv.Cubes[0].Care != 0 {
		t.Fatalf("want full cube, got %s", cv.String())
	}
}

// checkCover asserts correctness: every on-minterm covered, no off-minterm
// covered, every cube is prime w.r.t. on ∪ dc.
func checkCover(t *testing.T, cv Cover, on, dc []uint64, n int) {
	t.Helper()
	inOn := map[uint64]bool{}
	for _, m := range on {
		inOn[m] = true
	}
	inDC := map[uint64]bool{}
	for _, m := range dc {
		inDC[m] = true
	}
	for _, m := range on {
		if !cv.Eval(m) {
			t.Fatalf("on-set minterm %b not covered by %s", m, cv.String())
		}
	}
	for m := uint64(0); m < uint64(1)<<uint(n); m++ {
		if !inOn[m] && !inDC[m] && cv.Eval(m) {
			t.Fatalf("off-set minterm %b covered by %s", m, cv.String())
		}
	}
	// Primality: expanding any cube by dropping a literal must hit the off-set.
	for _, c := range cv.Cubes {
		for v := 0; v < n; v++ {
			bit := uint64(1) << uint(v)
			if c.Care&bit == 0 {
				continue
			}
			bigger := Cube{Val: c.Val &^ bit, Care: c.Care &^ bit}
			hitsOff := false
			for m := uint64(0); m < uint64(1)<<uint(n); m++ {
				if bigger.Contains(m) && !inOn[m] && !inDC[m] {
					hitsOff = true
					break
				}
			}
			if !hitsOff {
				t.Fatalf("cube %s is not prime in %s", c.String(n), cv.String())
			}
		}
	}
}

// Property: MinimizeOnOff is correct on random functions of 4..6 variables.
func TestQuickMinimizeCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		var on, dc []uint64
		for m := uint64(0); m < uint64(1)<<uint(n); m++ {
			switch rng.Intn(3) {
			case 0:
				on = append(on, m)
			case 1:
				dc = append(dc, m)
			}
		}
		cv := MinimizeOnOff(on, refOffSet(on, dc, n), n)
		inDC := map[uint64]bool{}
		for _, m := range dc {
			inDC[m] = true
		}
		inOn := map[uint64]bool{}
		for _, m := range on {
			inOn[m] = true
		}
		for m := uint64(0); m < uint64(1)<<uint(n); m++ {
			got := cv.Eval(m)
			switch {
			case inOn[m] && !got:
				return false
			case !inOn[m] && !inDC[m] && got:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the minimized cover never has more cubes than the on-set.
func TestQuickMinimizeNoWorse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		var on []uint64
		for m := uint64(0); m < 16; m++ {
			if rng.Intn(2) == 0 {
				on = append(on, m)
			}
		}
		cv := MinimizeOnOff(on, refOffSet(on, nil, n), n)
		return len(cv.Cubes) <= len(on)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverHelpers(t *testing.T) {
	cv := Cover{N: 3, Cubes: []Cube{
		Cube{}.WithLiteral(0, true).WithLiteral(1, false),
		Cube{}.WithLiteral(2, true),
	}}
	if cv.Literals() != 3 {
		t.Fatalf("literals = %d", cv.Literals())
	}
	if got := cv.Support(); len(got) != 3 {
		t.Fatalf("support = %v", got)
	}
	if cv.MaxLiteralsPerCube() != 2 {
		t.Fatal("max literals per cube")
	}
	if got := cv.Expr([]string{"a", "b", "c"}); got != "a b' + c" {
		t.Fatalf("Expr = %q", got)
	}
	c2 := cv.Clone()
	c2.Cubes[0] = FullCube()
	if cv.Cubes[0].Care == 0 {
		t.Fatal("clone shares storage")
	}
	if err := CheckEqualOn(cv, cv, []uint64{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	other := Cover{N: 3}
	if err := CheckEqualOn(cv, other, []uint64{4}); err == nil {
		t.Fatal("differing covers must be detected")
	}
}
