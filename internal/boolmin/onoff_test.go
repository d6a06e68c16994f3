package boolmin

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randFunc draws a random incompletely specified function: each of the 2^n
// minterms goes to on/off/dc with the given on and off probabilities.
func randFunc(rng *rand.Rand, n int, pOn, pOff float64) (on, off []uint64) {
	for m := uint64(0); m < uint64(1)<<uint(n); m++ {
		switch r := rng.Float64(); {
		case r < pOn:
			on = append(on, m)
		case r < pOn+pOff:
			off = append(off, m)
		}
	}
	return on, off
}

// sgFunc draws a state-graph-shaped function: only k distinct codes out of
// 2^n are specified (the reachable ones), in random first-seen order, each
// on or off; everything else is don't-care.
func sgFunc(rng *rand.Rand, n, k int) (on, off []uint64) {
	seen := map[uint64]bool{}
	for len(seen) < k {
		m := rng.Uint64() & maskN(n)
		if seen[m] {
			continue
		}
		seen[m] = true
		if rng.Intn(2) == 0 {
			on = append(on, m)
		} else {
			off = append(off, m)
		}
	}
	return on, off
}

// bruteCover is a second, QMC-free reference for widths the QMC reference
// cannot reach: for each on-set minterm it tries every care mask, keeps the
// off-free ones that no smaller off-free mask is inside, and covers with
// selectCover — a brute-force statement of "the primes containing m".
func bruteCover(on, off []uint64, n int) Cover {
	if len(on) == 0 {
		return Cover{N: n}
	}
	inOn := map[uint64]bool{}
	for _, m := range on {
		inOn[m] = true
	}
	seen := map[Cube]bool{}
	var primes []Cube
	for _, m := range on {
		free := make([]bool, 1<<uint(n))
		for care := uint64(0); care < uint64(1)<<uint(n); care++ {
			free[care] = true
			for _, o := range off {
				if !inOn[o] && (m^o)&care == 0 {
					free[care] = false
					break
				}
			}
		}
		for care := uint64(0); care < uint64(1)<<uint(n); care++ {
			if !free[care] {
				continue
			}
			minimal := true
			for rest := care; rest != 0; rest &= rest - 1 {
				if free[care&^(rest&-rest)] {
					minimal = false
					break
				}
			}
			if c := (Cube{Val: m & care, Care: care}); minimal && !seen[c] {
				seen[c] = true
				primes = append(primes, c)
			}
		}
	}
	slices.SortFunc(primes, primeCmp)
	return Cover{N: n, Cubes: selectCover(primes, on, n)}
}

// TestMinimizerMatchesMinimize is the old-vs-new differential: on dense
// random functions and on sparse, state-graph-shaped ones, MinimizeOnOff
// returns exactly the cover of the Quine–McCluskey reference pipeline, and
// PrimesOnOff returns exactly the reference primes that contain an on-set
// minterm. At n = 13 and 14, where enumerating the don't-cares is too slow
// even for a test, the brute-force reference stands in.
func TestMinimizerMatchesMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(label string, on, off []uint64, n int, ref func(on, off []uint64, n int) Cover) {
		t.Helper()
		want := ref(on, off, n)
		got := MinimizeOnOff(on, off, n)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s (n=%d): cover %v, want %v\non=%v off=%v", label, n, got.Cubes, want.Cubes, on, off)
		}
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(10) // 1..10 variables
		on, off := randFunc(rng, n, 0.3, 0.4)
		check("dense", on, off, n, qmcMinimizeOnOff)
		onPrimes := qmcOnPrimes(on, off, n)
		if got := PrimesOnOff(on, off, n); !reflect.DeepEqual(onPrimes, got) {
			t.Fatalf("dense (n=%d): primes %v, want %v", n, got, onPrimes)
		}
	}
	for _, n := range []int{11, 12} {
		on, off := randFunc(rng, n, 0.35, 0.35)
		check("dense", on, off, n, qmcMinimizeOnOff)
	}
	// A minterm listed in both sets is an on-set minterm, as in the
	// reference, where only the minterms in neither set are don't-cares.
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		on, off := randFunc(rng, n, 0.3, 0.4)
		if len(on) > 0 {
			off = append(off, on[rng.Intn(len(on))])
		}
		check("overlap", on, off, n, qmcMinimizeOnOff)
	}
	for _, tc := range []struct{ n, codes, trials int }{{10, 40, 8}, {11, 60, 3}, {12, 60, 1}} {
		for trial := 0; trial < tc.trials; trial++ {
			on, off := sgFunc(rng, tc.n, tc.codes)
			check("sparse", on, off, tc.n, qmcMinimizeOnOff)
		}
	}
	for _, n := range []int{13, 14} {
		for trial := 0; trial < 2; trial++ {
			on, off := sgFunc(rng, n, 40)
			check("sparse", on, off, n, bruteCover)
		}
	}
}

// qmcOnPrimes is the reference prime set restricted to primes that contain
// an on-set minterm, in reference order.
func qmcOnPrimes(on, off []uint64, n int) []Cube {
	var out []Cube
	for _, p := range qmcPrimes(on, refDontCares(on, off, n), n) {
		for _, m := range on {
			if p.Contains(m) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// FuzzMinimizeOnOff checks MinimizeOnOff on arbitrary functions of up to 8
// variables against the QMC reference, and checks the cover itself: it
// covers the on-set, meets no off-set minterm, and every cube is prime —
// dropping any literal hits the off-set. The input bytes assign one minterm
// each, in order, to on (1), off (2) or don't-care (0), modulo 3. The seed
// corpus lives in testdata/fuzz/FuzzMinimizeOnOff.
func FuzzMinimizeOnOff(f *testing.F) {
	f.Fuzz(func(t *testing.T, nv uint8, assign []byte) {
		n := int(nv%8) + 1
		var on, off []uint64
		for m, a := range assign {
			if m >= 1<<uint(n) {
				break
			}
			switch a % 3 {
			case 1:
				on = append(on, uint64(m))
			case 2:
				off = append(off, uint64(m))
			}
		}
		got := MinimizeOnOff(on, off, n)
		if want := qmcMinimizeOnOff(on, off, n); !reflect.DeepEqual(want, got) {
			t.Fatalf("cover %v, want %v", got.Cubes, want.Cubes)
		}
		for _, m := range on {
			if !got.Eval(m) {
				t.Fatalf("on minterm %b uncovered by %s", m, got)
			}
		}
		for _, c := range got.Cubes {
			for _, o := range off {
				if c.Contains(o) {
					t.Fatalf("cube %s meets off minterm %b", c.String(n), o)
				}
			}
			for rest := c.Care; rest != 0; rest &= rest - 1 {
				bit := rest & -rest
				bigger := Cube{Val: c.Val &^ bit, Care: c.Care &^ bit}
				hits := false
				for _, o := range off {
					hits = hits || bigger.Contains(o)
				}
				if !hits {
					t.Fatalf("cube %s is not prime: dropping bit %b meets no off minterm", c.String(n), bit)
				}
			}
		}
	})
}

func BenchmarkMinimize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	on, off := randFunc(rng, 9, 0.3, 0.3)
	b.Run("dense-9", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MinimizeOnOff(on, off, 9)
		}
	})
	for _, n := range []int{12, 14} {
		son, soff := sgFunc(rng, n, 200)
		b.Run(fmt.Sprintf("sparse-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MinimizeOnOff(son, soff, n)
			}
		})
	}
}

func TestMinimizeOnOffSmallUsesQMC(t *testing.T) {
	on := []uint64{0b0000, 0b0001, 0b0011}
	off := []uint64{0b1111, 0b1110}
	cv := MinimizeOnOff(on, off, 4)
	for _, m := range on {
		if !cv.Eval(m) {
			t.Fatalf("on minterm %b uncovered", m)
		}
	}
	for _, m := range off {
		if cv.Eval(m) {
			t.Fatalf("off minterm %b covered", m)
		}
	}
}

func TestMinimizeOnOffEmpty(t *testing.T) {
	cv := MinimizeOnOff(nil, []uint64{1}, 4)
	if len(cv.Cubes) != 0 {
		t.Fatal("empty on-set yields empty cover")
	}
	cvBig := MinimizeOnOff(nil, nil, 20)
	if len(cvBig.Cubes) != 0 {
		t.Fatal("empty on-set yields empty cover (wide)")
	}
}

// The expansion path (n > 14) must produce correct covers.
func TestMinimizeOnOffWide(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(5))
	var on, off []uint64
	seen := map[uint64]bool{}
	for len(on) < 40 {
		m := rng.Uint64() & (1<<n - 1)
		if !seen[m] {
			seen[m] = true
			on = append(on, m)
		}
	}
	for len(off) < 40 {
		m := rng.Uint64() & (1<<n - 1)
		if !seen[m] {
			seen[m] = true
			off = append(off, m)
		}
	}
	cv := MinimizeOnOff(on, off, n)
	for _, m := range on {
		if !cv.Eval(m) {
			t.Fatalf("on minterm %b uncovered", m)
		}
	}
	for _, m := range off {
		if cv.Eval(m) {
			t.Fatalf("off minterm %b covered", m)
		}
	}
	// Duplicated on-set minterms are deduplicated, not double-covered.
	cv2 := MinimizeOnOff(append(on, on...), off, n)
	if len(cv2.Cubes) > len(on) {
		t.Fatal("duplicates must not inflate the cover")
	}
}

func TestExpand(t *testing.T) {
	// Expanding 0000 against off {1111} can drop three literals but not all
	// four.
	c := Expand(0b0000, []uint64{0b1111}, 4, 0)
	if c.Care == 0 {
		t.Fatal("expansion must stop before covering the off-set")
	}
	if c.Contains(0b1111) {
		t.Fatal("expanded cube covers the off minterm")
	}
	if !c.Contains(0b0000) {
		t.Fatal("expanded cube must keep its seed")
	}
	// The keep mask pins a literal.
	k := Expand(0b0101, nil, 4, 1<<2)
	if k.Care&(1<<2) == 0 {
		t.Fatal("kept literal must remain")
	}
	if k.Care != 1<<2 {
		t.Fatalf("all other literals should drop with empty off-set: %s", k.String(4))
	}
}

// Property: wide-path covers are always correct separations.
func TestQuickMinimizeOnOffWide(t *testing.T) {
	const n = 15
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		assign := map[uint64]bool{}
		var on, off []uint64
		for i := 0; i < 60; i++ {
			m := rng.Uint64() & (1<<n - 1)
			if _, dup := assign[m]; dup {
				continue
			}
			v := rng.Intn(2) == 0
			assign[m] = v
			if v {
				on = append(on, m)
			} else {
				off = append(off, m)
			}
		}
		cv := MinimizeOnOff(on, off, n)
		for _, m := range on {
			if !cv.Eval(m) {
				return false
			}
		}
		for _, m := range off {
			if cv.Eval(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskN64(t *testing.T) {
	if maskN(64) != ^uint64(0) {
		t.Fatal("64-variable mask must be all ones")
	}
	c := MintermCube(^uint64(0), 64)
	if !c.Contains(^uint64(0)) || c.Contains(0) {
		t.Fatal("64-var minterm cube broken")
	}
}
