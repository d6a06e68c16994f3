package boolmin

import (
	"math/bits"
	"slices"
)

// PrimesOnOff returns the prime implicants of the incompletely specified
// function with on-set on and off-set off over n variables (every other
// minterm is a don't-care) that contain at least one on-set minterm — the
// only primes a cover of the on-set can use. The don't-care space is never
// enumerated: each on-set minterm is expanded against the off-set, in the
// manner of espresso's EXPAND step.
//
// A cube containing minterm m is fixed by its care mask C (its value is
// m&C), and it avoids off-set minterm o exactly when C meets the difference
// mask m^o. The primes containing m are therefore the minimal hitting sets
// of {m^o : o in off}, computed by Berge's incremental transversal
// algorithm over the inclusion-minimal difference masks.
//
// Minterms listed in both sets count as on-set minterms. The result is
// sorted by literal count, then care mask, then value, without duplicates.
func PrimesOnOff(on, off []uint64, n int) []Cube {
	if len(on) == 0 {
		return nil
	}
	mask := maskN(n)
	ons := make([]uint64, len(on))
	for i, m := range on {
		ons[i] = m & mask
	}
	slices.Sort(ons)
	ons = slices.Compact(ons)
	offs := make([]uint64, 0, len(off))
	for _, o := range off {
		o &= mask
		if _, in := slices.BinarySearch(ons, o); !in {
			offs = append(offs, o)
		}
	}

	var g primeGen
	var primes []Cube
	for _, m := range ons {
		for _, care := range g.transversals(g.minimalMasks(m, offs)) {
			primes = append(primes, Cube{Val: m & care, Care: care})
		}
	}
	slices.SortFunc(primes, primeCmp)
	return slices.Compact(primes)
}

// primeGen holds the scratch slices PrimesOnOff reuses from one on-set
// minterm to the next.
type primeGen struct {
	masks, cur, next []uint64
}

// minimalMasks returns the inclusion-minimal difference masks m^o over
// off, sorted by popcount. Single-bit masks are collected first: their
// variables must appear in every prime containing m, so any mask meeting
// them is already hit and is dropped without a subset scan.
func (g *primeGen) minimalMasks(m uint64, off []uint64) []uint64 {
	var forced uint64
	for _, o := range off {
		if d := m ^ o; d&(d-1) == 0 {
			forced |= d
		}
	}
	masks := g.masks[:0]
	for forced := forced; forced != 0; forced &= forced - 1 {
		masks = append(masks, forced&-forced)
	}
	single := len(masks)
	for _, o := range off {
		d := m ^ o
		if d&forced != 0 {
			continue
		}
		// Keep masks[single:] an antichain: drop d if it contains a kept
		// mask, else evict the kept masks that contain d.
		dominated := false
		w := single
		for _, k := range masks[single:] {
			if k&^d == 0 {
				dominated = true
				break
			}
			if d&^k != 0 {
				masks[w] = k
				w++
			}
		}
		if dominated {
			continue
		}
		masks = append(masks[:w], d)
	}
	slices.SortFunc(masks[single:], func(a, b uint64) int {
		return bits.OnesCount64(a) - bits.OnesCount64(b)
	})
	g.masks = masks
	return masks
}

// transversals returns the minimal hitting sets of masks (Berge's
// algorithm). Adding one mask keeps every transversal that already meets
// it and extends the others by one of its bits; an extension t|v is
// minimal unless a kept transversal lies inside it — no two extensions can
// contain each other, because the transversals they grow from form an
// antichain and miss the mask.
func (g *primeGen) transversals(masks []uint64) []uint64 {
	cur := append(g.cur[:0], 0)
	next := g.next[:0]
	for _, d := range masks {
		next = next[:0]
		for _, t := range cur {
			if t&d != 0 {
				next = append(next, t)
			}
		}
		kept := len(next)
		for _, t := range cur {
			if t&d != 0 {
				continue
			}
			for rest := d; rest != 0; rest &= rest - 1 {
				c := t | rest&-rest
				minimal := true
				for _, k := range next[:kept] {
					if k&^c == 0 {
						minimal = false
						break
					}
				}
				if minimal {
					next = append(next, c)
				}
			}
		}
		cur, next = next, cur
	}
	g.cur, g.next = cur, next
	return cur
}

// primeCmp is the prime order covering relies on: fewer literals first,
// then care mask, then value.
func primeCmp(a, b Cube) int {
	if la, lb := a.Literals(), b.Literals(); la != lb {
		return la - lb
	}
	if a.Care != b.Care {
		if a.Care < b.Care {
			return -1
		}
		return 1
	}
	switch {
	case a.Val < b.Val:
		return -1
	case a.Val > b.Val:
		return 1
	}
	return 0
}
