package boolmin

import (
	"math/bits"
	"sort"
)

// This file keeps the classic Quine–McCluskey pipeline as the reference
// MinimizeOnOff is tested against: enumerate the 2^n don't-care set, merge
// on ∪ dc minterms level by level into every prime, then run the shared
// selectCover. It is deliberately independent of PrimesOnOff.

// qmcMinimize computes the cover of the function with the given on-set and
// don't-care minterms through Quine–McCluskey primes and selectCover.
func qmcMinimize(on, dc []uint64, n int) Cover {
	if len(on) == 0 {
		return Cover{N: n}
	}
	return Cover{N: n, Cubes: selectCover(qmcPrimes(on, dc, n), on, n)}
}

// qmcPrimes generates all prime implicants of the function whose on-set is
// on ∪ dc (don't-cares participate in merging), sorted by literal count,
// care mask and value.
func qmcPrimes(on, dc []uint64, n int) []Cube {
	mask := maskN(n)
	current := map[Cube]bool{}
	for _, m := range on {
		current[Cube{Val: m & mask, Care: mask}] = true
	}
	for _, m := range dc {
		current[Cube{Val: m & mask, Care: mask}] = true
	}

	var primes []Cube
	for len(current) > 0 {
		// Group cubes by care mask and popcount for the adjacency scan.
		merged := map[Cube]bool{}
		next := map[Cube]bool{}
		groups := map[uint64][]Cube{}
		for c := range current {
			groups[c.Care] = append(groups[c.Care], c)
		}
		for _, cubes := range groups {
			// Only cubes whose popcounts differ by one can merge.
			byPop := map[int][]Cube{}
			for _, c := range cubes {
				p := bits.OnesCount64(c.Val)
				byPop[p] = append(byPop[p], c)
			}
			for p, lo := range byPop {
				for _, a := range lo {
					for _, b := range byPop[p+1] {
						if m, ok := merge(a, b); ok {
							next[m] = true
							merged[a] = true
							merged[b] = true
						}
					}
				}
			}
		}
		for c := range current {
			if !merged[c] {
				primes = append(primes, c)
			}
		}
		current = next
	}
	// Deduplicate and drop primes covered by other primes.
	sort.Slice(primes, func(i, j int) bool { return primeCmp(primes[i], primes[j]) < 0 })
	var out []Cube
	for _, c := range primes {
		dominated := false
		for _, d := range out {
			if d.Covers(c) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// merge combines two cubes differing in exactly one literal polarity with
// identical care sets (the Quine–McCluskey adjacency step).
func merge(a, b Cube) (Cube, bool) {
	if a.Care != b.Care {
		return Cube{}, false
	}
	diff := a.Val ^ b.Val
	if bits.OnesCount64(diff) != 1 {
		return Cube{}, false
	}
	return Cube{Val: a.Val &^ diff, Care: a.Care &^ diff}, true
}

// refDontCares enumerates 2^n \ (on ∪ off) in increasing minterm order.
func refDontCares(on, off []uint64, n int) []uint64 {
	spec := map[uint64]bool{}
	for _, m := range on {
		spec[m&maskN(n)] = true
	}
	for _, m := range off {
		spec[m&maskN(n)] = true
	}
	var dc []uint64
	for m := uint64(0); m < uint64(1)<<uint(n); m++ {
		if !spec[m] {
			dc = append(dc, m)
		}
	}
	return dc
}

// refOffSet is refDontCares with the roles of off and dc swapped: the
// minterms in neither on nor dc.
func refOffSet(on, dc []uint64, n int) []uint64 { return refDontCares(on, dc, n) }

// qmcMinimizeOnOff is the reference for MinimizeOnOff on the exact widths.
func qmcMinimizeOnOff(on, off []uint64, n int) Cover {
	return qmcMinimize(on, refDontCares(on, off, n), n)
}
