package boolmin

import "sort"

// MinimizeOnOff minimizes a function given by explicit on-set and off-set
// minterms; everything else is don't-care. For up to 14 variables it is
// exact: PrimesOnOff generates the primes without enumerating the
// don't-care space and selectCover picks essential primes plus a Petrick or
// greedy cover. Wider functions take an espresso-style expand/greedy cover
// against the off-set.
func MinimizeOnOff(on, off []uint64, n int) Cover {
	if len(on) == 0 {
		return Cover{N: n}
	}
	if n <= 14 {
		return Cover{N: n, Cubes: selectCover(PrimesOnOff(on, off, n), on, n)}
	}
	return expandCover(on, off, n)
}

// Expand returns a maximal implicant containing minterm m that avoids every
// off-set minterm, dropping literals in ascending variable order. Literals
// whose variable bit is set in keep are never dropped — used to force a
// specific wire into the cube (resubstitution with acknowledgment).
func Expand(m uint64, off []uint64, n int, keep uint64) Cube {
	mask := maskN(n)
	c := Cube{Val: m & mask, Care: mask}
	for v := 0; v < n; v++ {
		bit := uint64(1) << uint(v)
		if keep&bit != 0 || c.Care&bit == 0 {
			continue
		}
		try := Cube{Val: c.Val &^ bit, Care: c.Care &^ bit}
		clash := false
		for _, o := range off {
			if try.Contains(o & mask) {
				clash = true
				break
			}
		}
		if !clash {
			c = try
		}
	}
	return c
}

// expandCover generates maximally expanded implicants from each on-set
// minterm (two literal orders for diversity), removes dominated cubes, and
// greedily covers the on-set.
func expandCover(on, off []uint64, n int) Cover {
	mask := maskN(n)
	seen := map[uint64]bool{}
	var uniq []uint64
	for _, m := range on {
		m &= mask
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })

	clashesOff := func(c Cube) bool {
		for _, m := range off {
			if c.Contains(m & mask) {
				return true
			}
		}
		return false
	}
	expand := func(m uint64, ascending bool) Cube {
		c := Cube{Val: m, Care: mask}
		for k := 0; k < n; k++ {
			v := k
			if !ascending {
				v = n - 1 - k
			}
			bit := uint64(1) << uint(v)
			if c.Care&bit == 0 {
				continue
			}
			try := Cube{Val: c.Val &^ bit, Care: c.Care &^ bit}
			if !clashesOff(try) {
				c = try
			}
		}
		return c
	}

	cubeSet := map[Cube]bool{}
	var cubes []Cube
	for _, m := range uniq {
		for _, asc := range []bool{true, false} {
			c := expand(m, asc)
			if !cubeSet[c] {
				cubeSet[c] = true
				cubes = append(cubes, c)
			}
		}
	}
	// Drop dominated cubes.
	sort.Slice(cubes, func(i, j int) bool { return cubes[i].Literals() < cubes[j].Literals() })
	var cands []Cube
	for _, c := range cubes {
		dominated := false
		for _, d := range cands {
			if d.Covers(c) {
				dominated = true
				break
			}
		}
		if !dominated {
			cands = append(cands, c)
		}
	}
	// Greedy cover of the on-set.
	remaining := map[uint64]bool{}
	for _, m := range uniq {
		remaining[m] = true
	}
	var pick []Cube
	for len(remaining) > 0 {
		best, bestGain := -1, 0
		for i, c := range cands {
			gain := 0
			for m := range remaining {
				if c.Contains(m) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		pick = append(pick, cands[best])
		for m := range remaining {
			if cands[best].Contains(m) {
				delete(remaining, m)
			}
		}
	}
	sortCubes(pick)
	return Cover{N: n, Cubes: pick}
}
