package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bits"
	"repro/internal/sweep"
)

// CoveredK reports whether a k-dimensional mesh can be embedded with
// minimal expansion and dilation ≤ 2 by grouping its axes into singletons
// (Gray codes), pairs (dilation-2 two-dimensional embeddings, [4]) and
// triples (the §5 methods), per the conjecture of §8: "a majority of the
// higher dimensional meshes can be embedded with dilation two using the
// existing two-, and three-dimensional mesh embeddings of dilation two."
//
// The condition is the existence of a partition of the axes into groups of
// size ≤ 3 such that every triple group is covered by BestMethod and the
// product of the groups' minimal cubes equals the mesh's minimal cube.
func CoveredK(lengths []int) bool {
	prod := uint64(1)
	for _, l := range lengths {
		if l < 1 {
			panic("stats: non-positive axis length")
		}
		prod *= uint64(l)
	}
	target := bits.CeilPow2(prod)
	return coverRec(lengths, 1, target)
}

// coverRec tries to consume the first remaining axis in a singleton, pair
// or triple group; dims accumulates the product of group cube sizes.
func coverRec(rest []int, dims uint64, target uint64) bool {
	if dims > target {
		return false
	}
	if len(rest) == 0 {
		return dims == target
	}
	a := rest[0]
	tail := rest[1:]
	// Singleton: Gray code.
	if coverRec(tail, dims*bits.CeilPow2(uint64(a)), target) {
		return true
	}
	// Pair with each later axis (Chan's 2-D oracle).
	for i := 0; i < len(tail); i++ {
		b := tail[i]
		others := without(tail, i)
		if coverRec(others, dims*bits.CeilPow2(uint64(a)*uint64(b)), target) {
			return true
		}
		// Triple with two later axes (§5 methods).
		for j := i + 1; j < len(tail); j++ {
			c := tail[j]
			if BestMethod(a, b, c) == 0 {
				continue
			}
			rest2 := without(without(tail, j), i)
			if coverRec(rest2, dims*bits.CeilPow2(uint64(a)*uint64(b)*uint64(c)), target) {
				return true
			}
		}
	}
	return false
}

func without(s []int, i int) []int {
	out := make([]int, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// HigherDimRow is one row of the §8 conjecture experiment.
type HigherDimRow struct {
	K, N       int
	GrayPct    float64 // minimal expansion by Gray alone
	CoveredPct float64 // minimal expansion with dilation ≤ 2 by grouping
	Total      uint64
}

// HigherDimCoverage sweeps all k-dimensional meshes with 1 ≤ ℓᵢ ≤ 2^n
// (ordered, counted via sorted tuples with multiplicity) and returns the
// fraction covered by Gray alone and by the §8 grouping.  Runs on all
// available cores; see HigherDimCoverageParallel.
func HigherDimCoverage(k, n int) HigherDimRow {
	return HigherDimCoverageParallel(k, n, 0)
}

// HigherDimCoverageParallel is HigherDimCoverage sharded over the first
// (smallest) axis length with an explicit worker count (< 1 means
// GOMAXPROCS).  Shards tally integers, so every worker count produces the
// same row.
func HigherDimCoverageParallel(k, n, workers int) HigherDimRow {
	if k < 2 || k > 6 {
		panic("stats: HigherDimCoverage supports k in 2..6")
	}
	limit := 1 << uint(n)
	type coverAcc struct{ total, grayHit, coverHit uint64 }
	parts := sweep.Map(limit, workers, func(i int) coverAcc {
		var part coverAcc
		lens := make([]int, k)
		lens[0] = i + 1
		var rec func(i, min int)
		rec = func(i, min int) {
			if i == k {
				mult := permutations(lens)
				part.total += mult
				grayDim, prod := 0, uint64(1)
				for _, l := range lens {
					grayDim += bits.CeilLog2(uint64(l))
					prod *= uint64(l)
				}
				if uint64(1)<<uint(grayDim) == bits.CeilPow2(prod) {
					part.grayHit += mult
					part.coverHit += mult
					return
				}
				if CoveredK(lens) {
					part.coverHit += mult
				}
				return
			}
			for l := min; l <= limit; l++ {
				lens[i] = l
				rec(i+1, l)
			}
		}
		rec(1, lens[0])
		return part
	})
	var acc coverAcc
	for _, part := range parts {
		acc.total += part.total
		acc.grayHit += part.grayHit
		acc.coverHit += part.coverHit
	}
	row := HigherDimRow{K: k, N: n, Total: acc.total}
	row.GrayPct = 100 * float64(acc.grayHit) / float64(acc.total)
	row.CoveredPct = 100 * float64(acc.coverHit) / float64(acc.total)
	return row
}

// permutations returns the number of distinct orderings of a sorted tuple.
func permutations(sorted []int) uint64 {
	n := len(sorted)
	fact := func(x int) uint64 {
		f := uint64(1)
		for i := 2; i <= x; i++ {
			f *= uint64(i)
		}
		return f
	}
	total := fact(n)
	run := 1
	for i := 1; i < n; i++ {
		if sorted[i] == sorted[i-1] {
			run++
		} else {
			total /= fact(run)
			run = 1
		}
	}
	return total / fact(run)
}

// FormatHigherDim renders rows as the text table printed by cmd/figures.
func FormatHigherDim(rows []HigherDimRow) string {
	var out strings.Builder
	out.WriteString("  k   domain     Gray-only   grouped (dil ≤ 2)\n")
	for _, r := range rows {
		fmt.Fprintf(&out, "%3d   1..%-6d %8.1f%% %12.1f%%\n", r.K, 1<<uint(r.N), r.GrayPct, r.CoveredPct)
	}
	return out.String()
}

// sortedCopy is a test helper used to canonicalize axis multisets.
func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}
