package stats

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bits"
	"repro/internal/sweep"
)

// Figure2Row holds, for one domain bound 2^n, the cumulative percentage of
// ℓ1×ℓ2×ℓ3 meshes (1 ≤ ℓi ≤ 2^n, ordered triples) that achieve relative
// expansion one with methods 1..i, for i = 1..4 — the four curves S1..S4 of
// Figure 2 — plus the percentage that achieve relative expansion ≤ 2 after
// all four methods.
type Figure2Row struct {
	N          int        // domain bound exponent: 1 ≤ ℓi ≤ 2^N
	S          [4]float64 // cumulative % with ε = 1 after methods ≤ i
	S4Eps2     float64    // % with ε ≤ 2 after all methods
	Total      uint64     // number of ordered triples, 2^(3N)
	Exceptions uint64     // ordered triples with no method (ε = 1) at all
}

// CensusTally accumulates one domain bucket of the Figure 2 coverage
// census.  It is exported (with JSON tags) because the batch-job subsystem
// checkpoints running aggregates to disk and must round-trip them exactly;
// all fields are integers, so the tally — and everything rendered from it —
// is identical for any worker count, chunking, or resume point.
type CensusTally struct {
	Count [5]uint64 `json:"count"` // per method index 0..4 (0 = none works at ε=1)
	Eps2  uint64    `json:"eps2"`  // best ε ≤ 2 after all methods
	Total uint64    `json:"total"`
}

// censusTriple tallies one sorted triple a ≤ b ≤ c into its domain bucket,
// weighted by the number of distinct axis permutations.
func censusTriple(part []CensusTally, a, b, c int) {
	mult := permCount(a, b, c)
	bucket := bits.CeilLog2(uint64(c))
	if bucket == 0 {
		bucket = 1 // 1x1x1 lives in every domain, smallest is n=1
	}
	m := BestMethod(a, b, c)
	part[bucket].Count[m] += mult
	part[bucket].Total += mult
	if m == 0 {
		// ε = 1 unreachable; check ε ≤ 2 via method-4 family.
		e := RelExpansion(a, b, c)
		if e[3] <= 2 {
			part[bucket].Eps2 += mult
		}
	} else {
		part[bucket].Eps2 += mult
	}
}

// CensusShard tallies every sorted triple with fixed first axis a
// (a ≤ b ≤ c ≤ 2^maxN) into per-bucket tallies indexed 0..maxN.  It is the
// unit of work both for Figure2Parallel (one shard per goroutine, serial
// inside) and for the batch-job census (one shard per chunk, parallel over b
// inside with `workers`).  Cancellation is cooperative: a done ctx stops the
// shard between b-columns and returns ctx.Err() with a nil tally.
func CensusShard(ctx context.Context, a, maxN, workers int) ([]CensusTally, error) {
	limit := 1 << uint(maxN)
	if a < 1 || a > limit {
		return nil, fmt.Errorf("stats: census shard a=%d out of domain 1..%d", a, limit)
	}
	if sweep.Workers(workers) == 1 {
		part := make([]CensusTally, maxN+1)
		for b := a; b <= limit; b++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for c := b; c <= limit; c++ {
				censusTriple(part, a, b, c)
			}
		}
		return part, nil
	}
	parts, err := sweep.MapCtx(ctx, limit-a+1, workers, func(_ context.Context, i int) []CensusTally {
		b := a + i
		part := make([]CensusTally, maxN+1)
		for c := b; c <= limit; c++ {
			censusTriple(part, a, b, c)
		}
		return part
	})
	if err != nil {
		return nil, err
	}
	sum := parts[0]
	for _, part := range parts[1:] {
		MergeCensusTallies(sum, part)
	}
	return sum, nil
}

// MergeCensusTallies adds part into acc elementwise and returns acc; a nil
// acc (a census job's running tally before its first chunk) is allocated
// first.
func MergeCensusTallies(acc, part []CensusTally) []CensusTally {
	if acc == nil {
		acc = make([]CensusTally, len(part))
	}
	for n := range acc {
		for i := range acc[n].Count {
			acc[n].Count[i] += part[n].Count[i]
		}
		acc[n].Eps2 += part[n].Eps2
		acc[n].Total += part[n].Total
	}
	return acc
}

// CensusRows converts per-bucket tallies into the cumulative Figure 2 rows
// (one per domain exponent n = 1..maxN).
func CensusRows(maxN int, buckets []CensusTally) []Figure2Row {
	rows := make([]Figure2Row, 0, maxN)
	var cum CensusTally
	for n := 1; n <= maxN; n++ {
		for i := range cum.Count {
			cum.Count[i] += buckets[n].Count[i]
		}
		cum.Eps2 += buckets[n].Eps2
		cum.Total += buckets[n].Total
		row := Figure2Row{N: n, Total: cum.Total, Exceptions: cum.Count[0]}
		running := uint64(0)
		for i := 1; i <= 4; i++ {
			running += cum.Count[i]
			row.S[i-1] = 100 * float64(running) / float64(cum.Total)
		}
		row.S4Eps2 = 100 * float64(cum.Eps2) / float64(cum.Total)
		rows = append(rows, row)
	}
	return rows
}

// Figure2 sweeps every mesh contained in a 2^maxN-cube domain and returns
// one row per n = 1..maxN, using all available cores.  The paper's domain
// is maxN = 9 (512×512×512); its reported sequence at n = 9 is 28.5, 81.5,
// 82.9, 96.1.
func Figure2(maxN int) []Figure2Row { return Figure2Parallel(maxN, 0) }

// Figure2Parallel is Figure2 with an explicit worker count (< 1 means
// GOMAXPROCS; 1 is the serial reference).  The sweep enumerates sorted
// triples a ≤ b ≤ c once — sharded over a, the per-shard bucket
// accumulators merged in shard order — and weights each triple by its
// number of axis permutations; a triple is bucketed at the smallest n whose
// domain contains it (n = ⌈log₂ c⌉) and contributes to every larger domain
// cumulatively.  All tallies are integers, so the result is identical for
// every worker count.
func Figure2Parallel(maxN, workers int) []Figure2Row {
	if maxN < 1 || maxN > 10 {
		panic("stats: Figure2 domain exponent out of range")
	}
	limit := 1 << uint(maxN)
	parts := sweep.Map(limit, workers, func(i int) []CensusTally {
		part, err := CensusShard(context.Background(), i+1, maxN, 1)
		if err != nil {
			panic(err) // unreachable: a is in range and ctx never cancels
		}
		return part
	})
	buckets := parts[0]
	for _, part := range parts[1:] {
		MergeCensusTallies(buckets, part)
	}
	return CensusRows(maxN, buckets)
}

// permCount returns the number of distinct ordered triples obtained by
// permuting (a ≤ b ≤ c).
func permCount(a, b, c int) uint64 {
	switch {
	case a == b && b == c:
		return 1
	case a == b || b == c:
		return 3
	default:
		return 6
	}
}

// FormatFigure2 renders the rows as the text table printed by cmd/figures.
func FormatFigure2(rows []Figure2Row) string {
	var out strings.Builder
	out.WriteString("  n   domain        S1      S2      S3      S4   S4(ε≤2)\n")
	for _, r := range rows {
		fmt.Fprintf(&out, "%3d   1..%-6d %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
			r.N, 1<<uint(r.N), r.S[0], r.S[1], r.S[2], r.S[3], r.S4Eps2)
	}
	return out.String()
}

// Exception is a mesh for which none of the four methods yields a
// minimal-expansion dilation-two embedding.
type Exception struct {
	L1, L2, L3 int
	Nodes      int
}

// Exceptions enumerates the sorted shapes (ℓ1 ≤ ℓ2 ≤ ℓ3) with at most
// maxNodes nodes for which BestMethod is 0.  Section 5 quotes the answers:
// maxNodes=128 → only 5x5x5; maxNodes=256 adds 5x7x7, 3x9x9, 5x5x10 and
// 3x5x17.
func Exceptions(maxNodes int) []Exception { return ExceptionsParallel(maxNodes, 0) }

// ExceptionsParallel is Exceptions sharded over ℓ1; shard outputs are
// concatenated in ℓ1 order, reproducing the serial enumeration order
// exactly for any worker count.
func ExceptionsParallel(maxNodes, workers int) []Exception {
	amax := 0
	for a := 1; a*a*a <= maxNodes; a++ {
		amax = a
	}
	parts := sweep.Map(amax, workers, func(i int) []Exception {
		a := i + 1
		var part []Exception
		for b := a; a*b*b <= maxNodes; b++ {
			for c := b; a*b*c <= maxNodes; c++ {
				if BestMethod(a, b, c) == 0 {
					part = append(part, Exception{a, b, c, a * b * c})
				}
			}
		}
		return part
	})
	var out []Exception
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// EpsilonDistribution tabulates, for one domain bound 2^n, the fraction of
// meshes whose best relative expansion after all four methods is exactly ε,
// for ε = 1, 2, 4 and ≥8 — the full S4(ε) profile of Figure 2 rather than
// just its ε = 1 slice.
type EpsilonDistribution struct {
	N        int
	Eps1     float64
	Eps2     float64
	Eps4     float64
	EpsWorse float64
}

// Figure2Epsilon computes the ε distribution over the full domain 1..2^n.
func Figure2Epsilon(n int) EpsilonDistribution { return Figure2EpsilonParallel(n, 0) }

// Figure2EpsilonParallel is Figure2Epsilon sharded over the first axis with
// an explicit worker count; integer tallies make the result identical for
// any worker count.
func Figure2EpsilonParallel(n, workers int) EpsilonDistribution {
	d, err := Figure2EpsilonCtx(context.Background(), n, workers)
	if err != nil {
		panic(err) // unreachable: the background ctx never cancels
	}
	return d
}

// Figure2EpsilonCtx is Figure2EpsilonParallel with cooperative cancellation
// for the batch-job subsystem: a done ctx stops the sweep between first-axis
// shards and returns ctx.Err().
func Figure2EpsilonCtx(ctx context.Context, n, workers int) (EpsilonDistribution, error) {
	if n < 1 || n > 9 {
		panic("stats: Figure2Epsilon domain exponent out of range")
	}
	limit := 1 << uint(n)
	type epsAcc struct{ c1, c2, c4, cw, total uint64 }
	parts, err := sweep.MapCtx(ctx, limit, workers, func(_ context.Context, i int) epsAcc {
		a := i + 1
		var part epsAcc
		for b := a; b <= limit; b++ {
			for c := b; c <= limit; c++ {
				mult := permCount(a, b, c)
				part.total += mult
				e := RelExpansion(a, b, c)
				switch {
				case e[3] <= 1:
					part.c1 += mult
				case e[3] <= 2:
					part.c2 += mult
				case e[3] <= 4:
					part.c4 += mult
				default:
					part.cw += mult
				}
			}
		}
		return part
	})
	if err != nil {
		return EpsilonDistribution{}, err
	}
	var acc epsAcc
	for _, part := range parts {
		acc.c1 += part.c1
		acc.c2 += part.c2
		acc.c4 += part.c4
		acc.cw += part.cw
		acc.total += part.total
	}
	f := func(x uint64) float64 { return 100 * float64(x) / float64(acc.total) }
	return EpsilonDistribution{N: n, Eps1: f(acc.c1), Eps2: f(acc.c2), Eps4: f(acc.c4), EpsWorse: f(acc.cw)}, nil
}
