package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"

	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// The four workloads.  Each run is a sequence of rounds: a round boots a
// fresh embedserver, sends it a fixed number of ops generated from
// (seed, round), and stops it.  A run makes the workload's fixed rounds, then
// more until the timed phases add up to --seconds.  Fixed-size rounds keep
// the work per server lifetime, and so its cache sizes and peak memory,
// independent of how fast the server is.
const (
	serveHot  = "serve-hot"
	planCold  = "plan-cold"
	embedCold = "embed-cold"
	sweepJob  = "sweep-job"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{serveHot, planCold, embedCold, sweepJob}

type opKind uint8

const (
	kindPlan opKind = iota
	kindEmbed
	kindCompare
	kindJob
)

// op is one generated request; the server sees only these.
type op struct {
	kind       opKind
	family     string     // request family; "" is mesh
	shape      mesh.Shape // in the order sent
	includeMap bool
	sweep      *api.PlanSweepParams // kindJob only
}

// key identifies the request body, so serve-hot can match each answer to
// the warm-pass answer for the same body.
func (o *op) key() string {
	return fmt.Sprintf("%d|%s|%s|%t", o.kind, o.family, o.shape, o.includeMap)
}

// workload describes one traffic mix.
type workload struct {
	size    int  // ops per round at scale 1 (sweep-job: the sweep's max_axis)
	clients int  // closed-loop clients; 0 means runtime.NumCPU()
	jobs    bool // the server needs -data-dir
	// fixedRounds is the number of rounds every run makes whatever
	// --seconds is; dil2_minimal_share and the count metrics come from
	// these rounds only, so they depend on the seed alone.
	fixedRounds int
	gen         func(rng *rand.Rand, size int) []op
}

// Round sizes keep a round to one to eight seconds at the seed commit.  The
// fixed rounds take at most about 20 s and give enough answers that
// dil2_minimal_share spreads by about 2% or less from seed to seed (its
// interquartile range on embed-cold).  Plan-cold rounds are larger
// than the server's 1024-entry result cache, so it fills and evicts.
// Embed-cold rounds stay well below it: full of 2^10..2^17-node embeddings
// the server peaks at about 2.4 GB of resident memory.
var workloads = map[string]workload{
	serveHot:  {size: 15000, fixedRounds: 4, gen: genServeHot},
	planCold:  {size: 1500, fixedRounds: 5, gen: genPlanCold},
	embedCold: {size: 200, fixedRounds: 7, gen: genEmbedCold},
	sweepJob:  {size: 64, clients: 1, jobs: true, fixedRounds: 1, gen: genSweepJob},
}

func (w workload) numClients() int {
	if w.clients > 0 {
		return w.clients
	}
	return runtime.NumCPU()
}

// roundSize scales the op count; tests shrink rounds with scale < 1.  A
// round keeps at least four ops (the sweep at least a 4-axis domain).
func (w workload) roundSize(scale float64) int {
	return max(int(math.Round(float64(w.size)*scale)), 4)
}

// roundOps generates the ops of one round.  The same (seed, round) always
// gives the same ops.
func (w workload) roundOps(seed int64, round int, scale float64) []op {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(round)))
	return w.gen(rng, w.roundSize(scale))
}

// hotShapes is the small-shape pool of the serving mix (the same twelve
// canonical shapes cmd/loadtest uses).
var hotShapes = []mesh.Shape{
	{3, 4, 5}, {4, 4, 4}, {2, 5, 7}, {3, 3, 8}, {4, 5, 6}, {2, 4, 8},
	{5, 5, 5}, {3, 5, 6}, {2, 6, 7}, {4, 4, 7}, {2, 3, 9}, {3, 6, 6},
}

// genServeHot: 45% plan, 30% embed (a third with the node map), 25%
// compare over hotShapes, axes permuted per op.
func genServeHot(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		sh := hotShapes[rng.IntN(len(hotShapes))].Clone()
		rng.Shuffle(len(sh), func(a, b int) { sh[a], sh[b] = sh[b], sh[a] })
		switch r := rng.Float64(); {
		case r < 0.45:
			ops[i] = op{kind: kindPlan, shape: sh}
		case r < 0.75:
			ops[i] = op{kind: kindEmbed, shape: sh, includeMap: rng.IntN(3) == 0}
		default:
			ops[i] = op{kind: kindCompare, shape: sh}
		}
	}
	return ops
}

// Plan-cold draws guests with axes uniform on 2..planMaxAxis and at most
// planMaxNodes nodes.
const (
	planMaxAxis  = 96
	planMaxNodes = 1 << 18
)

// planStrata is the candidate pool per op from which plan-cold picks one
// guest per node-count stratum.
const planStrata = 8

// genPlanCold: /v1/plan only, every op a distinct guest under its family's
// canonical form.  A guest's planning cost varies by orders of magnitude
// with its family and size, so a plain draw makes a round's work swing with
// the draw.  Rounds are therefore stratified: exactly 80% mesh, 10% torus
// and 10% cylinder, and within each family one guest drawn from each
// node-count stratum of a planStrata-times larger candidate pool.  Axes are
// drawn independently, so the order sent is a random permutation; the ops
// are shuffled.
func genPlanCold(rng *rand.Rand, n int) []op {
	seen := make(map[string]bool, planStrata*n)
	ops := make([]op, 0, n)
	for _, fq := range []struct {
		fam guest.Family
		n   int
	}{{guest.Torus, n / 10}, {guest.Cylinder, n / 10}, {guest.Mesh, n - 2*(n/10)}} {
		pool := make([]mesh.Shape, 0, planStrata*fq.n)
		for len(pool) < planStrata*fq.n {
			sh := mesh.Shape{2 + rng.IntN(planMaxAxis-1), 2 + rng.IntN(planMaxAxis-1), 2 + rng.IntN(planMaxAxis-1)}
			if sh.Nodes() > planMaxNodes {
				continue
			}
			canon, _ := guest.Get(fq.fam).Canonical(sh)
			if k := fq.fam.String() + "|" + canon.String(); !seen[k] {
				seen[k] = true
				pool = append(pool, sh)
			}
		}
		slices.SortStableFunc(pool, func(a, b mesh.Shape) int { return cmp.Compare(a.Nodes(), b.Nodes()) })
		for i := 0; i < fq.n; i++ {
			ops = append(ops, op{kind: kindPlan, family: familyWire(fq.fam), shape: pool[planStrata*i+rng.IntN(planStrata)]})
		}
	}
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// Embed-cold meshes have between 2^embedMinLog and 2^embedMaxLog nodes.
const (
	embedMinLog = 10
	embedMaxLog = 17
)

// genEmbedCold: /v1/embed without the map, every op a distinct canonical
// (sorted) 3D mesh whose node count is log-uniform on 2^10..2^17, stratified:
// op i targets the i-th of n equal slices of that log range, because build,
// verify and measure cost grows with the node count.  The target's log is
// split among the axes by random weights in [0.2, 1), which keeps the
// aspect ratio below about 2^12.  The ops are shuffled.
func genEmbedCold(rng *rand.Rand, n int) []op {
	ops := make([]op, 0, n)
	seen := make(map[string]bool, n)
	lo, hi := float64(embedMinLog)*math.Ln2, float64(embedMaxLog)*math.Ln2
	for i := 0; i < n; {
		lnT := lo + (float64(i)+rng.Float64())/float64(n)*(hi-lo)
		var w [3]float64
		sum := 0.0
		for j := range w {
			w[j] = 0.2 + 0.8*rng.Float64()
			sum += w[j]
		}
		sh := make(mesh.Shape, 3)
		for j := range sh {
			sh[j] = max(2, int(math.Round(math.Exp(w[j]/sum*lnT))))
		}
		nodes := sh.Nodes()
		sh, _ = sh.SortCanonical()
		if nodes < 1<<embedMinLog || nodes > 1<<embedMaxLog || seen[sh.String()] {
			continue
		}
		seen[sh.String()] = true
		ops = append(ops, op{kind: kindEmbed, shape: sh})
		i++
	}
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// genSweepJob: one plansweep job per round over every 3D mesh with axes up
// to maxAxis (64: 45760 shapes of at most 2^18 nodes).  The seed trims up to
// a sixty-fourth off the node cap (maxAxis³); at maxAxis 64 that drops
// 64x64x64 (on all but one seed in 4097) and nothing else, so every seed
// does the same work.
func genSweepJob(rng *rand.Rand, maxAxis int) []op {
	top := maxAxis * maxAxis * maxAxis
	return []op{{kind: kindJob, sweep: &api.PlanSweepParams{
		Dims: 3, MaxAxis: maxAxis, MaxNodes: top - rng.IntN(top/64+1), Family: "mesh",
	}}}
}

// familyWire is a family's request spelling: mesh is the default and is
// sent as the empty field, as pre-family clients do.
func familyWire(f guest.Family) string {
	if f == guest.Mesh {
		return ""
	}
	return f.String()
}
