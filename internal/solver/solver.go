// Package solver searches for low-dilation minimal-expansion embeddings of
// small meshes in Boolean cubes.  It is the tool with which the "direct
// embedding" tables of Section 3.3 (3x5, 7x9, 11x11, 3x3x3, 3x3x7) are
// re-discovered; the found maps are frozen into package direct and verified
// by its tests.  The search is simulated annealing over node maps, then a
// polishing pass that lowers the average dilation (Polish); both are
// deterministic for a given seed.
package solver

import (
	"math/rand"

	"repro/internal/bits"
	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/mesh"
)

// Options configures a search.
type Options struct {
	MaxDilation int   // target maximum dilation (e.g. 2)
	Seed        int64 // RNG seed; searches are deterministic per seed
	Restarts    int   // annealing restarts (default 8)
	Iterations  int   // annealing iterations per restart (default 200k)
}

func (o Options) withDefaults() Options {
	if o.MaxDilation == 0 {
		o.MaxDilation = 2
	}
	if o.Restarts == 0 {
		o.Restarts = 8
	}
	if o.Iterations == 0 {
		o.Iterations = 200_000
	}
	return o
}

// Find searches for an embedding of the shape into its minimal cube with
// dilation ≤ opts.MaxDilation.  It returns nil if the search fails within
// its budget (which does not prove non-existence).  A found embedding is
// polished: a second annealing pass lowers the average dilation while
// keeping the maximum-dilation constraint as a hard invariant.
func Find(s mesh.Shape, opts Options) *embed.Embedding {
	opts = opts.withDefaults()
	n := s.MinCubeDim()
	if s.GrayMinimal() {
		return embed.Gray(s) // dilation 1, nothing to search for
	}
	if e := anneal(s, n, opts); e != nil {
		Polish(e, opts)
		return e
	}
	return nil
}

// Polish anneals an already-feasible embedding to reduce the total (hence
// average) edge dilation, rejecting any move that would push an edge above
// opts.MaxDilation.  Lower average dilation also tends to lower congestion,
// since fewer edges need multi-hop paths.
func Polish(e *embed.Embedding, opts Options) {
	opts = opts.withDefaults()
	s := e.Guest
	el := buildEdges(s)
	guestN := s.Nodes()
	hostN := 1 << uint(e.N)
	maxDil := opts.MaxDilation

	slot := make([]cube.Node, hostN)
	copy(slot, e.Map)
	used := make([]bool, hostN)
	for _, h := range e.Map {
		used[h] = true
	}
	next := guestN
	for v := 0; v < hostN; v++ {
		if !used[v] {
			slot[next] = cube.Node(v)
			next++
		}
	}

	dist := func(a, b cube.Node) int { return bits.Hamming(uint64(a), uint64(b)) }
	nodeSum := func(g int) (sum, worst int) {
		for _, h := range el.adj[g] {
			d := dist(slot[g], slot[h])
			sum += d
			if d > worst {
				worst = d
			}
		}
		return
	}

	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5f5f5f))
	temp := 0.8
	cooling := 1 - 4.0/float64(opts.Iterations)
	for it := 0; it < opts.Iterations; it++ {
		p := rng.Intn(guestN)
		q := rng.Intn(hostN)
		if p == q {
			continue
		}
		sumP, _ := nodeSum(p)
		sumQ := 0
		if q < guestN {
			sumQ, _ = nodeSum(q)
		}
		slot[p], slot[q] = slot[q], slot[p]
		newSumP, worstP := nodeSum(p)
		newSumQ, worstQ := 0, 0
		if q < guestN {
			newSumQ, worstQ = nodeSum(q)
		}
		delta := (newSumP + newSumQ) - (sumP + sumQ)
		feasible := worstP <= maxDil && worstQ <= maxDil
		if feasible && (delta <= 0 || rng.Float64() < fastExp(-float64(delta)/temp)) {
			// accept
		} else {
			slot[p], slot[q] = slot[q], slot[p]
		}
		temp *= cooling
		if temp < 0.02 {
			temp = 0.02
		}
	}
	copy(e.Map, slot[:guestN])
}

// edgeList precomputes guest adjacency as flat index pairs.
type edgeList struct {
	pairs [][2]int32
	adj   [][]int32
}

func buildEdges(s mesh.Shape) *edgeList {
	el := &edgeList{adj: make([][]int32, s.Nodes())}
	s.EachEdge(func(e mesh.Edge) {
		el.pairs = append(el.pairs, [2]int32{int32(e.U), int32(e.V)})
		el.adj[e.U] = append(el.adj[e.U], int32(e.V))
		el.adj[e.V] = append(el.adj[e.V], int32(e.U))
	})
	return el
}

// anneal runs simulated annealing over bijections from guest∪padding onto
// the 2^n cube nodes.  Cost = Σ_e max(0, dist(e) − maxDil); a zero-cost
// state is a feasible embedding.  Moves swap the cube images of two
// positions (guest or padding).
func anneal(s mesh.Shape, n int, opts Options) *embed.Embedding {
	el := buildEdges(s)
	guestN := s.Nodes()
	hostN := 1 << uint(n)
	maxDil := opts.MaxDilation

	edgeCost := func(a, b cube.Node) int {
		d := bits.Hamming(uint64(a), uint64(b))
		if d > maxDil {
			return d - maxDil
		}
		return 0
	}

	for restart := 0; restart < opts.Restarts; restart++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(restart)*7919))
		// position p (0..hostN-1) holds cube node slot[p]; guest node g
		// lives at position g; positions ≥ guestN are padding.
		slot := make([]cube.Node, hostN)
		// Greedy-ish start: Gray code order of a snake through the mesh
		// tends to start with low cost.
		startGray(s, slot, rng)

		nodeCost := func(g int) int {
			c := 0
			for _, h := range el.adj[g] {
				c += edgeCost(slot[g], slot[h])
			}
			return c
		}
		total := 0
		for _, e := range el.pairs {
			total += edgeCost(slot[e[0]], slot[e[1]])
		}
		if total == 0 {
			return finish(s, n, slot)
		}

		temp := 2.5
		cooling := 1 - 6.0/float64(opts.Iterations)
		for it := 0; it < opts.Iterations && total > 0; it++ {
			// Pick a violated guest node half of the time to focus moves.
			var p int
			if it%2 == 0 {
				p = rng.Intn(guestN)
			} else {
				p = rng.Intn(hostN)
			}
			q := rng.Intn(hostN)
			if p == q {
				continue
			}
			delta := 0
			if p < guestN {
				delta -= nodeCost(p)
			}
			if q < guestN {
				delta -= nodeCost(q)
			}
			slot[p], slot[q] = slot[q], slot[p]
			if p < guestN {
				delta += nodeCost(p)
			}
			if q < guestN {
				delta += nodeCost(q)
			}
			// If p and q are guest-adjacent, their shared edge was counted
			// twice on both sides; the double count cancels in the delta,
			// so no correction is needed.
			if delta <= 0 || rng.Float64() < fastExp(-float64(delta)/temp) {
				total += delta
			} else {
				slot[p], slot[q] = slot[q], slot[p] // reject
			}
			temp *= cooling
			if temp < 0.05 {
				temp = 0.05
			}
		}
		if total == 0 {
			return finish(s, n, slot)
		}
	}
	return nil
}

// startGray initializes slot with a snake-order Gray assignment followed by
// the unused codes, then applies a small random shuffle.
func startGray(s mesh.Shape, slot []cube.Node, rng *rand.Rand) {
	hostN := len(slot)
	guestN := s.Nodes()
	used := make([]bool, hostN)
	// Snake enumeration of guest nodes → Gray codes of 0..guestN-1.
	for i, g := range s.SnakeOrder() {
		c := cube.Node(uint64(i) ^ (uint64(i) >> 1))
		slot[g] = c
		used[c] = true
	}
	next := guestN
	for v := 0; v < hostN; v++ {
		c := cube.Node(uint64(v) ^ (uint64(v) >> 1))
		if !used[c] {
			slot[next] = c
			next++
		}
	}
	// Light shuffle of padding to diversify restarts.
	for i := guestN; i < hostN; i++ {
		j := guestN + rng.Intn(hostN-guestN)
		slot[i], slot[j] = slot[j], slot[i]
	}
}

func finish(s mesh.Shape, n int, slot []cube.Node) *embed.Embedding {
	e := embed.New(s, n)
	copy(e.Map, slot[:s.Nodes()])
	return e
}

// fastExp is a cheap exp(-x) approximation adequate for Metropolis tests.
func fastExp(x float64) float64 {
	if x < -20 {
		return 0
	}
	// exp(x) ≈ (1 + x/64)^64 for x ≤ 0
	y := 1 + x/64
	if y < 0 {
		return 0
	}
	y *= y
	y *= y
	y *= y
	y *= y
	y *= y
	y *= y
	return y
}
