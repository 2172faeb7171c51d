// Package simnet simulates a Boolean-cube multicomputer with
// store-and-forward e-cube routing, the setting the paper's embeddings are
// designed for.  It charges every message one time step per link and
// serializes messages contending for the same directed link, so the cost of
// a communication round reflects both dilation (path lengths) and
// congestion (link contention) of the embedding that placed the processes.
//
// The simulator is deterministic: messages are injected in a fixed order
// and links service their queues first-come-first-served.
package simnet

import (
	"fmt"
	"sort"

	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/sweep"
	"repro/pkg/api"
)

// Network is an n-cube of nodes connected by bidirectional links, each
// direction with unit bandwidth (one flit per step).
type Network struct {
	N int // cube dimension
}

// New returns an n-cube network.
func New(n int) *Network {
	if n < 0 || n > 30 {
		panic(fmt.Sprintf("simnet: cube dimension %d out of range", n))
	}
	return &Network{N: n}
}

// Message is a unit-size message to be delivered between two cube nodes.
type Message struct {
	Src, Dst cube.Node
	// Path optionally fixes the route; nil uses e-cube routing.
	Path cube.Path
}

// directedLink identifies one direction of a cube link.
type directedLink struct {
	from cube.Node
	dim  int
}

// Run delivers all messages and returns the round statistics, the served
// api.SimRoundStats.
//
// The model: time advances in steps; a message occupies one link per step
// along its (fixed) path; each directed link carries at most one message
// per step; contending messages queue in injection order.  This is the
// classical store-and-forward model with unit-size messages, for which
// makespan ≥ max(MaxHops, MaxLink) and the gap above that bound reflects
// head-of-line blocking.
func (nw *Network) Run(msgs []Message) api.SimRoundStats {
	stats := api.SimRoundStats{Messages: len(msgs)}
	type flight struct {
		path cube.Path
		pos  int // next hop index
	}
	flights := make([]flight, 0, len(msgs))
	linkLoad := make(map[directedLink]int)
	for _, m := range msgs {
		p := m.Path
		if p == nil {
			p = cube.Route(m.Src, m.Dst)
		}
		if len(p) == 0 || p[0] != m.Src || p[len(p)-1] != m.Dst {
			panic("simnet: message path does not join src and dst")
		}
		if err := p.Validate(nw.N); err != nil {
			panic(fmt.Sprintf("simnet: %v", err))
		}
		hops := p.Len()
		stats.TotalHops += hops
		if hops > stats.MaxHops {
			stats.MaxHops = hops
		}
		for i := 1; i < len(p); i++ {
			l := linkOf(p[i-1], p[i])
			linkLoad[l]++
		}
		if hops > 0 {
			flights = append(flights, flight{path: p})
		}
	}
	for _, c := range linkLoad {
		if c > stats.MaxLink {
			stats.MaxLink = c
		}
	}
	if stats.Messages > 0 {
		stats.AvgHops = float64(stats.TotalHops) / float64(stats.Messages)
	}

	// Step the network until all flights land.
	for step := 0; len(flights) > 0; step++ {
		if step > stats.TotalHops+1 {
			panic("simnet: livelock — scheduling bug")
		}
		claimed := make(map[directedLink]bool)
		next := flights[:0]
		for i := range flights {
			f := flights[i]
			l := linkOf(f.path[f.pos], f.path[f.pos+1])
			if !claimed[l] {
				claimed[l] = true
				f.pos++
			}
			if f.pos+1 < len(f.path) {
				next = append(next, f)
			}
		}
		flights = next
		stats.Makespan = step + 1
	}
	return stats
}

func linkOf(a, b cube.Node) directedLink {
	l := cube.LinkBetween(a, b)
	return directedLink{from: a, dim: l.Dim}
}

// StencilExchange builds the message set of one nearest-neighbor exchange
// sweep on an embedded mesh: every mesh node sends one message to each of
// its mesh neighbors (both directions), the communication pattern of
// iterative PDE solvers on regular grids (§1 of the paper).  Wraparound
// edges are included when the embedding is marked Wrap.
func StencilExchange(e *embed.Embedding) []Message {
	var msgs []Message
	add := func(ed mesh.Edge) {
		a, b := e.Map[ed.U], e.Map[ed.V]
		msgs = append(msgs, Message{Src: a, Dst: b}, Message{Src: b, Dst: a})
	}
	guest.Get(e.Family).EachEdgeRange(e.Guest, 0, e.Guest.Nodes(), add)
	return msgs
}

// CompareEmbeddings runs the same stencil exchange over several embeddings
// of the same guest and returns the per-embedding stats, for the
// Gray-vs-decomposition communication experiment.  The rounds are
// independent simulations, so they run in parallel (one sweep item per
// embedding); each simulation is itself deterministic and the results are
// assembled by sorted name, so the output is identical for every worker
// count.
func CompareEmbeddings(es map[string]*embed.Embedding) map[string]api.SimRoundStats {
	return CompareEmbeddingsParallel(es, 0)
}

// CompareEmbeddingsParallel is CompareEmbeddings with an explicit worker
// count (values below one mean GOMAXPROCS, as in package sweep).
func CompareEmbeddingsParallel(es map[string]*embed.Embedding, workers int) map[string]api.SimRoundStats {
	names := make([]string, 0, len(es))
	for name := range es {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic item order
	stats := sweep.Map(len(names), workers, func(i int) api.SimRoundStats {
		e := es[names[i]]
		return New(e.N).Run(StencilExchange(e))
	})
	out := make(map[string]api.SimRoundStats, len(es))
	for i, name := range names {
		out[name] = stats[i]
	}
	return out
}
