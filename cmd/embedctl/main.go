// Command embedctl plans, builds, verifies and prints mesh-in-cube
// embeddings from the command line.
//
// Usage:
//
//	embedctl plan 5x6x7              # show the decomposition plan
//	embedctl plan -family torus 6x10 # plan a non-mesh guest family
//	embedctl embed 5x6x7             # print metrics and the node map
//	embedctl embed -family torus 6x10 # wraparound mesh
//	embedctl embed -family tree 127  # complete binary tree guest
//	embedctl embed -gray 5x6x7       # Gray-code baseline
//	embedctl embed -o map.json 5x6x7 # save the embedding as JSON
//	embedctl verify map.json         # reload and verify a saved embedding
//	embedctl manyone -cube 5 19x19   # many-to-one per Corollary 5
//	embedctl compare 12x20           # decomposition vs Gray vs reshaping
//	embedctl sweep -dims 3 -max 16   # plan every sorted shape in a range
//	embedctl artifact build -o p.art # precompute a plan-census artifact
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/manyone"
	"repro/internal/mesh"
	"repro/internal/reshape"
	"repro/pkg/api"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  embedctl plan [-family F] <shape>     show the decomposition plan
  embedctl embed [-family F|-gray] [-map] [-o file] <shape>
                                        build, verify and measure; F is the
                                        guest family (mesh, torus, cylinder,
                                        tree); -o saves the embedding as the
                                        JSON object /v1/embed serves with
                                        include_map
  embedctl verify <file>                reload and verify a saved embedding
                                        (from embed -o, or the embedding
                                        object of a /v1/embed response)
  embedctl manyone -cube <n> <shape>    many-to-one embedding (Corollary 5)
  embedctl compare <l1>x<l2>            reshaping-vs-decomposition table
  embedctl sweep [-family F] [-dims k] [-max L] [-nodes N] [-workers W]
                 [-build]
                                        plan every sorted k-D shape with axes
                                        ≤ L and ≤ N nodes through one shared
                                        Planner; report dilation histogram
                                        and cache statistics
  embedctl job submit|status|watch|results|events|cancel|list
                                        drive batch-sweep jobs on a running
                                        embedserver; watch polls progress,
                                        events streams live SSE result rows
                                        (run "embedctl job" for the full flag
                                        list)
  embedctl peers [join]                 list a running embedserver's fabric
                                        peers, or register a worker with a
                                        coordinator (run "embedctl peers -h"
                                        for flags)
  embedctl artifact build|inspect|verify
                                        build, inspect and verify the
                                        plan-census artifacts served by
                                        embedserver -plan-artifact (run
                                        "embedctl artifact" for flags)
  embedctl explain [-build] <shape>     show the planner's strategy
                                        provenance: every strategy tried,
                                        skipped (with the gate reason) or
                                        chosen, per sub-shape
  embedctl trace [-o trace.json] <shape>
                                        plan+build+measure under a span
                                        trace; write Chrome trace-event JSON
                                        for chrome://tracing / Perfetto
  embedctl trace -job <id> [-addr URL] [-o trace.json]
                                        export a finished job's stitched
                                        trace (distributed: coordinator +
                                        every worker) from a server
shapes look like 5x6x7
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "plan":
		cmdPlan(args)
	case "embed":
		cmdEmbed(args)
	case "verify":
		cmdVerify(args)
	case "manyone":
		cmdManyOne(args)
	case "compare":
		cmdCompare(args)
	case "sweep":
		cmdSweep(args)
	case "job":
		cmdJob(args)
	case "peers":
		cmdPeers(args)
	case "artifact":
		cmdArtifact(args)
	case "explain":
		cmdExplain(args)
	case "trace":
		cmdTrace(args)
	default:
		usage()
	}
}

// check exits 1 with err on stderr, the failure of a command whose usage
// was valid.  Usage errors exit 2 at their own sites.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "embedctl:", err)
		os.Exit(1)
	}
}

func parseShape(args []string) mesh.Shape {
	if len(args) != 1 {
		usage()
	}
	s, err := mesh.ParseShape(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "embedctl:", err)
		os.Exit(2)
	}
	return s
}

// parseFamily resolves a -family flag value ("" means mesh).
func parseFamily(name string) guest.Family {
	d, err := guest.ByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "embedctl:", err)
		os.Exit(2)
	}
	return d.Family
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	family := fs.String("family", "", "guest family: mesh (default), torus, cylinder or tree")
	_ = fs.Parse(args)
	fam := parseFamily(*family)
	s := parseShape(fs.Args())
	p, err := core.PlanGuest(fam, s, core.DefaultOptions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "embedctl:", err)
		os.Exit(2)
	}
	fmt.Printf("shape:        %s (%d nodes, family %s)\n", s, s.Nodes(), fam)
	fmt.Printf("minimal cube: %d dimensions (%d nodes)\n", s.MinCubeDim(), 1<<uint(s.MinCubeDim()))
	fmt.Printf("plan:         %s\n", p)
	fmt.Printf("paper method: %d\n", p.Method)
	dil := p.DilationBound()
	if dil < 0 {
		fmt.Printf("dilation:     no a-priori bound (snake fallback; build to measure)\n")
	} else {
		fmt.Printf("dilation:     ≤ %d guaranteed by construction\n", dil)
	}
	c := bounds.PlanCertificate(fam, s, p.CubeDim, dil)
	printLowerBounds(c)
	switch {
	case c.Optimal:
		fmt.Printf("certificate:  dilation-optimal (gap 0: the bound meets the floor)\n")
	case c.DilationGap < 0:
		fmt.Printf("certificate:  dilation gap unknown (no a-priori bound; embed to measure)\n")
	default:
		fmt.Printf("certificate:  dilation gap ≤ %d over the floor\n", c.DilationGap)
	}
}

func cmdEmbed(args []string) {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	gray := fs.Bool("gray", false, "use the Gray-code baseline instead of decomposition")
	family := fs.String("family", "", "guest family: mesh (default), torus, cylinder or tree")
	dumpMap := fs.Bool("map", false, "print the full node map")
	outFile := fs.String("o", "", "write the embedding to this file as JSON")
	_ = fs.Parse(args)
	fam := parseFamily(*family)
	s := parseShape(fs.Args())

	var e *embed.Embedding
	if *gray {
		if fam != guest.Mesh {
			fmt.Fprintln(os.Stderr, "embedctl: -gray applies to the mesh family only")
			os.Exit(2)
		}
		e = embed.Gray(s)
	} else {
		p, err := core.PlanGuest(fam, s, core.DefaultOptions)
		if err != nil {
			fmt.Fprintln(os.Stderr, "embedctl:", err)
			os.Exit(2)
		}
		fmt.Printf("plan: %s\n", p)
		e = p.Build()
	}
	if err := e.Verify(); err != nil {
		fmt.Fprintln(os.Stderr, "embedctl: INVALID EMBEDDING:", err)
		os.Exit(1)
	}
	m := e.Measure()
	fmt.Println(m)
	printMeasuredCertificate(fam, s, m)
	if *outFile != "" {
		data, err := json.Marshal(e.Serial())
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		check(err)
		fmt.Printf("written to %s\n", *outFile)
	}
	if *dumpMap {
		coord := make([]int, s.Dims())
		for idx, h := range e.Map {
			s.CoordInto(idx, coord)
			fmt.Printf("%v -> %0*b\n", coord, e.N, h)
		}
	}
}

func cmdVerify(args []string) {
	if len(args) != 1 {
		usage()
	}
	e, err := readEmbedding(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "embedctl: INVALID:", err)
		os.Exit(1)
	}
	oneToOne := e.LoadFactor() == 1
	if oneToOne {
		if err := e.Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "embedctl: INVALID:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("valid (one-to-one: %v)\n%s\n", oneToOne, e.Measure())
}

// readEmbedding loads an embedding file: the api.EmbeddingSerial object
// embed -o writes and /v1/embed serves as its include_map "embedding"
// member.  A whole saved /v1/embed response is refused by name — its
// top-level API "version" would otherwise be misread as the embedding
// schema version.
func readEmbedding(path string) (*embed.Embedding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Embedding json.RawMessage `json:"embedding"`
	}
	if json.Unmarshal(data, &probe) == nil && probe.Embedding != nil {
		return nil, fmt.Errorf("%s is a whole /v1/embed response; verify its \"embedding\" object (e.g. jq .embedding)", path)
	}
	var s api.EmbeddingSerial
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return embed.FromSerial(&s)
}

func cmdManyOne(args []string) {
	fs := flag.NewFlagSet("manyone", flag.ExitOnError)
	n := fs.Int("cube", 0, "target cube dimension")
	_ = fs.Parse(args)
	s := parseShape(fs.Args())
	e, plan, ok := manyone.Corollary5(s, *n)
	if !ok {
		fmt.Fprintf(os.Stderr, "embedctl: no Corollary-5 cover for %s into a %d-cube\n", s, *n)
		os.Exit(1)
	}
	if err := e.VerifyManyToOne(); err != nil {
		fmt.Fprintln(os.Stderr, "embedctl: INVALID EMBEDDING:", err)
		os.Exit(1)
	}
	fmt.Printf("cover: loads %v, powers %v\n", plan.Loads, plan.Pows)
	fmt.Printf("%s (optimal load %d)\n", e.Measure(), manyone.OptimalLoad(s, *n))
}

func cmdCompare(args []string) {
	s := parseShape(args)
	if s.Dims() != 2 {
		fmt.Fprintln(os.Stderr, "embedctl: compare needs a two-dimensional shape")
		os.Exit(2)
	}
	rows := reshape.Compare(s)
	fmt.Printf("%-14s %4s %9s %8s %6s %6s %8s\n", "technique", "dil", "avgdil", "wl", "cong", "cube", "minimal")
	for _, row := range rows {
		fmt.Printf("%-14s %4d %9.4f %8d %6d %6d %8v\n",
			row.Technique, row.Dilation, row.AvgDilation, row.Wirelength, row.Congestion, row.CubeDim, row.Minimal)
	}

	// Certify the comparison as a whole at the minimal cube, against the
	// floors of internal/bounds.  The snake rewrap always reaches the
	// minimal cube, so at least one row qualifies.
	certRows := make([]api.CompareRow, len(rows))
	for i, row := range rows {
		certRows[i].Metrics = api.Metrics{CubeDim: row.CubeDim, Dilation: row.Dilation, Wirelength: row.Wirelength, Congestion: row.Congestion}
	}
	c, ok := bounds.CompareCertificate(guest.Mesh, s, certRows)
	if !ok {
		return
	}
	lb := c.LowerBounds
	fmt.Printf("lower bounds (in the minimal %d-cube): dilation ≥ %d, wirelength ≥ %d, congestion ≥ %d\n",
		c.CubeDim, lb.Dilation, lb.Wirelength, lb.Congestion)
	if c.Optimal {
		fmt.Printf("certificate: best minimal-cube technique is optimal on all three measures\n")
	} else {
		fmt.Printf("certificate: gap_to_optimal=%d (dilation +%d, wirelength +%d, congestion +%d)\n",
			c.GapToOptimal, c.DilationGap, c.WirelengthGap, c.CongestionGap)
	}
}

// printMeasuredCertificate prints the optimality certificate for fully
// measured metrics: every gap is evaluable against the floors of
// internal/bounds at the embedding's cube.
func printMeasuredCertificate(fam guest.Family, s mesh.Shape, m api.Metrics) {
	c := bounds.MeasuredCertificate(fam, s, m)
	printLowerBounds(c)
	if c.Optimal {
		fmt.Printf("certificate:  optimal (dilation, wirelength and congestion all meet their floors)\n")
	} else {
		fmt.Printf("certificate:  gap_to_optimal=%d (dilation +%d, wirelength +%d, congestion +%d)\n",
			c.GapToOptimal, c.DilationGap, c.WirelengthGap, c.CongestionGap)
	}
}

// printLowerBounds prints the certificate's floors in its cube.
func printLowerBounds(c api.Certificate) {
	lb := c.LowerBounds
	fmt.Printf("lower bounds: dilation ≥ %d, wirelength ≥ %d, congestion ≥ %d (in a %d-cube)\n",
		lb.Dilation, lb.Wirelength, lb.Congestion, c.CubeDim)
}
