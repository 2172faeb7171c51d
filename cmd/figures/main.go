// Command figures regenerates every table and figure of the paper as text.
//
// Usage:
//
//	figures                 # everything
//	figures -only fig1      # one artifact: fig1, fig2, exceptions,
//	                        # twodim, examples, wrap, manyone, avgdil,
//	                        # reshape, simnet, highdim
//	figures -n 7            # smaller Figure 2 domain (default 9)
//	figures -workers 4      # sweep worker pool size (default GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/manyone"
	"repro/internal/mesh"
	"repro/internal/reshape"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/wrap"
	"repro/pkg/api"
)

func main() {
	only := flag.String("only", "", "emit a single artifact (fig1, fig2, exceptions, twodim, examples, wrap, manyone, avgdil, reshape, simnet, highdim)")
	maxN := flag.Int("n", 9, "Figure 2 domain exponent (1..2^n per axis)")
	samples := flag.Int("samples", 1_000_000, "Monte-Carlo samples for Figure 1")
	flag.IntVar(&workers, "workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	flag.Parse()

	artifacts := []struct {
		name string
		fn   func(n, samples int)
	}{
		{"fig1", figure1},
		{"fig2", figure2},
		{"exceptions", exceptions},
		{"twodim", twoDim},
		{"examples", examples},
		{"wrap", wraparound},
		{"manyone", manyOne},
		{"avgdil", avgDilation},
		{"reshape", reshapeAblation},
		{"simnet", simnetExperiment},
		{"highdim", higherDim},
	}
	ran := false
	for _, a := range artifacts {
		if *only == "" || *only == a.name {
			a.fn(*maxN, *samples)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "figures: unknown artifact %q\n", *only)
		os.Exit(2)
	}
}

// workers sizes the worker pool for the enumeration sweeps; results are
// deterministic for any value (see internal/sweep).
var workers int

func header(title string) {
	fmt.Printf("\n===== %s =====\n", title)
}

func figure1(_, samples int) {
	header("Figure 1: asymptotic fraction of k-D meshes with minimal-expansion Gray embedding")
	rows := stats.Figure1(10, samples, 20260706)
	fmt.Print(stats.FormatFigure1(rows))
	fmt.Printf("paper quotes f2 ≈ 0.61, f3 ≈ 0.27\n")
	fmt.Printf("exact finite-domain (k=2, 1..1024): %.4f\n", stats.ExactGrayFraction(2, 10))
	fmt.Printf("exact finite-domain (k=3, 1..512): %.4f (matches Figure 2's S1 at n=9)\n",
		stats.ExactGrayFraction(3, 9))
}

func figure2(maxN, _ int) {
	header(fmt.Sprintf("Figure 2: cumulative %% of 3-D meshes (1..2^n per axis) at relative expansion 1"))
	rows := stats.Figure2Parallel(maxN, workers)
	fmt.Print(stats.FormatFigure2(rows))
	if maxN == 9 {
		last := rows[len(rows)-1]
		fmt.Printf("paper's sequence at n=9: 28.5%%, 81.5%%, 82.9%%, 96.1%% — measured %.1f / %.1f / %.1f / %.1f\n",
			last.S[0], last.S[1], last.S[2], last.S[3])
	}
}

func exceptions(_, _ int) {
	header("§5 exceptional meshes (no minimal-expansion dilation-2 method applies)")
	for _, limit := range []int{128, 256} {
		ex := stats.ExceptionsParallel(limit, workers)
		names := make([]string, len(ex))
		for i, e := range ex {
			names[i] = fmt.Sprintf("%dx%dx%d", e.L1, e.L2, e.L3)
		}
		fmt.Printf("≤ %3d nodes: %s\n", limit, strings.Join(names, ", "))
	}
	fmt.Println("paper: ≤128 only 5x5x5; ≤256 adds 5x7x7, 3x9x9, 5x5x10, 3x5x17")
}

func twoDim(_, _ int) {
	header("§3.3: all 2-D meshes ≤ 64 nodes, constructive dilation/congestion")
	var over []string
	count := 0
	for a := 1; a <= 64; a++ {
		for b := a; a*b <= 64; b++ {
			s := mesh.Shape{a, b}
			e := core.PlanShape(s, core.DefaultOptions).Build()
			if err := e.Verify(); err != nil {
				panic(err)
			}
			count++
			if e.Dilation() > 2 {
				over = append(over, fmt.Sprintf("%s (dil %d)", s, e.Dilation()))
			}
		}
	}
	if len(over) == 0 {
		fmt.Printf("%d shapes built; ALL have dilation ≤ 2\n", count)
	} else {
		fmt.Printf("%d shapes built; dilation > 2 only for: %s\n", count, strings.Join(over, ", "))
	}
	fmt.Println("paper: all except 3x21; axis folding (3x21 ⊂ 3x3x7) removes the paper's exception")
}

func examples(_, _ int) {
	header("§4.2/§5 worked examples: plans and measured metrics")
	for _, str := range []string{
		"12x20", "3x25x3", "3x3x23", "5x6x7", "21x9x5", "5x10x11", "6x11x7",
		"12x16x20x32",
	} {
		s := mesh.MustParse(str)
		p := core.PlanShape(s, core.DefaultOptions)
		e := p.Build()
		if err := e.Verify(); err != nil {
			panic(err)
		}
		fmt.Printf("%-12s method %d  plan %-46s  %s\n", str, p.Method, p, e.Measure())
	}
}

func wraparound(_, _ int) {
	header("§6 / Corollary 3: two-dimensional wraparound meshes")
	var quarterOK, halvingOK, evenOK, total int
	for a := 1; a <= 64; a++ {
		for b := a; b <= 64; b++ {
			total++
			s := mesh.Shape{a, b}
			if wrap.QuarteringMinimal(s) {
				quarterOK++
			}
			if wrap.HalvingMinimal(s) {
				halvingOK++
			}
			if wrap.AllEven(s) {
				evenOK++
			}
		}
	}
	fmt.Printf("of %d sorted 2-D torus shapes ≤ 64x64: quartering-minimal %d, halving-minimal %d, all-even %d\n",
		total, quarterOK, halvingOK, evenOK)
	fmt.Println("\nconstructive samples (dilation bound per Corollary 3):")
	for _, str := range []string{"6x10", "12x11", "5x7", "12x20", "9x9", "17x3"} {
		s := mesh.MustParse(str)
		e := wrap.Embed(s, core.DefaultOptions)
		if err := e.Verify(); err != nil {
			panic(err)
		}
		fmt.Printf("  torus %-7s %s\n", str, e.Measure())
	}
}

func manyOne(_, _ int) {
	header("§7 many-to-one: the 19x19 example and Corollary 4 congestion")
	e, plan, ok := manyone.Corollary5(mesh.Shape{19, 19}, 5)
	if !ok {
		panic("19x19 cover not found")
	}
	fmt.Printf("19x19 -> 5-cube: load %d (paper: 15), optimal %d (paper: 12), dilation %d, cover %vx2^%v\n",
		e.LoadFactor(), manyone.OptimalLoad(mesh.Shape{19, 19}, 5), e.Dilation(), plan.Loads, plan.Pows)
	g := manyone.GrayContracted(mesh.Shape{3, 5}, []int{3, 2})
	fmt.Printf("24x20 -> 5-cube (Corollary 4): load %d, dilation %d, congestion %d (bound (3·5)/3 = 5)\n",
		g.LoadFactor(), g.Dilation(), g.Congestion())
}

func avgDilation(_, _ int) {
	header("§4.1 average dilation of product embeddings vs inner axis length")
	inner, err := core.PlanShape(mesh.Shape{3, 5}, core.DefaultOptions), error(nil)
	_ = err
	d2 := inner.Build()
	fmt.Printf("outer factor: 3x5 direct embedding, avg dilation %.4f\n", d2.AvgDilation())
	fmt.Printf("%-10s %-14s %-14s\n", "inner", "measured d̄", "formula ≈1+Σ(d̄ᵢ-1)/(k·2^nᵢ)")
	for _, g := range []mesh.Shape{{2, 2}, {4, 4}, {8, 8}, {16, 16}} {
		prod := core.Product(embed.Gray(g), d2)
		formula := 1.0
		k := 2
		for i := 0; i < k; i++ {
			ni := 0
			for (1 << uint(ni)) < g[i] {
				ni++
			}
			formula += (d2.AxisAvgDilation(i) - 1) / float64(k*(1<<uint(ni)))
		}
		fmt.Printf("%-10s %-14.4f %-14.4f\n", g, prod.AvgDilation(), formula)
	}
}

func reshapeAblation(_, _ int) {
	header("§3.2 ablation: reshaping baselines vs graph decomposition")
	fmt.Printf("%-8s %-14s %4s %8s %8s %6s\n", "guest", "technique", "dil", "avgdil", "cong", "cube")
	for _, str := range []string{"3x5", "5x6", "7x9", "11x11", "3x21", "13x17"} {
		for _, row := range reshape.Compare(mesh.MustParse(str)) {
			fmt.Printf("%-8s %-14s %4d %8.4f %8d %6d\n",
				row.Guest, row.Technique, row.Dilation, row.AvgDilation, row.Congestion, row.CubeDim)
		}
	}
}

func higherDim(_, _ int) {
	header("§8 conjecture: higher-dimensional meshes with 2-D/3-D group embeddings")
	rows := []stats.HigherDimRow{
		stats.HigherDimCoverageParallel(4, 3, workers),
		stats.HigherDimCoverageParallel(4, 4, workers),
		stats.HigherDimCoverageParallel(4, 5, workers),
		stats.HigherDimCoverageParallel(5, 3, workers),
		stats.HigherDimCoverageParallel(5, 4, workers),
		stats.HigherDimCoverageParallel(6, 3, workers),
	}
	fmt.Print(stats.FormatHigherDim(rows))
	fmt.Println("paper conjectures a majority; the grouping predicate covers far more than half")
}

func simnetExperiment(_, _ int) {
	header("§1 motivation: stencil-exchange cost on the simulated cube network")
	type entry struct {
		name string
		st   api.SimRoundStats
		dim  int
	}
	for _, str := range []string{"12x20", "5x6x7", "21x9x5"} {
		s := mesh.MustParse(str)
		dec := core.PlanShape(s, core.DefaultOptions).Build()
		gr := embed.Gray(s)
		res := simnet.CompareEmbeddings(map[string]*embed.Embedding{
			"decomposition": dec, "gray": gr,
		})
		entries := []entry{
			{"decomposition", res["decomposition"], dec.N},
			{"gray", res["gray"], gr.N},
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
		for _, en := range entries {
			fmt.Printf("%-8s %-14s %2d-cube  makespan %2d  maxhops %d  maxlink %d  avghops %.3f\n",
				str, en.name, en.dim, en.st.Makespan, en.st.MaxHops, en.st.MaxLink, en.st.AvgHops)
		}
	}
	fmt.Println("decomposition uses the minimal cube (often half the nodes) at a small makespan cost")
}
