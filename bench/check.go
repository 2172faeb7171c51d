package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
	"repro/pkg/client"
)

// Correctness checks run after each round's timed phase, off the clock.  An
// op that errs or fails a check counts once as failed; its latency is not
// sampled.
//
// Sampled checks recompute answers in-process through an independent path
// (a fresh planner, build, verify and measure) at these rates.
const (
	replanEvery  = 16 // plan-cold and embed-cold
	sweepSampleN = 64 // sweep-job rows
)

// checkRound validates one round's answers, folds the successful ops into
// t and returns the number of shapes they answered.
func checkRound(cfg config, k int, ops []op, outs []outcome, warm map[string]any, t *tally) (answered int) {
	sample := rand.New(rand.NewPCG(uint64(cfg.seed)^0x9e3779b97f4a7c15, uint64(k)))
	pl := core.NewPlanner(core.DefaultOptions)
	for i := range ops {
		o, out := &ops[i], &outs[i]
		t.attempted++
		if out.err != nil {
			t.fail("op %d (%s): %v", i, o.key(), out.err)
			continue
		}
		var err error
		shapes := 1
		switch cfg.workload {
		case serveHot:
			err = checkHot(o, out.res, warm, t)
		case planCold:
			err = checkPlan(o, out.res.(*api.PlanResponse), pl, sample.IntN(replanEvery) == 0, t)
		case embedCold:
			err = checkEmbed(o, out.res.(*api.EmbedResponse), pl, sample.IntN(replanEvery) == 0, t)
		case sweepJob:
			shapes, err = checkSweep(o, out.res.(*jobResult), pl, sample, t)
		}
		if err != nil {
			t.fail("op %d (%s): %v", i, o.key(), err)
			continue
		}
		t.lat = append(t.lat, out.lat)
		t.clientT += out.lat
		answered += shapes
	}
	return answered
}

// verdict records one answer's dilation (bound) at its cube.
func (t *tally) verdict(dil, cube, minCube int) {
	t.answers++
	if dil2Minimal(dil, cube, minCube) {
		t.good++
	}
}

// dil2Minimal is the paper's quality measure: dilation at most 2 in the
// minimal cube.  A negative dilation is an unknown bound.
func dil2Minimal(dil, cube, minCube int) bool {
	return dil >= 0 && dil <= 2 && cube == minCube
}

// checkHot requires the answer to equal the warm-pass answer for the same
// request body, apart from the source field (cache vs computed).
func checkHot(o *op, res any, warm map[string]any, t *tally) error {
	if !reflect.DeepEqual(withSource(warm[o.key()], ""), withSource(res, "")) {
		return errors.New("answer differs from the warm-pass answer for the same body")
	}
	switch r := res.(type) {
	case *api.PlanResponse:
		t.verdict(r.DilationBound, r.CubeDim, o.shape.MinCubeDim())
	case *api.EmbedResponse:
		t.verdict(r.Metrics.Dilation, r.Metrics.CubeDim, o.shape.MinCubeDim())
	case *api.CompareResponse:
		for _, row := range r.Rows {
			if row.Technique == "decomposition" {
				t.verdict(row.Metrics.Dilation, row.Metrics.CubeDim, o.shape.MinCubeDim())
			}
		}
	}
	return nil
}

// withSource returns a copy of a decoded reply with its source field set
// to src.
func withSource(reply any, src string) any {
	switch r := reply.(type) {
	case *api.PlanResponse:
		c := *r
		c.Source = src
		return &c
	case *api.EmbedResponse:
		c := *r
		c.Source = src
		return &c
	case *api.CompareResponse:
		c := *r
		c.Source = src
		return &c
	}
	return reply
}

func parseFamily(name string) guest.Family {
	d, err := guest.ByName(name)
	if err != nil {
		panic(err) // the generators only emit registered families
	}
	return d.Family
}

// inProcessPlan resolves a guest the way the server's plan tiers do: the
// closed-form classifier first, then the planner.
func inProcessPlan(pl *core.Planner, fam guest.Family, sh mesh.Shape) (*core.Plan, error) {
	if p, ok := core.ClassifyGuest(fam, sh); ok {
		return p, nil
	}
	return pl.TryPlanGuest(fam, sh)
}

func wireDilation(p *core.Plan) int {
	if p.Dilation == core.DilationUnknown {
		return -1
	}
	return p.Dilation
}

func checkPlan(o *op, r *api.PlanResponse, pl *core.Planner, replan bool, t *tally) error {
	fam := parseFamily(o.family)
	switch {
	case r.Shape != o.shape.String() || r.Family != fam.String() || r.Nodes != o.shape.Nodes():
		return fmt.Errorf("echo %s %s %d nodes", r.Family, r.Shape, r.Nodes)
	case r.CubeDim < o.shape.MinCubeDim():
		return fmt.Errorf("cube %d below the minimal %d", r.CubeDim, o.shape.MinCubeDim())
	case r.Certificate == nil:
		return errors.New("no certificate")
	case r.DilationBound >= 0 && r.Certificate.LowerBounds.Dilation > r.DilationBound:
		return fmt.Errorf("dilation floor %d above the bound %d", r.Certificate.LowerBounds.Dilation, r.DilationBound)
	}
	if replan {
		p, err := inProcessPlan(pl, fam, o.shape)
		if err != nil {
			return fmt.Errorf("in-process plan: %w", err)
		}
		if p.String() != r.Plan || p.Method != r.Method || wireDilation(p) != r.DilationBound || p.CubeDim != r.CubeDim {
			return fmt.Errorf("served plan %s (method %d, dil %d) but in-process %s (method %d, dil %d)",
				r.Plan, r.Method, r.DilationBound, p, p.Method, wireDilation(p))
		}
	}
	t.verdict(r.DilationBound, r.CubeDim, o.shape.MinCubeDim())
	return nil
}

func checkEmbed(o *op, r *api.EmbedResponse, pl *core.Planner, rebuild bool, t *tally) error {
	m, c := r.Metrics, r.Certificate
	switch {
	case m.Guest != o.shape.String():
		return fmt.Errorf("metrics for guest %s", m.Guest)
	case r.DilationBound >= 1 && m.Dilation > r.DilationBound:
		return fmt.Errorf("dilation %d above the plan's bound %d", m.Dilation, r.DilationBound)
	case c == nil:
		return errors.New("no certificate")
	case c.CubeDim != m.CubeDim || c.LowerBounds.Dilation > m.Dilation ||
		c.LowerBounds.Wirelength > m.Wirelength || c.LowerBounds.Congestion > m.Congestion:
		return fmt.Errorf("certificate %+v does not bound the measured metrics %+v", *c, m)
	}
	if rebuild {
		p, err := inProcessPlan(pl, guest.Mesh, o.shape)
		if err != nil {
			return fmt.Errorf("in-process plan: %w", err)
		}
		e := p.Build()
		if err := e.Verify(); err != nil {
			return fmt.Errorf("in-process build: %w", err)
		}
		want := api.Metrics(e.MeasureParallel(0))
		want.Guest = o.shape.String()
		if p.String() != r.Plan || want != m {
			return fmt.Errorf("served %s %+v but in-process %s %+v", r.Plan, m, p, want)
		}
	}
	t.verdict(m.Dilation, m.CubeDim, o.shape.MinCubeDim())
	return nil
}

// checkSweep requires one plan row per canonical shape of the domain, in
// enumeration order, followed by a summary; a sample of rows is re-planned
// in-process.  It returns the number of rows.
func checkSweep(o *op, jr *jobResult, pl *core.Planner, sample *rand.Rand, t *tally) (int, error) {
	p := o.sweep
	want := core.FamilyShapes(guest.Mesh, p.Dims, p.MaxAxis, p.MaxNodes)
	rows, opt, good := 0, 0, 0
	var sum *api.SummaryRecord
	err := client.DecodeRecords(bytes.NewReader(jr.rows), func(rec any) error {
		switch r := rec.(type) {
		case *api.PlanRecord:
			if rows >= len(want) || r.Shape != want[rows].String() {
				return fmt.Errorf("row %d is %s, out of enumeration order", rows, r.Shape)
			}
			if sample.IntN(sweepSampleN) == 0 {
				q := pl.PlanGuest(guest.Mesh, want[rows])
				if q.String() != r.Plan || q.Method != r.Method || wireDilation(q) != r.DilationBound || q.CubeDim != r.CubeDim {
					return fmt.Errorf("row %s: served %s but in-process %s", r.Shape, r.Plan, q)
				}
			}
			if dil2Minimal(r.DilationBound, r.CubeDim, want[rows].MinCubeDim()) {
				good++
			}
			if r.Optimal {
				opt++
			}
			rows++
		case *api.SummaryRecord:
			sum = r
		default:
			return fmt.Errorf("unexpected %T row", rec)
		}
		return nil
	})
	switch {
	case err != nil:
		return 0, err
	case rows != len(want):
		return 0, fmt.Errorf("%d rows, want %d", rows, len(want))
	case sum == nil || sum.Shapes != uint64(rows):
		return 0, errors.New("missing or inconsistent summary row")
	}
	t.answers += rows
	t.good += good
	t.jobRows += rows
	t.jobOpt += opt
	st := jr.status
	t.jobWall += time.Duration(st.FinishedUnixMS-st.CreatedUnixMS) * time.Millisecond
	return rows, nil
}
