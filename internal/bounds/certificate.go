package bounds

import (
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// The certificate rules.  Every certificate — the api.Certificate served
// on /v1/plan, /v1/embed and /v1/compare, the certificate columns of
// plansweep rows, embedctl's printout — is assembled by one of the three
// functions below from For's floors.  The floors are permutation-consistent with each family's
// canonical form, so a certificate computed in the caller's axis order
// agrees with one computed on the cached canonical result.

// PlanCertificate certifies a plan into the n-cube before anything is
// built.  Only the dilation gap is evaluable, from the construction's
// a-priori bound dilBound (< 0 when it has none, as for the snake
// fallback); the wirelength and congestion gaps are unknown (−1).  A zero
// dilation gap is sound without routing: measured dilation is squeezed
// between the floor and the bound.  An edgeless guest measures zero on
// everything, so it is optimal with every gap 0 whatever bound it quotes.
func PlanCertificate(f guest.Family, s mesh.Shape, n, dilBound int) api.Certificate {
	c := floors(f, s, n)
	if c.LowerBounds.Dilation == 0 {
		c.Optimal = true
		return c
	}
	c.WirelengthGap, c.CongestionGap = -1, -1
	if dilBound < 0 {
		c.DilationGap, c.GapToOptimal = -1, -1
		return c
	}
	c.DilationGap = dilBound - c.LowerBounds.Dilation
	c.GapToOptimal = int64(c.DilationGap)
	c.Optimal = c.DilationGap == 0
	return c
}

// MeasuredCertificate certifies fully measured metrics in their cube:
// every gap is known, and Optimal means the embedding provably cannot be
// improved on any of the three measures in that cube.
func MeasuredCertificate(f guest.Family, s mesh.Shape, m api.Metrics) api.Certificate {
	c := floors(f, s, m.CubeDim)
	c.DilationGap = m.Dilation - c.LowerBounds.Dilation
	c.WirelengthGap = m.Wirelength - c.LowerBounds.Wirelength
	c.CongestionGap = m.Congestion - c.LowerBounds.Congestion
	c.GapToOptimal = int64(c.DilationGap) + c.WirelengthGap + int64(c.CongestionGap)
	c.Optimal = c.GapToOptimal == 0
	return c
}

// CompareCertificate certifies a comparison of techniques as a whole in the
// guest's minimal cube: it is the measured certificate of the best value
// any minimal-cube row achieved on each measure.  Rows in a larger cube
// (the Gray baseline on a non-Gray-minimal shape) are ignored, so they
// never weaken it.  ok is false when no row reaches the minimal cube.
func CompareCertificate(f guest.Family, s mesh.Shape, rows []api.CompareRow) (c api.Certificate, ok bool) {
	n := s.MinCubeDim()
	var best api.Metrics
	for _, row := range rows {
		m := row.Metrics
		if m.CubeDim != n {
			continue
		}
		if !ok {
			best, ok = m, true
			continue
		}
		best.Dilation = min(best.Dilation, m.Dilation)
		best.Wirelength = min(best.Wirelength, m.Wirelength)
		best.Congestion = min(best.Congestion, m.Congestion)
	}
	if !ok {
		return c, false
	}
	return MeasuredCertificate(f, s, best), true
}

// floors returns a certificate carrying For's floors in the n-cube, with
// every gap zero and Optimal unset.
func floors(f guest.Family, s mesh.Shape, n int) api.Certificate {
	b := For(f, s, n)
	return api.Certificate{
		CubeDim:     n,
		LowerBounds: api.LowerBounds{Dilation: b.Dilation, Wirelength: b.Wirelength, Congestion: b.Congestion},
	}
}
