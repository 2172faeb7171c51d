package core

// preferenceOrder names better's order.  It is part of every planner
// fingerprint, so plan-census artifacts stamped under it stay valid, and
// provenance reasons quote it.
const preferenceOrder = "lex(expansion,dilation,factors,congestion,depth)"

// better picks the preferred of two candidate plans for the same shape.
// Either argument may be nil.  The order is lexicographic, smaller values
// preferred: host cube dimension (minimal expansion first), dilation
// bound, number of product factors (flatter products and direct/submesh
// wrappers first), congestion bound, and plan depth.  Ties are broken by
// plan kind and then by the rendered plan string, making the preference a
// strict total order on distinct plans: selection never depends on
// strategy evaluation order.
func better(a, b *Plan) *Plan {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	d := a.CubeDim - b.CubeDim
	if d == 0 {
		d = a.Dilation - b.Dilation
	}
	if d == 0 {
		d = len(a.Factors) - len(b.Factors)
	}
	if d == 0 {
		d = a.CongestionBound() - b.CongestionBound()
	}
	if d == 0 {
		d = a.Depth() - b.Depth()
	}
	if d == 0 {
		d = int(a.Kind) - int(b.Kind)
	}
	if d < 0 || d == 0 && a.String() <= b.String() {
		return a
	}
	return b
}
