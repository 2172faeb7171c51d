// Package core implements the paper's contribution: embedding meshes in
// Boolean cubes by graph decomposition.  The central operation is the
// product-embedding construction of Theorem 3 with the axis-reflection
// refinement of Corollary 2, on top of which the planner of Section 5
// combines Gray codes, two-dimensional embeddings, the direct
// three-dimensional embeddings and axis extension into minimal-expansion
// dilation-two embeddings of three-dimensional meshes.
package core

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Product composes two mesh embeddings into an embedding of the
// componentwise-product mesh (Corollary 2).  If e1 embeds an
// ℓ₁₁×…×ℓ₁k mesh into an n₁-cube and e2 an ℓ₂₁×…×ℓ₂k mesh into an n₂-cube,
// the result embeds the ℓ₁₁ℓ₂₁ × … × ℓ₁kℓ₂k mesh into the (n₁+n₂)-cube:
//
//	φ(z) = φ₂(y) ‖ φ̃₁(y, x),  zᵢ = yᵢ·ℓ₁ᵢ + xᵢ,
//
// where φ̃₁ reflects axis i of the inner mesh whenever yᵢ is odd, so the
// seam between consecutive inner copies reuses the same inner codeword and
// costs only the outer embedding's dilation.  The dilation of the result is
// ≤ max(dil φ₁, dil φ₂) and the congestion ≤ max(cong φ₁, cong φ₂)
// (Theorem 3); expansion multiplies.
//
// Shapes of different arity are aligned by padding with trailing 1s.
// Wraparound embeddings are not composable here (see package wrap).
func Product(e1, e2 *embed.Embedding) *embed.Embedding {
	if e1.Family != guest.Mesh || e2.Family != guest.Mesh {
		panic("core: Product requires plain mesh factors")
	}
	k := e1.Guest.Dims()
	if e2.Guest.Dims() > k {
		k = e2.Guest.Dims()
	}
	s1 := e1.Guest.PadTo(k)
	s2 := e2.Guest.PadTo(k)
	gs := s1.Product(s2)

	out := embed.New(gs, e1.N+e2.N)
	routed := e1.Routes != nil || e2.Routes != nil
	st, st1, st2 := strides(gs), strides(s1), strides(s2)
	zc := make([]int, k)
	xc := make([]int, k)
	yc := make([]int, k)
	for z := range out.Map {
		gs.CoordInto(z, zc)
		for i := 0; i < k; i++ {
			xc[i] = zc[i] % s1[i]
			yc[i] = zc[i] / s1[i]
			if yc[i]&1 == 1 { // reflect inner axis i (φ̃₁)
				xc[i] = s1[i] - 1 - xc[i]
			}
		}
		u1, u2 := s1.Index(xc), s2.Index(yc)
		out.Map[z] = cube.Node(uint64(e2.Map[u2])<<uint(e1.N) | uint64(e1.Map[u1]))
		// Carry the factors' route codes, so congestion guarantees
		// transfer (Theorem 3's disjoint-copy argument): an inner edge
		// reuses φ₁'s route inside the copy selected by φ₂(y), a seam edge
		// reuses φ₂'s route with the inner codeword fixed.
		for i := 0; routed && i < k; i++ {
			switch {
			case zc[i]+1 == gs[i]: // no edge along i leaves the last hyperplane
			case zc[i]%s1[i]+1 < s1[i]: // inner edge, reflected on odd yᵢ
				v1 := u1 + st1[i]
				if yc[i]&1 == 1 {
					v1 = u1 - st1[i]
				}
				embed.CopyRoute(out, z, z+st[i], e1, u1, v1, i)
			default: // seam edge
				embed.CopyRoute(out, z, z+st[i], e2, u2, u2+st2[i], i)
			}
		}
	}
	return out
}

// strides returns the index stride of every axis of s.
func strides(s mesh.Shape) []int {
	out := make([]int, len(s))
	st := 1
	for i, l := range s {
		out[i] = st
		st *= l
	}
	return out
}

// SubMesh restricts an embedding to a smaller mesh contained in its guest
// (componentwise target ≤ guest, same arity after padding).  Edges of the
// submesh are edges of the mesh, so dilation and congestion cannot increase;
// the host cube is unchanged.
func SubMesh(e *embed.Embedding, target mesh.Shape) *embed.Embedding {
	if e.Family != guest.Mesh {
		panic("core: SubMesh requires a plain mesh embedding")
	}
	big := e.Guest.PadTo(target.Dims())
	tgt := target.PadTo(e.Guest.Dims())
	if !big.Contains(tgt) {
		panic(fmt.Sprintf("core: %v is not contained in %v", target, e.Guest))
	}
	out := embed.New(tgt, e.N)
	st, bst := strides(tgt), strides(big)
	coord := make([]int, tgt.Dims())
	for i := range out.Map {
		tgt.CoordInto(i, coord)
		b := big.Index(coord)
		out.Map[i] = e.Map[b]
		for a := 0; e.Routes != nil && a < len(tgt); a++ {
			if coord[a]+1 < tgt[a] {
				embed.CopyRoute(out, i, i+st[a], e, b, b+bst[a], a)
			}
		}
	}
	return out
}
