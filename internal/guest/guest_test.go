package guest

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/mesh"
)

// conformanceShapes lists, per family, shapes that exercise the corners of
// the edge enumerations: single nodes, single axes, unit axes mixed with
// long ones, odd/even wrap lengths, and higher dimensions.  Every shape must
// pass the family's Validate, so the tree list is the 2^h−1 ladder.
func conformanceShapes(f Family) []mesh.Shape {
	if f == Tree {
		return []mesh.Shape{{1}, {3}, {7}, {15}, {31}, {63}}
	}
	return []mesh.Shape{
		{1}, {2}, {5}, {8},
		{1, 1}, {1, 6}, {4, 4}, {3, 5}, {2, 7},
		{1, 1, 1}, {2, 3, 4}, {5, 1, 3}, {3, 3, 3},
		{2, 2, 2, 2}, {1, 2, 1, 5},
	}
}

// edgeKey folds an edge into a comparable value; edges are emitted with
// both endpoints in 0..Nodes()−1, so U*Nodes+V is injective.
func edgeKey(s mesh.Shape, e mesh.Edge) int { return e.U*s.Nodes() + e.V }

func collectRange(d Desc, s mesh.Shape, lo, hi int) []int {
	var keys []int
	d.EachEdgeRange(s, lo, hi, func(e mesh.Edge) {
		keys = append(keys, edgeKey(s, e))
	})
	sort.Ints(keys)
	return keys
}

// TestConformanceEdgeCount checks the edge-count identity for every
// family: Edges(s) equals the number of edges the full
// enumeration emits, and every emitted edge has in-range distinct endpoints.
func TestConformanceEdgeCount(t *testing.T) {
	for f := Family(0); f.IsValid(); f++ {
		d := Get(f)
		for _, s := range conformanceShapes(d.Family) {
			if err := Validate(d.Family, s); err != nil {
				t.Fatalf("%v %s: shape invalid: %v", d.Family, s, err)
			}
			n := s.Nodes()
			count := 0
			seen := make(map[int]bool)
			d.EachEdgeRange(s, 0, n, func(e mesh.Edge) {
				count++
				if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
					t.Fatalf("%v %s: edge endpoint out of range: %+v", d.Family, s, e)
				}
				if e.U == e.V {
					t.Fatalf("%v %s: self-loop emitted: %+v", d.Family, s, e)
				}
				k := edgeKey(s, e)
				if seen[k] {
					t.Fatalf("%v %s: duplicate edge: %+v", d.Family, s, e)
				}
				seen[k] = true
			})
			if want := d.Edges(s); count != want {
				t.Errorf("%v %s: enumeration emitted %d edges, Edges() says %d",
					d.Family, s, count, want)
			}
		}
	}
}

// TestConformancePartition checks the EachEdgeRange sharding contract: for
// several split points, the union of the edges of the parts equals the full
// enumeration (disjointness falls out of the equal counts).
func TestConformancePartition(t *testing.T) {
	for f := Family(0); f.IsValid(); f++ {
		d := Get(f)
		for _, s := range conformanceShapes(d.Family) {
			n := s.Nodes()
			full := collectRange(d, s, 0, n)
			for _, parts := range [][]int{
				{0, n},
				{0, n / 2, n},
				{0, 1, n},
				{0, n - 1, n},
				{0, n / 3, 2 * n / 3, n},
			} {
				var got []int
				for i := 0; i+1 < len(parts); i++ {
					got = append(got, collectRange(d, s, parts[i], parts[i+1])...)
				}
				sort.Ints(got)
				if len(got) != len(full) {
					t.Fatalf("%v %s split %v: %d edges, full enumeration has %d",
						d.Family, s, parts, len(got), len(full))
				}
				for i := range got {
					if got[i] != full[i] {
						t.Fatalf("%v %s split %v: edge sets differ at %d", d.Family, s, parts, i)
					}
				}
			}
		}
	}
}

// oracleEdges lists a family's edges from a construction that shares no
// code with the mesh enumerations: the grid families are Cartesian
// products of one path or ring per axis (package graph), and the tree is
// the heap rule — node i is adjacent to 2i+1 and 2i+2.  Pairs are (u, v)
// with u < v, sorted.
func oracleEdges(t *testing.T, f Family, s mesh.Shape) [][2]int {
	var out [][2]int
	add := func(u, v int) { out = append(out, [2]int{u, v}) }
	switch f {
	case Mesh:
		graph.Mesh(s).EachEdge(add)
	case Torus:
		graph.Torus(s).EachEdge(add)
	case Cylinder:
		graph.Cylinder(s).EachEdge(add)
	case Tree:
		n := s.Nodes()
		for i := 0; i < n; i++ {
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < n {
					add(i, c)
				}
			}
		}
	default:
		t.Fatalf("%v has no independent edge oracle; add one here", f)
	}
	sortPairs(out)
	return out
}

func sortPairs(p [][2]int) {
	sort.Slice(p, func(i, j int) bool {
		return p[i][0] < p[j][0] || p[i][0] == p[j][0] && p[i][1] < p[j][1]
	})
}

// TestConformanceEdgesMatchOracle checks every family's EachEdgeRange
// against its independent oracle as a multiset, so a dropped or duplicated
// (wraparound) edge fails, and checks that every grid edge joins two nodes
// that differ on exactly its Axis.  The fused metrics pass and the test
// reference both enumerate through the same code, so this is what keeps
// their shared edge set honest.
func TestConformanceEdgesMatchOracle(t *testing.T) {
	for f := Family(0); f.IsValid(); f++ {
		d := Get(f)
		for _, s := range conformanceShapes(d.Family) {
			var got [][2]int
			d.EachEdgeRange(s, 0, s.Nodes(), func(e mesh.Edge) {
				u, v := min(e.U, e.V), max(e.U, e.V)
				got = append(got, [2]int{u, v})
				if d.Family == Tree {
					return
				}
				cu, cv := s.Coord(u), s.Coord(v)
				for i := range cu {
					if (cu[i] != cv[i]) != (i == e.Axis) {
						t.Errorf("%v %s: edge %+v does not run along axis %d", d.Family, s, e, e.Axis)
						return
					}
				}
			})
			sortPairs(got)
			if want := oracleEdges(t, d.Family, s); !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: enumeration\n  %v\nwant oracle\n  %v", d.Family, s, got, want)
			}
		}
	}
}

// TestConformanceCanonical checks canonical-form validity and idempotence:
// the axis map is a permutation reconstructing the original shape, the
// canonical shape is a fixed point of Canonical, and it validates.
func TestConformanceCanonical(t *testing.T) {
	for f := Family(0); f.IsValid(); f++ {
		d := Get(f)
		for _, s := range conformanceShapes(d.Family) {
			canon, axmap := d.Canonical(s)
			if len(canon) != len(s) || len(axmap) != len(s) {
				t.Fatalf("%v %s: canonical form %s / axmap %v wrong length", d.Family, s, canon, axmap)
			}
			used := make([]bool, len(s))
			for j, src := range axmap {
				if src < 0 || src >= len(s) || used[src] {
					t.Fatalf("%v %s: axmap %v is not a permutation", d.Family, s, axmap)
				}
				used[src] = true
				if canon[j] != s[src] {
					t.Fatalf("%v %s: canon[%d]=%d but s[axmap[%d]]=%d",
						d.Family, s, j, canon[j], j, s[src])
				}
			}
			if err := Validate(d.Family, canon); err != nil {
				t.Fatalf("%v %s: canonical form %s invalid: %v", d.Family, s, canon, err)
			}
			again, idmap := d.Canonical(canon)
			if again.String() != canon.String() {
				t.Errorf("%v %s: Canonical not idempotent: %s → %s", d.Family, s, canon, again)
			}
			for j, src := range idmap {
				if canon[j] != canon[src] {
					t.Errorf("%v %s: re-canonicalizing permuted axes of equal form", d.Family, s)
					break
				}
			}
		}
	}
}

// TestConformanceEdgeCountInvariantUnderCanonical checks that the canonical
// relabeling preserves the edge count — a cheap proxy for isomorphism that
// catches families whose Canonical sorts an axis it should not.
func TestConformanceEdgeCountInvariantUnderCanonical(t *testing.T) {
	for f := Family(0); f.IsValid(); f++ {
		d := Get(f)
		for _, s := range conformanceShapes(d.Family) {
			canon, _ := d.Canonical(s)
			if d.Edges(s) != d.Edges(canon) {
				t.Errorf("%v: %s has %d edges but canonical %s has %d",
					d.Family, s, d.Edges(s), canon, d.Edges(canon))
			}
		}
	}
}

// TestFamilyNames: each Family has a nonempty wire name distinct from the
// others', ParseFamily inverts String, and out of range values print
// "unknown".  The error text is a served 400 message.
func TestFamilyNames(t *testing.T) {
	seen := map[string]bool{}
	for f := Family(0); f.IsValid(); f++ {
		name := f.String()
		if name == "" || seen[name] {
			t.Errorf("Family %d: wire name %q is empty or repeated", int(f), name)
		}
		seen[name] = true
		if got, err := ParseFamily(name); err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %v, %v; want %d", name, got, err, int(f))
		}
	}
	if len(seen) != 4 || !Tree.IsValid() {
		t.Errorf("%d named families, want mesh, torus, cylinder and tree", len(seen))
	}
	for _, f := range []Family{-1, Family(len(familyNames))} {
		if f.IsValid() || f.String() != "unknown" {
			t.Errorf("Family(%d) is valid or prints %q", int(f), f)
		}
	}
	_, err := ParseFamily("foo")
	if want := `unknown Family "foo" (want one of [mesh torus cylinder tree])`; err == nil || err.Error() != want {
		t.Errorf("ParseFamily(\"foo\") error %v, want %s", err, want)
	}
}

// TestByName checks wire-name resolution including the empty-string default
// and rejection of unknown names.
func TestByName(t *testing.T) {
	for f := Family(0); f.IsValid(); f++ {
		d := Get(f)
		got, err := ByName(d.Family.String())
		if err != nil || got.Family != d.Family {
			t.Errorf("ByName(%q) = %v, %v", d.Family.String(), got.Family, err)
		}
	}
	if d, err := ByName(""); err != nil || d.Family != Mesh {
		t.Errorf("ByName(\"\") = %v, %v; want Mesh", d.Family, err)
	}
	if _, err := ByName("klein-bottle"); err == nil {
		t.Error("ByName accepted an unknown family")
	}
}

// TestValidateRejections checks the family-specific gates.
func TestValidateRejections(t *testing.T) {
	if err := Validate(Tree, mesh.Shape{6}); err == nil {
		t.Error("tree accepted 6 nodes (not 2^h-1)")
	}
	if err := Validate(Tree, mesh.Shape{3, 3}); err == nil {
		t.Error("tree accepted a 2-axis shape")
	}
	if err := Validate(Mesh, mesh.Shape{0, 4}); err == nil {
		t.Error("mesh accepted a zero-length axis")
	}
}
