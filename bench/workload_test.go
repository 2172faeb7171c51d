package main

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/guest"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name]
		a, b := w.roundOps(1, 0, 1), w.roundOps(1, 0, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 round 0 generated different ops twice", name)
		}
		if reflect.DeepEqual(a, w.roundOps(2, 0, 1)) {
			t.Errorf("%s: seeds 1 and 2 generated the same ops", name)
		}
		if reflect.DeepEqual(a, w.roundOps(1, 1, 1)) {
			t.Errorf("%s: rounds 0 and 1 generated the same ops", name)
		}
	}
}

func TestPlanColdOpsAreDistinctAndInBounds(t *testing.T) {
	ops := workloads[planCold].roundOps(7, 0, 1)
	seen := map[string]bool{}
	count := map[guest.Family]int{}
	for _, o := range ops {
		fam := parseFamily(o.family)
		count[fam]++
		canon, _ := guest.Get(fam).Canonical(o.shape)
		k := fam.String() + "|" + canon.String()
		if seen[k] {
			t.Fatalf("guest %s repeats under its canonical form", k)
		}
		seen[k] = true
		if o.kind != kindPlan || len(o.shape) != 3 || o.shape.Nodes() > planMaxNodes {
			t.Fatalf("op %+v outside the plan-cold domain", o)
		}
		for _, l := range o.shape {
			if l < 2 || l > planMaxAxis {
				t.Fatalf("axis %d of %s outside 2..%d", l, o.shape, planMaxAxis)
			}
		}
	}
	n := len(ops)
	if count[guest.Mesh] != n*8/10 || count[guest.Torus] != n/10 || count[guest.Cylinder] != n/10 {
		t.Errorf("family mix %v over %d ops, want exactly 80/10/10", count, n)
	}
}

func TestEmbedColdOpsAreDistinctAndInBounds(t *testing.T) {
	ops := workloads[embedCold].roundOps(7, 0, 1)
	seen := map[string]bool{}
	for _, o := range ops {
		canon, _ := guest.Get(guest.Mesh).Canonical(o.shape)
		if !canon.Equal(o.shape) {
			t.Fatalf("%s is not sent in canonical order", o.shape)
		}
		if seen[canon.String()] {
			t.Fatalf("mesh %s repeats", canon)
		}
		seen[canon.String()] = true
		n := o.shape.Nodes()
		if o.kind != kindEmbed || o.includeMap || o.family != "" || len(o.shape) != 3 || o.shape[0] < 2 ||
			n < 1<<embedMinLog || n > 1<<embedMaxLog {
			t.Fatalf("op %+v outside the embed-cold domain", o)
		}
	}
}

func TestServeHotOpsComeFromThePool(t *testing.T) {
	ops := workloads[serveHot].roundOps(7, 0, 1)
	kinds := map[opKind]int{}
	for _, o := range ops {
		kinds[o.kind]++
		sorted, _ := o.shape.SortCanonical()
		if !slices.ContainsFunc(hotShapes, sorted.Equal) {
			t.Fatalf("%s is not a permutation of a pool shape", o.shape)
		}
		if o.includeMap && o.kind != kindEmbed {
			t.Fatalf("include_map on a non-embed op %+v", o)
		}
	}
	for kind, want := range map[opKind]float64{kindPlan: 0.45, kindEmbed: 0.30, kindCompare: 0.25} {
		if got := float64(kinds[kind]) / float64(len(ops)); got < want-0.02 || got > want+0.02 {
			t.Errorf("kind %d share %.3f, want %.2f", kind, got, want)
		}
	}
}

func TestSweepJobTrimsTheNodeCapOnly(t *testing.T) {
	const top = 1 << 18
	for seed := int64(1); seed <= 20; seed++ {
		ops := workloads[sweepJob].roundOps(seed, 0, 1)
		p := ops[0].sweep
		if len(ops) != 1 || p.Dims != 3 || p.MaxAxis != 64 || p.Family != "mesh" ||
			p.MaxNodes > top || p.MaxNodes < top-top/64 {
			t.Fatalf("seed %d: sweep %+v", seed, *p)
		}
	}
}
