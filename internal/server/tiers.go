package server

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// Tiered plan resolution.  A /v1/plan miss in the L0 result cache walks
// down a fixed hierarchy, each tier strictly cheaper than the next and each
// hit populating the tiers above it through the ordinary cache fill:
//
//	L0  result cache: LRU + in-flight resolutions   (~100ns, bounded)
//	    closed-form classifier (core.ClassifyGuest) (~40ns, no state)
//	L1  mmap'd plan-census artifact (-plan-artifact) (~100ns, one file)
//	L2  the decomposition planner                    (µs..ms, search)
//
// The classifier sits between L0 and L1 because it is cheaper than the
// artifact probe and needs no configuration; it answers exactly the strata
// it can prove (Gray-minimal meshes/cylinders, all-power-of-two tori,
// every complete binary tree) with plans byte-identical to the planner's.
// The artifact tier answers any canonical-order shape inside its prebuilt
// domain with the planner's own serialized plan.  Everything else pays L2.
//
// The response Source field reports the tier that produced the result:
// "cache" (L0), "closed_form", "artifact" or "computed" (L2) — resolvePlan
// returns its tier as the source of the L0 computation — plus "coalesced"
// for requests that joined another's computation.

// AttachArtifact wires a plan-census artifact (internal/artifact, built by
// a plancensus job or embedctl artifact build) in as the L1 plan tier.
// Call it before Handler is serving.  The artifact must have been built
// under this server's exact planner options — the option fingerprint is
// stamped in its header — or it is refused: serving plans computed under
// different options would silently break the cache-vs-computed identity.
func (s *Server) AttachArtifact(a *artifact.Artifact) error {
	hdr := a.Header()
	if _, err := guest.ByName(hdr.Family); err != nil {
		return fmt.Errorf("embedserver: artifact %s: %v", a.Path(), err)
	}
	if want := artifact.FingerprintHash(s.planner.Fingerprint()); hdr.Fingerprint != want {
		return fmt.Errorf("embedserver: artifact %s was built under planner options %016x, this server runs %016x (%q)",
			a.Path(), hdr.Fingerprint, want, s.planner.Fingerprint())
	}
	s.artifact = a
	return nil
}

// resolvePlan is the L0-miss path of /v1/plan: classifier, then artifact,
// then planner.  The returned source is "closed_form", "artifact" or
// "computed".  Requests are resolved in the caller's axis order — the
// classifier is order-insensitive and the artifact simply misses on
// non-canonical shapes (plan strings are axis-order-specific, so a sorted
// record must not answer a permuted request).  sh is a valid guest of fam
// (parseGuest), as the classifier's contract requires.
func (s *Server) resolvePlan(ctx context.Context, fam guest.Family, sh mesh.Shape) (*cachedResult, string, error) {
	_, cspan := obs.Start(ctx, "classify")
	p, ok := core.ClassifyGuest(fam, sh)
	cspan.End()
	if ok {
		s.m.tierClosedForm.Add(1)
		return &cachedResult{plan: p.Entry()}, "closed_form", nil
	}
	if a := s.artifact; a != nil && a.Header().Family == fam.String() {
		_, aspan := obs.Start(ctx, "artifact-lookup")
		rec, hit, err := a.Lookup(sh)
		aspan.End()
		if err != nil {
			return nil, "", fmt.Errorf("embedserver: artifact lookup: %w", err)
		}
		if hit {
			s.m.tierArtifact.Add(1)
			return &cachedResult{plan: rec}, "artifact", nil
		}
	}
	_, span := obs.Start(ctx, "plan")
	p, err := s.planner.TryPlanGuest(fam, sh)
	span.End()
	if err != nil {
		return nil, "", errBadRequest("%v", err)
	}
	s.m.tierCompute.Add(1)
	return &cachedResult{plan: p.Entry()}, "computed", nil
}

// planFor resolves the plan stage of an embed/compare computation through
// the closed-form tier before falling back to the planner.  The artifact
// tier does not apply here: building an embedding needs the live *core.Plan
// tree, and the artifact stores only its serialized form.
func (s *Server) planFor(ctx context.Context, fam guest.Family, canon mesh.Shape) (*core.Plan, error) {
	_, span := obs.Start(ctx, "plan")
	defer span.End()
	if p, ok := core.ClassifyGuest(fam, canon); ok {
		s.m.tierClosedForm.Add(1)
		return p, nil
	}
	p, err := s.planner.TryPlanGuest(fam, canon)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	s.m.tierCompute.Add(1)
	return p, nil
}
