package embed

import (
	"fmt"
	"math"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// An embedding has one serialization, api.EmbeddingSerial: the object
// /v1/embed serves with include_map, and the file `embedctl embed -o`
// writes and `embedctl verify` reads.  Route codes are not serialized;
// metrics that depend on them (congestion) are recomputed with e-cube
// routing after FromSerial.

// Serial returns the serialized form of the embedding.  Mesh embeddings
// omit both family and wrap (keeping the pre-family schema byte-identical);
// the torus keeps its historical wrap marker alongside the family name.
func (e *Embedding) Serial() *api.EmbeddingSerial {
	m := make([]uint64, len(e.Map))
	for i, h := range e.Map {
		m[i] = uint64(h)
	}
	fam := ""
	if e.Family != guest.Mesh {
		fam = e.Family.String()
	}
	return &api.EmbeddingSerial{Version: api.EmbeddingSchemaVersion, Guest: e.Guest.String(),
		Family: fam, Wrap: e.Family == guest.Torus, Cube: e.N, Map: m}
}

// resolveFamily reconciles the family and legacy wrap fields of a
// serialized embedding: an explicit family name wins (and must agree with
// wrap), a bare wrap marker means torus, neither means mesh.
func resolveFamily(name string, wrap bool) (guest.Family, error) {
	if name == "" {
		if wrap {
			return guest.Torus, nil
		}
		return guest.Mesh, nil
	}
	f, err := guest.ParseFamily(name)
	if err != nil {
		return 0, fmt.Errorf("embed: %v", err)
	}
	if wrap && f != guest.Torus {
		return 0, fmt.Errorf("embed: family %q contradicts wrap marker", name)
	}
	return f, nil
}

// FromSerial rebuilds an embedding from its serialized form and validates
// it with VerifyManyToOne: the schema stores many-to-one embeddings too, so
// one-to-one validity stays the caller's decision.  The map is sized from
// the input, never from the guest the header claims.
func FromSerial(s *api.EmbeddingSerial) (*Embedding, error) {
	if s.Version != api.EmbeddingSchemaVersion {
		return nil, fmt.Errorf("embed: unsupported schema version %d (have %d)", s.Version, api.EmbeddingSchemaVersion)
	}
	gs, err := mesh.ParseShape(s.Guest)
	if err != nil {
		return nil, err
	}
	fam, err := resolveFamily(s.Family, s.Wrap)
	if err != nil {
		return nil, err
	}
	// Counted without overflow: Shape.Nodes would wrap.
	nodes, ok := gs.NodesWithin(math.MaxInt)
	if !ok {
		return nil, fmt.Errorf("embed: guest %s has too many nodes", gs)
	}
	if len(s.Map) != nodes {
		return nil, fmt.Errorf("embed: map covers %d of %d guest nodes", len(s.Map), nodes)
	}
	e := New(gs, s.Cube)
	e.Family = fam
	for i, h := range s.Map {
		e.Map[i] = cube.Node(h)
	}
	if err := e.VerifyManyToOne(); err != nil {
		return nil, err
	}
	return e, nil
}
