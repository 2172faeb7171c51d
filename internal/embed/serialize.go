package embed

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// The text format for embeddings:
//
//	repro-embedding v1
//	guest 5x6x7
//	wrap false
//	family cylinder      (only for families beyond mesh/torus; the torus
//	                      keeps its historical "wrap true" spelling)
//	cube 8
//	map
//	2 3 0 1 …            (host addresses in dense guest-index order,
//	                      any whitespace/line structure)
//
// Route codes are not serialized; metrics that depend on them (congestion)
// are recomputed with e-cube routing after a load.

const formatHeader = "repro-embedding v1"

// SchemaVersion is the current version of the structured (JSON) embedding
// schema.  Serial carries it explicitly so API responses stay
// forward-compatible: readers reject versions they do not know instead of
// misparsing them.
const SchemaVersion = 1

// Serial is the structured, versioned form of an embedding, the schema the
// HTTP API serves.  It captures exactly what the text format does: route
// codes are not serialized, and route-dependent metrics are recomputed with
// e-cube routing after FromSerial.
type Serial struct {
	Version int      `json:"version"`
	Guest   string   `json:"guest"`
	Family  string   `json:"family,omitempty"` // guest family; empty means mesh (or torus when wrap is set)
	Wrap    bool     `json:"wrap,omitempty"`
	Cube    int      `json:"cube"`
	Map     []uint64 `json:"map"`
}

// Serial returns the structured form of the embedding.  Mesh embeddings
// omit both family and wrap (keeping the pre-family schema byte-identical);
// the torus keeps its historical wrap marker alongside the family name.
func (e *Embedding) Serial() *Serial {
	m := make([]uint64, len(e.Map))
	for i, h := range e.Map {
		m[i] = uint64(h)
	}
	fam := ""
	if e.Family != guest.Mesh {
		fam = e.Family.String()
	}
	return &Serial{Version: SchemaVersion, Guest: e.Guest.String(), Family: fam,
		Wrap: e.Family == guest.Torus, Cube: e.N, Map: m}
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

// guestNodes returns the node count of a guest read from serialized input,
// rejecting counts that overflow an int (Shape.Nodes would wrap).
func guestNodes(gs mesh.Shape) (int, error) {
	nodes, ok := gs.NodesWithin(math.MaxInt)
	if !ok {
		return 0, fmt.Errorf("embed: guest %s has too many nodes", gs)
	}
	return nodes, nil
}

// FromSerial rebuilds an embedding from its structured form and validates
// it with VerifyManyToOne (the format stores many-to-one embeddings too, so
// one-to-one validity stays the caller's decision, as with Read).
func FromSerial(s *Serial) (*Embedding, error) {
	if s.Version != SchemaVersion {
		return nil, fmt.Errorf("embed: unsupported schema version %d (have %d)", s.Version, SchemaVersion)
	}
	gs, err := mesh.ParseShape(s.Guest)
	if err != nil {
		return nil, err
	}
	fam, err := resolveFamily(s.Family, s.Wrap)
	if err != nil {
		return nil, err
	}
	nodes, err := guestNodes(gs)
	if err != nil {
		return nil, err
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

// WriteTo serializes the embedding in the text format.  It returns the
// number of bytes written.
func (e *Embedding) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", formatHeader)
	fmt.Fprintf(&b, "guest %s\n", e.Guest)
	fmt.Fprintf(&b, "wrap %v\n", e.Family == guest.Torus)
	if e.Family != guest.Mesh && e.Family != guest.Torus {
		fmt.Fprintf(&b, "family %s\n", e.Family)
	}
	fmt.Fprintf(&b, "cube %d\n", e.N)
	b.WriteString("map\n")
	for i, h := range e.Map {
		if i > 0 {
			if i%16 == 0 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteString(strconv.FormatUint(uint64(h), 10))
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Read parses an embedding from the text format and validates it with
// VerifyManyToOne (one-to-one validity is the caller's decision, since the
// format also stores many-to-one embeddings).
func Read(r io.Reader) (*Embedding, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := func() (string, error) {
		for sc.Scan() {
			t := strings.TrimSpace(sc.Text())
			if t != "" {
				return t, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}

	h, err := line()
	if err != nil {
		return nil, err
	}
	if h != formatHeader {
		return nil, fmt.Errorf("embed: bad header %q", h)
	}
	var gs mesh.Shape
	var wrap bool
	var famName string
	var n = -1
	for {
		l, err := line()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(l)
		switch fields[0] {
		case "guest":
			if len(fields) != 2 {
				return nil, fmt.Errorf("embed: bad guest line %q", l)
			}
			gs, err = mesh.ParseShape(fields[1])
			if err != nil {
				return nil, err
			}
		case "wrap":
			if len(fields) != 2 {
				return nil, fmt.Errorf("embed: bad wrap line %q", l)
			}
			wrap, err = strconv.ParseBool(fields[1])
			if err != nil {
				return nil, err
			}
		case "family":
			if len(fields) != 2 {
				return nil, fmt.Errorf("embed: bad family line %q", l)
			}
			famName = fields[1]
		case "cube":
			if len(fields) != 2 {
				return nil, fmt.Errorf("embed: bad cube line %q", l)
			}
			n, err = strconv.Atoi(fields[1])
			if err != nil {
				return nil, err
			}
		case "map":
			if gs == nil || n < 0 {
				return nil, fmt.Errorf("embed: map before guest/cube")
			}
			fam, err := resolveFamily(famName, wrap)
			if err != nil {
				return nil, err
			}
			nodes, err := guestNodes(gs)
			if err != nil {
				return nil, err
			}
			// Entries are appended as they parse, so the map grows with
			// the input, never with the header's claim.
			e := &Embedding{Guest: gs, Family: fam, N: n}
			for len(e.Map) < nodes {
				l, err := line()
				if err != nil {
					return nil, fmt.Errorf("embed: map truncated at %d of %d entries", len(e.Map), nodes)
				}
				for _, f := range strings.Fields(l) {
					if len(e.Map) == nodes {
						return nil, fmt.Errorf("embed: map has extra entries")
					}
					v, err := strconv.ParseUint(f, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("embed: bad map entry %q", f)
					}
					e.Map = append(e.Map, cube.Node(v))
				}
			}
			if err := e.VerifyManyToOne(); err != nil {
				return nil, err
			}
			return e, nil
		default:
			return nil, fmt.Errorf("embed: unknown field %q", fields[0])
		}
	}
}
