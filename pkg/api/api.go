// Package api defines the versioned wire types of the embedding service's
// /v1 HTTP API: every request and response body, the uniform JSON error
// envelope, and the batch-job subsystem's submit/status/record schema.
//
// The package is the single source of truth for the wire format.  The
// server (internal/server) serves exactly these types, the Go client SDK
// (pkg/client) decodes into them, and the golden-file round-trip tests in
// this package pin the encoded form so accidental schema breaks fail in CI
// rather than in production.
//
// Versioning: Version is stamped on every response body (success and error
// alike).  Additive changes (new optional fields) keep the version; any
// change that re-types, renames or removes a served field must bump it.
// JobSchemaVersion covers the on-disk job artifacts (checkpoints, job
// state) and the NDJSON result records, which must stay stable across
// server restarts for resume to work.  ChunkSchemaVersion covers the
// fabric's internal chunk wire (fabric.go).
package api

import "fmt"

// Version is the wire schema version stamped on every v1 response body.
// Schema v2: responses carry optimality certificates and wirelength, the
// guest family echo is always the canonical name ("mesh" included), and
// /v1/embed's mode "torus" is deprecated in favor of family "torus"
// (still accepted; the response carries a deprecation note and the
// normalized mode).  v1 request bodies remain accepted unchanged.
const Version = 2

// JobSchemaVersion is the schema version of the batch-job artifacts: the
// job-state and checkpoint files under the server's -data-dir and the
// NDJSON result records.  A server refuses to resume artifacts written
// under a different version.  Schema 2 adds the certificate columns
// (wirelength, lower bounds, gap/optimal) to plansweep and census rows and
// stamps SummaryRecord.Schema; every v2 field is additive and optional, so
// v1 result files still decode (see pkg/client.DecodeRecords) — a missing
// Schema stamp identifies a pre-certificate row.
const JobSchemaVersion = 2

// Metrics is the measured quality of one embedding: the metrics engine
// (internal/embed) fills it directly.  The JSON tags declare the
// historical schema-v1 wire bytes (Go field names, pinned by the golden
// files) explicitly; Wirelength (schema v2) is the total routed path
// length, Σ per-edge dilation.  Family names the guest family ("mesh",
// "torus", "cylinder", "tree"); Wrap is kept as the historical torus
// marker.
type Metrics struct {
	Guest         string  `json:"Guest"`
	Family        string  `json:"Family"`
	Wrap          bool    `json:"Wrap"`
	CubeDim       int     `json:"CubeDim"`
	Expansion     float64 `json:"Expansion"`
	Minimal       bool    `json:"Minimal"`
	Dilation      int     `json:"Dilation"`
	AvgDilation   float64 `json:"AvgDilation"`
	Wirelength    int64   `json:"Wirelength"`
	Congestion    int     `json:"Congestion"`
	AvgCongestion float64 `json:"AvgCongestion"`
	LoadFactor    int     `json:"LoadFactor"`
}

// String renders the metrics compactly.  The torus keeps its historical
// " (wraparound)" marker; other non-mesh families show their name.
func (m Metrics) String() string {
	w := ""
	switch {
	case m.Wrap || m.Family == "torus":
		w = " (wraparound)"
	case m.Family != "" && m.Family != "mesh":
		w = " (" + m.Family + ")"
	}
	return fmt.Sprintf("%s%s -> %d-cube: exp=%.4f minimal=%v dil=%d avgdil=%.4f wl=%d cong=%d avgcong=%.4f load=%d",
		m.Guest, w, m.CubeDim, m.Expansion, m.Minimal, m.Dilation, m.AvgDilation, m.Wirelength, m.Congestion, m.AvgCongestion, m.LoadFactor)
}

// LowerBounds are the certified per-shape floors no one-to-one embedding
// into the certificate's cube can beat (internal/bounds; Rajan et al.
// arXiv:1807.06787, Miller–Pritikin–Sudborough arXiv:1403.2749).
type LowerBounds struct {
	Dilation   int   `json:"dilation"`
	Wirelength int64 `json:"wirelength"`
	Congestion int   `json:"congestion"`
}

// Certificate reports how far an achieved (or planned) embedding is from
// provably optimal.  Each gap is achieved − lower bound for one measure;
// −1 marks a gap the endpoint cannot evaluate (e.g. /v1/plan knows the
// planned dilation but has not routed, so wirelength and congestion are
// unknown).  GapToOptimal is the sum of the known gaps, −1 when none is
// known.  Optimal is true only when every known gap is zero and at least
// one is known — the embedding provably cannot be improved on those
// measures in this cube.
type Certificate struct {
	CubeDim       int         `json:"cube_dim"`
	LowerBounds   LowerBounds `json:"lower_bounds"`
	DilationGap   int         `json:"dilation_gap"`
	WirelengthGap int64       `json:"wirelength_gap"`
	CongestionGap int         `json:"congestion_gap"`
	GapToOptimal  int64       `json:"gap_to_optimal"`
	Optimal       bool        `json:"optimal"`
}

// EmbeddingSchemaVersion is the version of EmbeddingSerial.  Readers
// reject versions they do not know instead of misparsing them.
const EmbeddingSchemaVersion = 1

// EmbeddingSerial is the one serialization of an embedding: the
// include_map object of /v1/embed and the file `embedctl embed -o` writes
// and `embedctl verify` reads.  It holds the host cube dimension and one
// host node per guest node in row-major guest order; Family is empty for a
// mesh, and Wrap is the torus's legacy marker.
type EmbeddingSerial struct {
	Version int      `json:"version"`
	Guest   string   `json:"guest"`
	Family  string   `json:"family,omitempty"`
	Wrap    bool     `json:"wrap,omitempty"`
	Cube    int      `json:"cube"`
	Map     []uint64 `json:"map"`
}

// SimRoundStats is one simulated store-and-forward stencil-exchange round,
// as the network simulator (internal/simnet) returns it.  The JSON tags
// declare the historical schema-v1 wire bytes — Go field names —
// explicitly.
type SimRoundStats struct {
	Messages  int     `json:"Messages"`
	TotalHops int     `json:"TotalHops"` // Σ path lengths
	MaxHops   int     `json:"MaxHops"`   // longest path (≥ dilation of the worst pair)
	Makespan  int     `json:"Makespan"`  // steps until every message is delivered
	MaxLink   int     `json:"MaxLink"`   // most messages crossing one directed link
	AvgHops   float64 `json:"AvgHops"`   // TotalHops / Messages
}

// ModeTorusDeprecation is the deprecation note served when a request
// selects the guest via the historical mode "torus" instead of the
// canonical family field.
const ModeTorusDeprecation = `mode "torus" is deprecated: use "family": "torus" (the request was served as family torus, mode decomposition)`

// NormalizeFamily resolves the historical mode/family duality of
// /v1/embed into the canonical (family, mode) pair.  family is one of
// "", "mesh", "torus", "cylinder", "tree" ("" means mesh); mode is one of
// "", "decomposition", "gray", or the deprecated alias "torus".  It
// returns the canonical family name (never empty), the normalized mode
// ("decomposition" or "gray"), and a deprecation note when the request
// used a retired spelling.  Unknown modes and contradictory
// family/mode pairs are errors; unknown family names are left to the
// caller's family lookup (only the known names participate in
// normalization).
func NormalizeFamily(family, mode string) (fam, normMode, deprecation string, err error) {
	fam = family
	if fam == "" {
		fam = "mesh"
	}
	switch mode {
	case "", "decomposition":
		normMode = "decomposition"
	case "gray":
		if fam != "mesh" {
			return "", "", "", fmt.Errorf("mode gray applies to the mesh family only (got %q)", family)
		}
		normMode = "gray"
	case "torus":
		if family != "" && fam != "torus" {
			return "", "", "", fmt.Errorf("mode torus conflicts with family %q", family)
		}
		fam = "torus"
		normMode = "decomposition"
		deprecation = ModeTorusDeprecation
	default:
		return "", "", "", fmt.Errorf("unknown mode %q (want decomposition, gray or torus)", mode)
	}
	return fam, normMode, deprecation, nil
}

// PlanRequest is the POST /v1/plan body.  Family selects the guest family
// — "mesh" (the default when the field
// is empty or absent, so pre-family clients are unaffected), "torus",
// "cylinder" (wraparound on the last axis only) or "tree" (shape 2^h−1
// read as the complete binary tree).
type PlanRequest struct {
	Shape  string `json:"shape"`
	Family string `json:"family,omitempty"`
}

// PlanResponse is the /v1/plan reply.  Source reports which tier of the
// server's plan hierarchy produced the result: "cache" (the in-memory L0
// result cache), "coalesced" (joined another request's in-flight
// computation), "closed_form" (the O(1) classifier proved the plan
// analytically), "artifact" (the precomputed plan-census artifact loaded
// with -plan-artifact) or "computed" (the full decomposition planner).
// /v1/embed and /v1/compare report only cache/coalesced/computed — their
// cost is dominated by building and measuring, not planning.
type PlanResponse struct {
	Version       int          `json:"version"`
	Shape         string       `json:"shape"`
	Family        string       `json:"family,omitempty"` // canonical guest family (always set since v2)
	Nodes         int          `json:"nodes"`
	CubeDim       int          `json:"cube_dim"`
	Plan          string       `json:"plan"`
	Method        int          `json:"method"`
	DilationBound int          `json:"dilation_bound"` // -1: no a-priori bound
	Certificate   *Certificate `json:"certificate,omitempty"`
	Source        string       `json:"source"`
	Debug         *DebugInfo   `json:"debug,omitempty"`
}

// EmbedRequest is the POST /v1/embed body.  Family selects the guest
// family ("mesh" when empty; see PlanRequest.Family).  Mode selects the
// construction: "" or "decomposition" (the planner) or "gray" (the
// mesh-only baseline).  Mode "torus" is a deprecated alias for
// Family "torus" — still accepted, normalized by NormalizeFamily, and
// answered with a deprecation note.
type EmbedRequest struct {
	Shape      string `json:"shape"`
	Family     string `json:"family,omitempty"`
	Mode       string `json:"mode,omitempty"`
	IncludeMap bool   `json:"include_map,omitempty"`
}

// EmbedResponse is the /v1/embed reply.  Mode is the normalized mode
// ("decomposition" or "gray") regardless of the request spelling;
// Deprecation is set when the request used a retired spelling.
type EmbedResponse struct {
	Version       int              `json:"version"`
	Shape         string           `json:"shape"`
	Family        string           `json:"family,omitempty"` // canonical guest family (always set since v2)
	Mode          string           `json:"mode"`
	Deprecation   string           `json:"deprecation,omitempty"`
	Plan          string           `json:"plan,omitempty"`
	Method        int              `json:"method,omitempty"`
	DilationBound int              `json:"dilation_bound,omitempty"`
	Metrics       Metrics          `json:"metrics"`
	Certificate   *Certificate     `json:"certificate,omitempty"`
	Source        string           `json:"source"`
	Embedding     *EmbeddingSerial `json:"embedding,omitempty"`
	Debug         *DebugInfo       `json:"debug,omitempty"`
}

// CompareRequest is the POST /v1/compare body.  Family selects the guest
// family the techniques are measured under ("mesh" when empty; see
// PlanRequest.Family).
type CompareRequest struct {
	Shape  string `json:"shape"`
	Family string `json:"family,omitempty"`
	Simnet bool   `json:"simnet,omitempty"`
}

// CompareRow is one technique's measured quality.
type CompareRow struct {
	Technique string  `json:"technique"`
	Metrics   Metrics `json:"metrics"`
}

// CompareResponse is the /v1/compare reply.  Simnet, when requested, holds
// one deterministic store-and-forward stencil-exchange round per technique.
// Certificate is evaluated at the minimal cube against the best metrics
// any minimal-cube row achieved (the Gray baseline may live in a larger
// cube; it never weakens the certificate).
type CompareResponse struct {
	Version     int                      `json:"version"`
	Shape       string                   `json:"shape"`
	Family      string                   `json:"family,omitempty"` // canonical guest family (always set since v2)
	Rows        []CompareRow             `json:"rows"`
	Certificate *Certificate             `json:"certificate,omitempty"`
	Simnet      map[string]SimRoundStats `json:"simnet,omitempty"`
	Source      string                   `json:"source"`
	Debug       *DebugInfo               `json:"debug,omitempty"`
}

// HealthzResponse is the GET /healthz reply.
type HealthzResponse struct {
	Status  string `json:"status"`
	Version int    `json:"version"`
}
