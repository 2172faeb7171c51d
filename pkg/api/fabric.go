package api

import "encoding/json"

// Distributed sweep-fabric wire schema.  A coordinator embedserver shards a
// distributed job's chunk range across worker peers: each chunk is executed
// remotely via POST /v1/internal/chunks (ChunkRequest → ChunkResult) and the
// coordinator folds the results strictly in chunk-index order, so the final
// result stream and aggregate are byte-identical to a single-node run of the
// same job.
//
// ChunkResult is portable by construction: it carries only the chunk's own
// typed records, never anything that depends on which chunks ran before it.
// That is what lets the coordinator fold chunks computed by any peer, in any
// completion order, behind the reorder buffer.  The coordinator renders
// every committed byte itself, from the records, after checking that they
// are the chunk's.
//
// The peer-admin schema (GET/POST /v1/peers) covers discovery: a static
// -peers list on the coordinator, or workers self-registering with -join.

// ChunkSchemaVersion is the version of ChunkRequest and ChunkResult: 3 since
// a chunk is its typed records, sent compactly.  It moves apart from
// Version, so a coordinator and a peer of different chunk schemas refuse
// each other's chunks by number.
const ChunkSchemaVersion = 3

// FabricSecretHeader carries the shared fabric secret on the internal
// endpoints (chunk execution, peer join).  A server started with
// -fabric-secret refuses requests whose header does not match; without a
// configured secret the internal endpoints are disabled entirely.
const FabricSecretHeader = "X-Fabric-Secret"

// ChunkRequest is the POST /v1/internal/chunks body: execute exactly one
// chunk of the given job spec.  Job is the full submit request so the worker
// can rebuild the kind runner the coordinator validated; Chunk indexes into
// the runner's fixed chunk range.
type ChunkRequest struct {
	Version int              `json:"version"`
	Job     JobSubmitRequest `json:"job"`
	Chunk   int              `json:"chunk"`
	// Trace is the coordinator's dispatch-span identity.  When set, the
	// worker runs the chunk under a child span and returns its snapshot in
	// ChunkResult.Span; when absent (the dispatch ran under no span) the
	// worker records nothing.
	Trace *TraceContext `json:"trace,omitempty"`
}

// TraceContext propagates a span identity across the fabric: TraceID names
// the coordinator job's trace, ParentSpanID the dispatch span the worker's
// subtree will be stitched under.  Mirrors obs.SpanContext without importing
// it — pkg/api stays dependency-free.
type TraceContext struct {
	TraceID      string `json:"trace_id"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
}

// ChunkResult is the reply: the chunk's deterministic records, in the field
// of its job kind.  The coordinator (and the local job loop, which passes
// the same Go values without JSON) folds them: it refuses records that are
// not the chunk's, tallies the running aggregate from them and encodes the
// NDJSON lines it commits, so a chunk's shape count and stream bytes follow
// from its records alone.
//
//   - census: Census, the shard record of first axis a = chunk+1; its
//     bucket totals are the chunk's count.
//   - epsilon: Epsilon, the row of domain exponent n = chunk+1; the chunk
//     counts the 8^n ordered triples of its domain.
//   - plansweep: PlanSweep, one plan record per shape of the chunk, in
//     enumeration order.
//   - plancensus: Plans, one PlanEntry per shape in rank order.  The chunk
//     record and the artifact records embed the cumulative string-section
//     cursor, so the coordinator replays the entries into its own artifact
//     builder and emits the chunk record itself.
type ChunkResult struct {
	Version   int                `json:"version"`
	Chunk     int                `json:"chunk"`
	Census    *CensusShardRecord `json:"census,omitempty"`
	Epsilon   *EpsilonRowRecord  `json:"epsilon,omitempty"`
	PlanSweep []PlanRecord       `json:"plansweep,omitempty"`
	Plans     []PlanEntry        `json:"plans,omitempty"`
	// Span is the worker's obs.SpanJSON snapshot of this chunk's execution,
	// present only when the request carried a TraceContext.  It is opaque
	// bytes at this layer; the coordinator unmarshals and stitches it into
	// the job trace after validating its trace ID.
	Span json.RawMessage `json:"span,omitempty"`
}

// PlanEntry is one plancensus plan in a position-independent form: exactly
// the fields of an artifact record, minus the string-section offsets the
// coordinator's builder assigns on replay.  Kind is the plan-node wire name
// (core.Kind's names table).
type PlanEntry struct {
	Kind   string `json:"kind"`
	Method int    `json:"method"`
	// Dilation is the plan's a-priori dilation bound; -1 when unknown
	// (mirrors PlanRecord.DilationBound).
	Dilation int    `json:"dilation"`
	CubeDim  int    `json:"cube_dim"`
	Minimal  bool   `json:"minimal,omitempty"`
	Plan     string `json:"plan"`
}

// PeerState is a fabric peer's health as the coordinator sees it.
type PeerState string

const (
	PeerUp   PeerState = "up"
	PeerDown PeerState = "down"
)

// PeerStatus is one fabric peer's live status (GET /v1/peers, and the
// per-peer rows of a distributed job's JobStatus.Fabric block).
type PeerStatus struct {
	Addr  string    `json:"addr"`
	State PeerState `json:"state"`
	// InFlight is the number of chunks currently executing on the peer.
	InFlight int `json:"in_flight"`
	// Dispatched / Requeued / Failed are lifetime chunk counters for this
	// peer: executions started, chunks taken back after the peer failed, and
	// execution attempts that errored.
	Dispatched uint64 `json:"dispatched"`
	Requeued   uint64 `json:"requeued"`
	Failed     uint64 `json:"failed"`
	// LastError is the most recent failure observed on the peer ("" when
	// none); purely diagnostic.
	LastError string `json:"last_error,omitempty"`
}

// PeersResponse is the GET /v1/peers reply.
type PeersResponse struct {
	Version int          `json:"version"`
	Peers   []PeerStatus `json:"peers"`
}

// PeerJoinRequest is the POST /v1/peers body: a worker self-registering its
// advertised base URL with the coordinator (the -join flag).  Joining an
// already-known address re-dials it, so a restarted worker can rejoin under
// the same address.
type PeerJoinRequest struct {
	Addr string `json:"addr"`
}

// JobPeer is one peer's share of a running distributed job.
type JobPeer struct {
	Addr  string    `json:"addr"`
	State PeerState `json:"state"`
	// InFlight are the chunk indexes currently executing on this peer, in
	// ascending order.
	InFlight []int `json:"in_flight,omitempty"`
	// Done counts chunks this peer completed for this job.
	Done uint64 `json:"done"`
}

// FabricProgress is the distributed-dispatch block of a running distributed
// job's status.
type FabricProgress struct {
	// Peers lists every peer the dispatcher considered, with its current
	// chunk assignment.
	Peers []JobPeer `json:"peers"`
	// Requeued counts chunks re-dispatched after a peer failure (each is
	// still folded exactly once).
	Requeued uint64 `json:"requeued"`
}
