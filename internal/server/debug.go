package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/pkg/api"
)

// Request debugging: any API request may ask for its own trace with
// ?debug=trace or an X-Debug-Trace: 1 header.  A debug request runs under a
// per-request obs root span ("request") whose children record the pipeline
// phases — queue-wait, cache-lookup, coalesce-wait, compute (with plan /
// build / verify / measure below it) and encode — and the response gains a
// "debug" block carrying the request ID, the span tree and, for endpoints
// that plan a mesh, the full PlanTrace strategy provenance.
//
// Provenance is computed by a separate Planner.PlanTraced run: the normal
// lookup path stays exactly as served (a cache hit is reported as a cache
// hit), while the traced run bypasses the caches so the strategy attempts
// are genuine rather than "cache hit, nothing tried".
//
// Non-debug requests with no logger configured skip all of this — no span,
// no request ID, no context value — so the hot path's allocation profile is
// unchanged.

// reqIDCounter makes request IDs unique (and ordered) within a process;
// obs.IDPrefix makes them unique across restarts.
var reqIDCounter atomic.Uint64

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", obs.IDPrefix, reqIDCounter.Add(1))
}

// reqMeta rides the request context through the handler so the access log
// and the debug block see what the handler learned (shape, mode, source).
// It exists only for debug requests or when a logger is configured; all
// methods tolerate a nil receiver so handlers never branch.
type reqMeta struct {
	id     string
	debug  bool
	root   *obs.Span // nil unless debug
	shape  string
	mode   string
	source string
}

type reqMetaKeyType struct{}

var reqMetaKey reqMetaKeyType

func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(reqMetaKey).(*reqMeta)
	return m
}

// setShape takes the Shape rather than a string so the hot path never pays
// for the String() rendering a nil receiver would throw away.
func (m *reqMeta) setShape(sh mesh.Shape, mode string) {
	if m == nil {
		return
	}
	m.shape, m.mode = sh.String(), mode
	m.root.SetAttr("shape", m.shape)
	if mode != "" {
		m.root.SetAttr("mode", mode)
	}
}

func (m *reqMeta) setSource(source string) {
	if m == nil {
		return
	}
	m.source = source
	m.root.SetAttr("source", source)
}

// debugRequested reports whether the client asked for a per-request trace.
// The query is only parsed when one is present — r.URL.Query() allocates,
// and the hot path must not pay for a feature it isn't using.
func debugRequested(r *http.Request) bool {
	if r.URL.RawQuery != "" && r.URL.Query().Get("debug") == "trace" {
		return true
	}
	return r.Header.Get("X-Debug-Trace") == "1"
}

// debugProvenance runs the cache-bypassed planner provenance pass for a
// debug request and marshals it for api.DebugInfo's raw PlanTrace slot.
// Only the mesh family gets one: Planner.PlanTraced plans meshes, so its
// trace of a torus, cylinder or tree shape would describe a plan the server
// did not serve.  Failures are swallowed: the shape already planned once on
// the serving path, and a debug block without provenance beats a 500.
func (s *Server) debugProvenance(ctx context.Context, fam guest.Family, sh mesh.Shape) json.RawMessage {
	if fam != guest.Mesh {
		return nil
	}
	_, pt, err := s.planner.PlanTraced(ctx, sh)
	if err != nil {
		return nil
	}
	raw, err := json.Marshal(pt)
	if err != nil {
		return nil
	}
	return raw
}

// finishDebug completes a debug block just before the response is encoded:
// it pre-encodes the payload to io.Discard under an "encode" span to measure
// serialization — the trace cannot time the write that carries it — and
// snapshots the span tree into di.Trace.  resp must already reference di so
// the real encode includes the finished block; it is passed by value so the
// handler's response never has its address taken — that would force a heap
// escape the non-debug hot path would pay for.  Only debug requests call
// it, and instrument gave each of them a root span.
func (s *Server) finishDebug(ctx context.Context, di *api.DebugInfo, resp any) {
	_, esp := obs.Start(ctx, "encode")
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
	esp.End()
	if raw, err := json.Marshal(metaFrom(ctx).root.Snapshot()); err == nil {
		di.Trace = raw
	}
}
