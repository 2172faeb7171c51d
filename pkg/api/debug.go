package api

import "encoding/json"

// DebugInfo is the "debug" block attached to API responses when the client
// asks for a per-request trace (?debug=trace or X-Debug-Trace: 1).
//
// Trace and PlanTrace are raw JSON rather than typed structs: their shapes
// belong to the server's observability layer (the span tracer and the
// planner's provenance recorder) and evolve with it, while this package
// pins only the stable envelope around them.
type DebugInfo struct {
	RequestID string `json:"request_id"`
	// Trace is the request's span tree.  The root span is still open while
	// the response is being written, so it is snapshotted mid-flight and
	// marked unfinished; its duration is the elapsed time at snapshot.
	Trace json.RawMessage `json:"trace,omitempty"`
	// PlanTrace is the planner's strategy provenance (cache-bypassed), for
	// endpoints that plan a decomposition of a mesh.  Other families have
	// no traced planner, so their debug blocks omit it.
	PlanTrace json.RawMessage `json:"plan_trace,omitempty"`
}
