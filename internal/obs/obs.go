// Package obs is a zero-dependency, context-propagated span tracer for the
// embedding stack.  A trace is a tree of spans: StartRoot opens the root for
// one unit of work (an HTTP request, a CLI invocation) and Start opens a
// child of whatever span the context already carries.  Spans record wall
// time and free-form attributes; the finished tree is exported as JSON
// (Snapshot) or as Chrome trace-event JSON (WriteChromeTrace).
//
// The tracer is always armed and built to disappear from the hot path:
//
//   - When no span rides the context — the common case for every non-debug
//     request — Start is one context lookup and allocation-free.
//   - All Span methods are nil-receiver safe, so instrumented code never
//     branches on whether tracing is active.
//
// Package counters (ReadStats) expose how many spans and traces were started
// and the cumulative time spent creating spans, so the tracer's own overhead
// is observable from /metrics.
package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

var (
	spansStarted  atomic.Uint64
	tracesStarted atomic.Uint64
	overheadNS    atomic.Int64
)

// Stats are the tracer's own counters, for the /metrics exposition.
type Stats struct {
	// Spans counts spans started (roots included).
	Spans uint64
	// Traces counts root spans started.
	Traces uint64
	// OverheadNS is the cumulative wall time spent inside span creation —
	// an upper-bound estimate of the tracer's cost.
	OverheadNS int64
}

// ReadStats returns the current counter values.
func ReadStats() Stats {
	return Stats{
		Spans:      spansStarted.Load(),
		Traces:     tracesStarted.Load(),
		OverheadNS: overheadNS.Load(),
	}
}

// IDPrefix is the process's random 8-hex-digit ID prefix.  Span, request
// and job IDs all start with it, so IDs minted by two processes (a
// coordinator and its workers, a server and its restart) cannot collide.
var IDPrefix = fmt.Sprintf("%08x", rand.Uint32())

// Span identity for cross-process propagation: IDs are assigned lazily (only
// spans that actually cross a process boundary pay for one) from IDPrefix
// plus a counter.
var idCounter atomic.Uint64

func newID() string {
	return fmt.Sprintf("%s-%x", IDPrefix, idCounter.Add(1))
}

// SpanContext is a span's propagable wire identity: enough for a remote
// process to run work under a child of this span and for the originator to
// validate the returned snapshot before stitching it in.  The zero value
// means "no trace" — both sides then record nothing.
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Context returns the span's wire identity, minting IDs on first use.  The
// trace ID is shared by every span of the trace (assigned at StartRoot); the
// span ID is unique to s.  Nil-safe: returns the zero SpanContext.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	s.mu.Lock()
	if s.id == "" {
		s.id = newID()
	}
	sc := SpanContext{TraceID: s.traceID, SpanID: s.id}
	s.mu.Unlock()
	return sc
}

// Attr is one span attribute.  Values should be JSON-marshalable scalars.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed node of a trace tree.  A Span is safe for concurrent
// use: children may be started and ended from many goroutines (the sweep
// worker pool does exactly that).  The nil *Span is a valid no-op span.
type Span struct {
	name  string
	start time.Time
	// traceID is inherited root → children at creation and immutable after,
	// so it is read without the lock.
	traceID string

	mu       sync.Mutex
	id       string // wire span ID; minted lazily by Context()
	durNS    int64  // -1 while running
	lane     int    // Chrome-export lane (tid); 0 inherits the parent's
	attrs    []Attr
	children []*Span
	remote   []*SpanJSON // pre-snapshotted subtrees grafted by AttachRemote
}

type ctxKey struct{}

// FromContext returns the span riding ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartRoot opens a new trace and returns ctx carrying its root span.
func StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	t0 := time.Now()
	s := &Span{name: name, start: t0, durNS: -1, traceID: newID()}
	tracesStarted.Add(1)
	spansStarted.Add(1)
	overheadNS.Add(int64(time.Since(t0)))
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Start opens a child of the span riding ctx and returns ctx carrying the
// child.  When no span rides ctx it returns (ctx, nil) without allocating.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.StartChild(name)
	return context.WithValue(ctx, ctxKey{}, c), c
}

// StartChild opens a child span directly on s (for callers that hold a span
// rather than a context).  Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t0 := time.Now()
	c := &Span{name: name, start: t0, durNS: -1, traceID: s.traceID}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	spansStarted.Add(1)
	overheadNS.Add(int64(time.Since(t0)))
	return c
}

// End fixes the span's duration.  Ending twice keeps the first duration;
// nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := int64(time.Since(s.start))
	s.mu.Lock()
	if s.durNS < 0 {
		s.durNS = d
	}
	s.mu.Unlock()
}

// SetAttr appends one attribute.  Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetLane assigns the span (and, by inheritance, its subtree) to a Chrome
// trace-export lane, so concurrent siblings — sweep workers — render on
// separate rows instead of overlapping.  Nil-safe.
func (s *Span) SetLane(l int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.lane = l
	s.mu.Unlock()
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// AttachRemote grafts a snapshot produced by another process — a worker's
// chunk subtree — under s: Snapshot() appends it after the locally started
// children.  The caller hands over ownership of snap (it is not deep-copied).
// Nil-safe on both sides.
func (s *Span) AttachRemote(snap *SpanJSON) {
	if s == nil || snap == nil {
		return
	}
	s.mu.Lock()
	s.remote = append(s.remote, snap)
	s.mu.Unlock()
}

// SpanJSON is the exported form of a span tree: a deep, immutable copy safe
// to marshal and to hand across API boundaries.
type SpanJSON struct {
	Name        string `json:"name"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	// TraceID / SpanID / ParentSpanID are the wire-propagation identity.
	// SpanID appears only on spans whose Context() was taken (e.g. fabric
	// dispatch spans); TraceID and ParentSpanID are stamped by whoever ships
	// the snapshot across a process boundary (jobs.ExecuteChunk on workers,
	// writeTrace on the root), so purely-local traces stay byte-stable.
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Unfinished marks spans still running at snapshot time (their
	// DurationNS is the elapsed time so far) — the per-request root and the
	// encode phase are snapshotted mid-flight by design.
	Unfinished bool        `json:"unfinished,omitempty"`
	Lane       int         `json:"lane,omitempty"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Children   []*SpanJSON `json:"children,omitempty"`
}

// Snapshot deep-copies the span tree.  Safe to call while other goroutines
// still add children; spans not yet ended are flagged Unfinished.
func (s *Span) Snapshot() *SpanJSON {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := &SpanJSON{
		Name:        s.name,
		StartUnixNS: s.start.UnixNano(),
		DurationNS:  s.durNS,
		SpanID:      s.id,
		Lane:        s.lane,
	}
	if len(s.attrs) > 0 {
		out.Attrs = append([]Attr(nil), s.attrs...)
	}
	kids := append([]*Span(nil), s.children...)
	remote := append([]*SpanJSON(nil), s.remote...)
	s.mu.Unlock()
	if out.DurationNS < 0 {
		out.Unfinished = true
		out.DurationNS = int64(time.Since(s.start))
	}
	for _, c := range kids {
		out.Children = append(out.Children, c.Snapshot())
	}
	out.Children = append(out.Children, remote...)
	return out
}

// Count returns the number of spans in the tree (zero for nil).
func (t *SpanJSON) Count() int {
	if t == nil {
		return 0
	}
	n := 1
	for _, c := range t.Children {
		n += c.Count()
	}
	return n
}

// Find returns the first span in pre-order whose name matches, or nil.
func (t *SpanJSON) Find(name string) *SpanJSON {
	if t == nil {
		return nil
	}
	if t.Name == name {
		return t
	}
	for _, c := range t.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}
