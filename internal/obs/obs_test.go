package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestEnabledNoSpanZeroAllocs(t *testing.T) {
	// The server's non-debug request path: tracer armed, but the
	// context carries no span — still allocation-free.
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := Start(ctx, "hot")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("enabled no-span Start allocated %.1f times per run, want 0", allocs)
	}
}

func TestSpanTree(t *testing.T) {
	ctx, root := StartRoot(context.Background(), "root")
	if root == nil {
		t.Fatal("StartRoot returned nil")
	}
	cctx, a := Start(ctx, "a")
	a.SetAttr("k", "v")
	_, aa := Start(cctx, "aa")
	aa.End()
	a.End()
	_, b := Start(ctx, "b")
	b.End()
	root.End()

	snap := root.Snapshot()
	if snap.Count() != 4 {
		t.Fatalf("span count = %d, want 4", snap.Count())
	}
	if len(snap.Children) != 2 || snap.Children[0].Name != "a" || snap.Children[1].Name != "b" {
		t.Fatalf("unexpected children: %+v", snap.Children)
	}
	if got := snap.Find("aa"); got == nil {
		t.Fatal("Find(aa) = nil")
	}
	if snap.Children[0].Attrs[0].Key != "k" {
		t.Fatalf("attr not recorded: %+v", snap.Children[0].Attrs)
	}
	if snap.Unfinished || snap.DurationNS < 0 {
		t.Fatalf("root should be finished with non-negative duration: %+v", snap)
	}
}

func TestUnfinishedSnapshot(t *testing.T) {
	_, root := StartRoot(context.Background(), "root")
	snap := root.Snapshot()
	if !snap.Unfinished {
		t.Fatal("running span must snapshot as unfinished")
	}
	if snap.DurationNS < 0 {
		t.Fatalf("unfinished duration = %d, want elapsed-so-far", snap.DurationNS)
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	s.End()
	s.SetAttr("k", 1)
	s.SetLane(3)
	if s.StartChild("c") != nil {
		t.Fatal("nil StartChild must return nil")
	}
	if s.Snapshot() != nil {
		t.Fatal("nil Snapshot must return nil")
	}
	if s.Name() != "" {
		t.Fatal("nil Name must be empty")
	}
}

func TestConcurrentChildren(t *testing.T) {
	ctx, root := StartRoot(context.Background(), "root")
	const workers, per = 16, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, sp := Start(ctx, fmt.Sprintf("w%d-%d", w, i))
				sp.SetAttr("worker", w)
				sp.SetLane(w + 1)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	snap := root.Snapshot()
	if got := len(snap.Children); got != workers*per {
		t.Fatalf("children = %d, want %d", got, workers*per)
	}
	for _, c := range snap.Children {
		if c.Unfinished {
			t.Fatalf("child %s unfinished", c.Name)
		}
		if c.Lane < 1 || c.Lane > workers {
			t.Fatalf("child %s lane = %d", c.Name, c.Lane)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	before := ReadStats()
	ctx, root := StartRoot(context.Background(), "root")
	_, c := Start(ctx, "c")
	c.End()
	root.End()
	after := ReadStats()
	if after.Traces != before.Traces+1 {
		t.Fatalf("traces %d -> %d, want +1", before.Traces, after.Traces)
	}
	if after.Spans != before.Spans+2 {
		t.Fatalf("spans %d -> %d, want +2", before.Spans, after.Spans)
	}
	if after.OverheadNS < before.OverheadNS {
		t.Fatalf("overhead went backwards: %d -> %d", before.OverheadNS, after.OverheadNS)
	}
}

func TestSpanContext(t *testing.T) {
	ctx, root := StartRoot(context.Background(), "root")
	_, child := Start(ctx, "child")
	rc, cc := root.Context(), child.Context()
	if rc.TraceID == "" || rc.SpanID == "" {
		t.Fatalf("root context incomplete: %+v", rc)
	}
	if cc.TraceID != rc.TraceID {
		t.Fatalf("child trace ID %q != root trace ID %q", cc.TraceID, rc.TraceID)
	}
	if cc.SpanID == rc.SpanID {
		t.Fatalf("child span ID %q collides with root", cc.SpanID)
	}
	if again := child.Context(); again != cc {
		t.Fatalf("Context not stable: %+v then %+v", cc, again)
	}
	_, other := StartRoot(context.Background(), "other")
	if other.Context().TraceID == rc.TraceID {
		t.Fatal("two roots share a trace ID")
	}
	var nilSpan *Span
	if sc := nilSpan.Context(); sc != (SpanContext{}) {
		t.Fatalf("nil Context = %+v, want zero", sc)
	}
	child.End()
	root.End()
	// Only spans whose Context was taken carry a span_id in the export.
	snap := root.Snapshot()
	if snap.SpanID != rc.SpanID || snap.Children[0].SpanID != cc.SpanID {
		t.Fatalf("snapshot IDs not preserved: %+v", snap)
	}
	_, plain := StartRoot(context.Background(), "plain")
	plain.End()
	if got := plain.Snapshot().SpanID; got != "" {
		t.Fatalf("untouched span exported span_id %q, want empty", got)
	}
}

func TestAttachRemote(t *testing.T) {
	_, root := StartRoot(context.Background(), "root")
	local := root.StartChild("local")
	local.End()
	remote := &SpanJSON{
		Name:         "remote chunk",
		DurationNS:   42,
		TraceID:      root.Context().TraceID,
		ParentSpanID: root.Context().SpanID,
	}
	root.AttachRemote(remote)
	root.AttachRemote(nil) // no-op
	root.End()
	snap := root.Snapshot()
	if len(snap.Children) != 2 {
		t.Fatalf("children = %d, want local + remote", len(snap.Children))
	}
	if snap.Children[0].Name != "local" || snap.Children[1].Name != "remote chunk" {
		t.Fatalf("remote subtree not appended after local children: %+v", snap.Children)
	}
	if snap.Children[1].ParentSpanID != snap.SpanID {
		t.Fatal("remote parent_span_id does not match the stitched parent")
	}
	if snap.Count() != 3 {
		t.Fatalf("count = %d, want 3", snap.Count())
	}
	var nilSpan *Span
	nilSpan.AttachRemote(remote) // nil-safe
}

func TestChromeExport(t *testing.T) {
	ctx, root := StartRoot(context.Background(), "root")
	cctx, a := Start(ctx, "a")
	a.SetLane(2)
	_, aa := Start(cctx, "aa") // inherits lane 2
	aa.SetAttr("items", 7)
	aa.End()
	a.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, root.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %s: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.TS <= 0 || ev.PID != 1 {
			t.Fatalf("event %s: bad ts/pid: %+v", ev.Name, ev)
		}
		byName[ev.Name] = ev.TID
	}
	if byName["root"] != 1 || byName["a"] != 2 || byName["aa"] != 2 {
		t.Fatalf("lane inheritance broken: %v", byName)
	}
}
