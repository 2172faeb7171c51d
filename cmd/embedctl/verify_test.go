package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// writeJSON marshals v into a file under t's temp dir, newline-terminated
// like embed -o, and returns its path.
func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func built7x6x5(t *testing.T) *embed.Embedding {
	t.Helper()
	p, err := core.PlanGuest(guest.Mesh, mesh.Shape{7, 6, 5}, core.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	return p.Build()
}

func TestReadEmbeddingEmbedOutput(t *testing.T) {
	e := built7x6x5(t)
	got, err := readEmbedding(writeJSON(t, "m.json", e.Serial()))
	if err != nil {
		t.Fatalf("embed -o file rejected: %v", err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("reloaded embedding invalid: %v", err)
	}
	if got.Measure().Dilation != e.Measure().Dilation {
		t.Fatalf("reloaded dilation %d, built %d", got.Measure().Dilation, e.Measure().Dilation)
	}
}

func TestReadEmbeddingWholeResponse(t *testing.T) {
	e := built7x6x5(t)
	resp := api.EmbedResponse{
		Version: api.Version, Shape: "7x6x5", Family: "mesh", Mode: "decomposition",
		Metrics: e.Measure(), Source: "computed", Embedding: e.Serial(),
	}
	_, err := readEmbedding(writeJSON(t, "resp.json", resp))
	if err == nil {
		t.Fatal("whole /v1/embed response accepted as an embedding file")
	}
	for _, want := range []string{"whole /v1/embed response", `"embedding" object`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the problem (want %q)", err, want)
		}
	}
}

func TestReadEmbeddingGarbage(t *testing.T) {
	bad := api.EmbeddingSerial{Version: api.EmbeddingSchemaVersion, Guest: "3x3", Cube: 4, Map: []uint64{0, 1}}
	_, want := embed.FromSerial(&bad)
	if want == nil {
		t.Fatal("FromSerial accepted a 2-entry map for a 9-node guest")
	}
	_, err := readEmbedding(writeJSON(t, "bad.json", bad))
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("readEmbedding error %v, want FromSerial's %v", err, want)
	}
}
