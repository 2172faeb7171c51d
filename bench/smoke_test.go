package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// smokeScale shrinks every round to a few ops (the sweep to a 4-axis
// domain), so a full pass over the workloads takes seconds.
const smokeScale = 0.02

// TestSmoke runs every workload at smokeScale against a freshly built
// embedserver, once untraced and once traced, and checks the output
// contract: every metric BENCHMARK.json lists is printed with its unit,
// every answer passes its checks, and the trace holds exactly the
// documented stage names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots embedserver")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "embedserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/embedserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build embedserver: %v\n%s", err, out)
	}
	spec := loadBenchmark(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			var report bytes.Buffer
			res, err := measure(context.Background(), config{
				workload: w, seed: 1, seconds: time.Millisecond, trace: traced,
				replay: 10 * time.Second, server: bin, outDir: dir, scale: smokeScale,
			}, &report)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, traced, err, report.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, traced, res.Correct, res.Attempted, res.Failed, report.String())
			}
			want := units[traced]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %s", w, traced, name, got, unit)
				}
			}
			if traced {
				checkTraceStages(t, w, filepath.Join(dir, "trace-"+w+"-seed1.json"))
			}
		}
	}
}

func checkTraceStages(t *testing.T, w, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range doc.TraceEvents {
		if !slices.Contains(got, ev.Name) {
			got = append(got, ev.Name)
		}
	}
	want := append([]string{"bench", "replay", "op"}, workloadStages[w]...)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s trace spans %v, want %v", w, got, want)
	}
}
