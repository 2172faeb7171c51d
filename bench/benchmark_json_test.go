package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	namePat = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPat = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathPat = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !namePat.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or repeated", n)
		}
		seen[n] = true
	}
	var workloads []string
	for _, w := range b.Workloads {
		name(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("workloads %v, bench runs %v", workloads, workloadNames)
	}

	var e2e []metricSpec
	maxBound, setupBound := 0.0, -1.0
	for _, m := range b.EndToEnd {
		name(m.Name)
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if !unitPat.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q or direction %q malformed", m.Name, m.Unit, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		} else if m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("metric %s: bound %v outside (0, 0.10]", m.Name, m.Bound)
		}
	}
	// setup_s stands in for an absolute floor with the largest relative
	// bound the file may hold.
	if setupBound != maxBound || setupBound > 0.25 {
		t.Errorf("setup_s bound %v, want the largest bound %v and at most 0.25", setupBound, maxBound)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, bench prints %v", e2e, endToEnd)
	}

	targets := append(slices.Clone(endToEnd), observed...)
	isTarget := func(name string) bool {
		return slices.ContainsFunc(targets, func(s metricSpec) bool { return s.name == name })
	}
	var layer []metricSpec
	for _, m := range b.PerLayer {
		name(m.Name)
		layer = append(layer, metricSpec{m.Name, m.Unit, m.Better})
		if !unitPat.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q or direction %q malformed", m.Name, m.Unit, m.Better)
		}
		moves := layerMoves[m.Name]
		if len(moves) == 0 && !isTarget(m.Name) {
			t.Errorf("layer metric %s names no end-to-end or observed metric it should move", m.Name)
		}
		for _, mv := range moves {
			if !isTarget(mv.metric) || !slices.Contains(workloadNames, mv.workload) {
				t.Errorf("layer metric %s moves unknown %s on %s", m.Name, mv.metric, mv.workload)
			}
		}
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, bench prints %v", layer, perLayer)
	}
	if len(layerMoves) != len(perLayer)-len(observed) {
		t.Errorf("%d move predictions for %d layer metrics", len(layerMoves), len(perLayer)-len(observed))
	}

	if n := len(b.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range b.Paths {
		if !pathPat.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			t.Errorf("path %q malformed", p)
		}
		if st, err := os.Stat(filepath.Join("..", p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if n := len(b.Command); n < 1 || n > 32 {
		t.Errorf("command has %d words, want 1..32", n)
	}
	for i, arg := range b.Command {
		if _, err := os.Stat(filepath.Join("..", arg)); i == 0 || err != nil {
			continue // the program, or not a repository file
		}
		if !slices.ContainsFunc(b.Paths, func(p string) bool { return strings.HasPrefix(arg, p+"/") }) {
			t.Errorf("command names %s, outside the benchmark's paths", arg)
		}
	}
}
