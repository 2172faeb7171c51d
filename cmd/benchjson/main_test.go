package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSummarizeFoldsSamples(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		want  []Result
	}{
		{
			name: "one sample keeps its values",
			input: `pkg: repro/internal/core
BenchmarkPlan3D-2   	     100	  11860000 ns/op	 5000000 B/op	  235127 allocs/op
`,
			want: []Result{{Name: "BenchmarkPlan3D-2", Pkg: "repro/internal/core", Samples: 1,
				Iterations: 100, NsPerOp: 11860000, NsMin: 11860000, NsIQR: 0,
				BytesPerOp: 5000000, AllocsPerOp: 235127}},
		},
		{
			name: "five samples fold into median, min and IQR",
			input: `pkg: repro/internal/core
BenchmarkX-2   10   500 ns/op   64 B/op   2 allocs/op
BenchmarkX-2   10   100 ns/op   32 B/op   1 allocs/op
BenchmarkX-2   10   300 ns/op   64 B/op   2 allocs/op
BenchmarkX-2   10   200 ns/op   64 B/op   2 allocs/op
BenchmarkX-2   10   400 ns/op   96 B/op   3 allocs/op
`,
			want: []Result{{Name: "BenchmarkX-2", Pkg: "repro/internal/core", Samples: 5,
				Iterations: 50, NsPerOp: 300, NsMin: 100, NsIQR: 200,
				BytesPerOp: 64, AllocsPerOp: 2}},
		},
		{
			name: "even sample counts interpolate",
			input: `BenchmarkY   4   10 ns/op
BenchmarkY   4   20 ns/op
BenchmarkY   4   40 ns/op
BenchmarkY   4   30 ns/op
`,
			want: []Result{{Name: "BenchmarkY", Samples: 4, Iterations: 16,
				NsPerOp: 25, NsMin: 10, NsIQR: 15}},
		},
		{
			name: "one name in two packages stays two records, in first-seen order",
			input: `pkg: a
BenchmarkZ   1   7 ns/op
BenchmarkW   1   9 ns/op
pkg: b
BenchmarkZ   1   3 ns/op
pkg: a
BenchmarkZ   1   5 ns/op
`,
			want: []Result{
				{Name: "BenchmarkZ", Pkg: "a", Samples: 2, Iterations: 2, NsPerOp: 6, NsMin: 5, NsIQR: 1},
				{Name: "BenchmarkW", Pkg: "a", Samples: 1, Iterations: 1, NsPerOp: 9, NsMin: 9},
				{Name: "BenchmarkZ", Pkg: "b", Samples: 1, Iterations: 1, NsPerOp: 3, NsMin: 3},
			},
		},
		{
			name: "custom units take their median",
			input: `BenchmarkC   1   100 ns/op   2.5 Mshapes/s
BenchmarkC   1   300 ns/op   1.5 Mshapes/s
BenchmarkC   1   200 ns/op   9.0 Mshapes/s
`,
			want: []Result{{Name: "BenchmarkC", Samples: 3, Iterations: 3,
				NsPerOp: 200, NsMin: 100, NsIQR: 100,
				Extra: map[string]float64{"Mshapes/s": 2.5}}},
		},
		{
			name:  "non-benchmark lines are ignored",
			input: "goos: linux\nBenchmarkBroken notanumber 1 ns/op\nPASS\nok  \trepro\t1.0s\n",
			want:  []Result{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum, err := summarize(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sum.Benchmarks, tc.want) {
				t.Errorf("got  %+v\nwant %+v", sum.Benchmarks, tc.want)
			}
		})
	}
}
