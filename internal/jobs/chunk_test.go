package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/pkg/api"
)

var update = flag.Bool("update", false, "rewrite the chunk-wire golden files")

func plansweepTorusReq() api.JobSubmitRequest {
	req := plansweepReq()
	req.PlanSweep.Family = "torus"
	return req
}

// chunkWireCases pin one chunk of every job kind.  Fabric peers of mixed
// versions exchange exactly these bytes, so a change that moves them is a
// wire break, not a refactor.
var chunkWireCases = []struct {
	name  string
	req   api.JobSubmitRequest
	chunk int
}{
	{"census_maxn4_chunk5", censusReq(4), 5},
	{"epsilon_maxn3_chunk2", epsilonReq(3), 2},
	{"plansweep_mesh_chunk4", plansweepReq(), 4},
	{"plansweep_torus_chunk4", plansweepTorusReq(), 4},
	{"plancensus_mesh_chunk5", plancensusReq(3, 6, ""), 5},
}

// encodeChunk renders a chunk result exactly as POST /v1/internal/chunks
// writes it.
func encodeChunk(t testing.TB, res *api.ChunkResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newRunner builds a runner for req the way a job run does, with its data
// directory under the test's temp dir.
func newRunner(t testing.TB, req api.JobSubmitRequest) kindRunner {
	t.Helper()
	r, err := buildRunner(&req, 2, core.NewPlanner(core.DefaultOptions), t.TempDir())
	if err != nil {
		t.Fatalf("buildRunner: %v", err)
	}
	if c, ok := r.(runnerCloser); ok {
		t.Cleanup(c.close)
	}
	return r
}

// executeChunk runs one chunk on r and stamps it like ExecuteChunk does.
func executeChunk(t testing.TB, r kindRunner, chunk int) *api.ChunkResult {
	t.Helper()
	res, err := r.execute(context.Background(), chunk, new(bytes.Buffer))
	if err != nil {
		t.Fatalf("execute(%d): %v", chunk, err)
	}
	res.Version, res.Chunk = api.Version, chunk
	return res
}

func snapshotOf(t testing.TB, r kindRunner) []byte {
	t.Helper()
	b, err := r.snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return b
}

// TestChunkWire pins ExecuteChunk's bytes for every job kind against
// goldens written before the local loop and the fabric shared one chunk
// path, and checks that execute is blind to the running aggregate: a
// runner that has folded chunks 0..k-1 executes chunk k to a fresh
// runner's bytes, and the execute leaves its snapshot where it was.
func TestChunkWire(t *testing.T) {
	for _, tc := range chunkWireCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ExecuteChunk(context.Background(),
				api.ChunkRequest{Version: api.Version, Job: tc.req, Chunk: tc.chunk}, 2, nil)
			if err != nil {
				t.Fatalf("ExecuteChunk: %v", err)
			}
			fresh := encodeChunk(t, res)
			path := filepath.Join("testdata", "chunk_"+tc.name+".json")
			if *update {
				if err := os.WriteFile(path, fresh, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden: %v", err)
			}
			if !bytes.Equal(fresh, want) {
				t.Fatalf("ExecuteChunk bytes differ from %s:\n%s", path, fresh)
			}

			r := newRunner(t, tc.req)
			for c := 0; c < tc.chunk; c++ {
				if _, _, err := r.fold(executeChunk(t, r, c)); err != nil {
					t.Fatalf("fold(%d): %v", c, err)
				}
			}
			before := snapshotOf(t, r)
			if got := encodeChunk(t, executeChunk(t, r, tc.chunk)); !bytes.Equal(got, fresh) {
				t.Fatalf("mid-job execute(%d) differs from a fresh runner's:\n%s", tc.chunk, got)
			}
			if after := snapshotOf(t, r); !bytes.Equal(after, before) {
				t.Fatalf("execute moved the snapshot:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestCensusAggCodec pins the census aggregate decoder to encoding/json:
// it reads json.Marshal's bytes back compact or indented (as a fabric
// peer's response carries them) and rejects anything outside that
// encoding.
func TestCensusAggCodec(t *testing.T) {
	part := make([]stats.CensusTally, 4)
	for i := range part {
		for j := range part[i].Count {
			part[i].Count[j] = uint64(i*10 + j)
		}
		part[i].Eps2, part[i].Total = uint64(i)*1e12, uint64(i)<<60
	}
	part[3].Total = math.MaxUint64
	r := &censusRunner{maxN: len(part) - 1}
	compact, err := json.Marshal(part)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(part, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{compact, indented, append([]byte(" \t\r\n"), compact...)} {
		got, err := r.decodeAgg(in)
		if err != nil {
			t.Fatalf("decodeAgg(%s): %v", in, err)
		}
		if !reflect.DeepEqual(got, part) {
			t.Fatalf("decodeAgg(%s) = %v, want %v", in, got, part)
		}
	}
	s := string(compact)
	for _, bad := range []string{
		"", "null", s[:len(s)-1], s + "]", s + " x",
		strings.Replace(s, "18446744073709551615", "18446744073709551616", 1), // overflow
		strings.Replace(s, "[0,1,", "[01,1,", 1),                              // leading zero
		strings.Replace(s, "[0,1,", "[-0,1,", 1),
		strings.Replace(s, "[0,1,", "[0.0,1,", 1),
		strings.Replace(s, `"eps2"`, `"Eps2"`, 1),
		strings.Replace(s, `"eps2"`, `"eps 2"`, 1),                        // whitespace inside a key
		`[{"count":[0,0,0,0,0],"eps2":0,"total":0}]`,                      // one bucket of four
		strings.Replace(s, `,"total":0}`, `}`, 1),                         // missing key
		strings.Replace(s, `"eps2":0,"total":0`, `"total":0,"eps2":0`, 1), // reordered keys
		strings.Replace(s, `"count":[0,1,2,3,4]`, `"count":null`, 1),      // null array
		strings.Replace(s, `"count":[0,1,2,3,4]`, `"count":[0,1,2,3]`, 1), // short array
		strings.Replace(s, `,"total":0}`, `,"total":0,"x":1}`, 1),         // unknown key
	} {
		if _, err := r.decodeAgg([]byte(bad)); err == nil {
			t.Errorf("decodeAgg(%q) accepted", bad)
		}
	}
}

// TestPlanAggCodec holds the plansweep and plancensus aggregates to the
// census rule (decodeExact): restore reads a checkpoint's aggregate, and
// plansweep's fold a chunk's delta, only as json.Marshal's bytes, compact
// or indented.  A missing, unknown, miscased or reordered key is refused
// and leaves the snapshot as it was.
func TestPlanAggCodec(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  api.JobSubmitRequest
		// Edits (regexp → replacement) of the compact aggregate: a missing,
		// an unknown, a miscased and a reordered key.
		bad [][2]string
	}{
		{"plansweep", plansweepReq(), [][2]string{
			{`,"optimal":\d+`, ``},
			{`}$`, `,"x":1}`},
			{`"minimal"`, `"Minimal"`},
			{`"minimal":(\d+),"optimal":(\d+)`, `"optimal":$2,"minimal":$1`},
		}},
		{"plancensus", plancensusReq(3, 6, ""), [][2]string{
			{`"cursor":\d+,`, ``},
			{`}$`, `,"x":1}`},
			{`"cursor"`, `"Cursor"`},
			{`"next_rank":(\d+),"cursor":(\d+)`, `"cursor":$2,"next_rank":$1`},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRunner(t, tc.req)
			var delta []byte
			for c := 0; c < 3; c++ {
				res := executeChunk(t, r, c)
				if _, _, err := r.fold(res); err != nil {
					t.Fatalf("fold(%d): %v", c, err)
				}
				delta = res.Agg
			}
			agg := snapshotOf(t, r)
			indented, err := json.MarshalIndent(json.RawMessage(agg), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range [][]byte{agg, indented} {
				fresh := newRunner(t, tc.req)
				if err := fresh.restore(in); err != nil {
					t.Fatalf("restore(%s): %v", in, err)
				}
				if got := snapshotOf(t, fresh); !bytes.Equal(got, agg) {
					t.Fatalf("restore(%s) left snapshot %s", in, got)
				}
			}
			// Each path that reads an aggregate, with the bytes it reads.
			type reader struct {
				in   []byte
				read func(r kindRunner, b []byte) error
			}
			readers := []reader{{agg, func(r kindRunner, b []byte) error { return r.restore(b) }}}
			if delta != nil { // plancensus chunks carry plans, not a delta
				readers = append(readers, reader{delta, func(r kindRunner, b []byte) error {
					_, _, err := r.fold(&api.ChunkResult{Agg: b})
					return err
				}})
			}
			for _, edit := range tc.bad {
				re := regexp.MustCompile(edit[0])
				for _, rd := range readers {
					bad := re.ReplaceAll(rd.in, []byte(edit[1]))
					if bytes.Equal(bad, rd.in) {
						t.Fatalf("edit %q does not apply to %s", edit[0], rd.in)
					}
					fresh := newRunner(t, tc.req)
					before := snapshotOf(t, fresh)
					if err := rd.read(fresh, bad); err == nil {
						t.Errorf("%s accepted", bad)
					}
					if after := snapshotOf(t, fresh); !bytes.Equal(after, before) {
						t.Errorf("rejecting %s moved the snapshot to %s", bad, after)
					}
				}
			}
		})
	}
}

// foldKinds are the runners FuzzFold attacks, one per job kind.
var foldKinds = []struct {
	name string
	req  api.JobSubmitRequest
}{
	{"census", censusReq(4)},
	{"epsilon", epsilonReq(3)},
	{"plansweep", plansweepReq()},
	{"plancensus", plancensusReq(3, 6, "")},
}

// aggShapes is the shape count a runner's snapshot holds: the census bucket
// totals, the plansweep histogram, the plancensus next_rank.  Epsilon keeps
// no aggregate.
func aggShapes(t *testing.T, kind api.JobKind, snap []byte) uint64 {
	t.Helper()
	var n uint64
	var err error
	switch kind {
	case api.JobCensus:
		var agg []stats.CensusTally
		err = json.Unmarshal(snap, &agg)
		for _, b := range agg {
			n += b.Total
		}
	case api.JobPlanSweep:
		var agg plansweepAgg
		err = json.Unmarshal(snap, &agg)
		for _, v := range agg.Hist {
			n += v
		}
	case api.JobPlanCensus:
		var agg plancensusAgg
		err = json.Unmarshal(snap, &agg)
		n = agg.NextRank
	}
	if err != nil {
		t.Fatalf("%s snapshot %s: %v", kind, snap, err)
	}
	return n
}

// FuzzFold folds hostile peer results.  A fabric peer's ChunkResult is
// input from outside the process, and every local chunk passes through
// fold too.  For each kind, a runner that folded chunk 0 folds an
// arbitrary result at chunk 1: it must fail or succeed, never panic.  A
// result it accepts must report the count its aggregate grew by (epsilon:
// the 8^2 triples of chunk 1) in the NDJSON lines that count implies (one
// per plansweep shape, else one).  A failed fold must leave the snapshot
// byte-identical, and the genuine chunk 1 must then fold to the bytes and
// snapshot of a clean run — the retry a failed attempt gets.
func FuzzFold(f *testing.F) {
	type chunkPair struct {
		first, second *api.ChunkResult
		stream        []byte // fold output of the genuine second chunk
		snap          []byte // snapshot after both genuine chunks
	}
	genuine := make([]chunkPair, len(foldKinds))
	for i, k := range foldKinds {
		r := newRunner(f, k.req)
		p := chunkPair{first: executeChunk(f, r, 0), second: executeChunk(f, r, 1)}
		for _, res := range []*api.ChunkResult{p.first, p.second} {
			stream, _, err := r.fold(res)
			if err != nil {
				f.Fatalf("%s: genuine fold: %v", k.name, err)
			}
			p.stream = bytes.Clone(stream)
		}
		p.snap = snapshotOf(f, r)
		genuine[i] = p
	}

	plansJSON := func(plans []api.PlanEntry) []byte {
		b, err := json.Marshal(plans)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, p := range genuine {
		res := p.second
		f.Add(res.Shapes, res.Rows, []byte(res.Agg), plansJSON(res.Plans))
	}
	census, plancensus := genuine[0].second, genuine[3].second
	f.Add(census.Shapes, census.Rows, []byte(census.Agg[:len(census.Agg)/2]), []byte(nil))
	short, err := json.Marshal(make([]stats.CensusTally, 4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(census.Shapes, census.Rows, short, []byte(nil))
	f.Add(plancensus.Shapes, []byte(nil), []byte(nil), plansJSON(plancensus.Plans[1:]))
	edit := func(mut func(*api.PlanEntry)) []byte {
		plans := append([]api.PlanEntry(nil), plancensus.Plans...)
		mut(&plans[len(plans)-1])
		return plansJSON(plans)
	}
	f.Add(plancensus.Shapes, []byte(nil), []byte(nil), edit(func(p *api.PlanEntry) { p.Kind = "moebius" }))
	f.Add(plancensus.Shapes, []byte(nil), []byte(nil), edit(func(p *api.PlanEntry) { p.Dilation = 255 }))
	// A census chunk with an inflated count, then with its row twice.
	f.Add(census.Shapes+1000, census.Rows, []byte(census.Agg), []byte(nil))
	f.Add(census.Shapes, append(bytes.Clone(census.Rows), census.Rows...), []byte(census.Agg), []byte(nil))

	f.Fuzz(func(t *testing.T, shapes uint64, rows, agg, plans []byte) {
		hostile := api.ChunkResult{Version: api.Version, Chunk: 1, Shapes: shapes, Rows: rows, Agg: agg}
		_ = json.Unmarshal(plans, &hostile.Plans) // undecodable plans stay nil
		for i, k := range foldKinds {
			r := newRunner(t, k.req)
			if _, _, err := r.fold(genuine[i].first); err != nil {
				t.Fatalf("%s: genuine chunk 0: %v", k.name, err)
			}
			before := snapshotOf(t, r)
			res := hostile
			if stream, n, err := r.fold(&res); err == nil {
				want, lines := aggShapes(t, k.req.Kind, snapshotOf(t, r))-aggShapes(t, k.req.Kind, before), 1
				switch k.req.Kind {
				case api.JobEpsilon:
					want = 1 << 6
				case api.JobPlanSweep:
					lines = int(want)
				}
				if n != want {
					t.Fatalf("%s: accepted a result counting %d shapes; its aggregate grew by %d", k.name, n, want)
				}
				if got := bytes.Count(stream, []byte{'\n'}); got != lines {
					t.Fatalf("%s: accepted %d NDJSON lines for %d shapes, want %d", k.name, got, n, lines)
				}
				continue
			}
			if after := snapshotOf(t, r); !bytes.Equal(after, before) {
				t.Fatalf("%s: failed fold moved the snapshot:\nbefore %s\nafter  %s", k.name, before, after)
			}
			stream, _, err := r.fold(genuine[i].second)
			if err != nil {
				t.Fatalf("%s: genuine chunk 1 after a failed fold: %v", k.name, err)
			}
			if !bytes.Equal(stream, genuine[i].stream) {
				t.Fatalf("%s: retried chunk 1 folded to other bytes:\n%s", k.name, stream)
			}
			if got := snapshotOf(t, r); !bytes.Equal(got, genuine[i].snap) {
				t.Fatalf("%s: retried chunk 1 left snapshot %s, want %s", k.name, got, genuine[i].snap)
			}
		}
	})
}
