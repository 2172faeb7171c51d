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
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/guest"
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
// writes it: compact, one line.
func encodeChunk(t testing.TB, res *api.ChunkResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(res); err != nil {
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
	res, err := r.execute(context.Background(), chunk)
	if err != nil {
		t.Fatalf("execute(%d): %v", chunk, err)
	}
	res.Version, res.Chunk = api.ChunkSchemaVersion, chunk
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

// foldChunk folds res into r and returns the bytes it rendered.
func foldChunk(t testing.TB, r kindRunner, res *api.ChunkResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.fold(res, &buf); err != nil {
		t.Fatalf("fold(%d): %v", res.Chunk, err)
	}
	return buf.Bytes()
}

// TestChunkWire pins ExecuteChunk's bytes, the chunk's typed records, for
// every job kind, and checks that execute is blind to the running
// aggregate: a runner that has folded chunks 0..k-1 executes chunk k to a
// fresh runner's bytes, and the execute leaves its snapshot where it was.
func TestChunkWire(t *testing.T) {
	for _, tc := range chunkWireCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ExecuteChunk(context.Background(),
				api.ChunkRequest{Version: api.ChunkSchemaVersion, Job: tc.req, Chunk: tc.chunk}, 2, nil)
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
				foldChunk(t, r, executeChunk(t, r, c))
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

// TestCensusAggCodec pins the census checkpoint decoder to encoding/json:
// restore reads json.Marshal's bytes back compact or indented and rejects
// anything outside that encoding.
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
		if err := r.restore(in); err != nil {
			t.Fatalf("restore(%s): %v", in, err)
		}
		if !reflect.DeepEqual(r.agg, part) {
			t.Fatalf("restore(%s) = %v, want %v", in, r.agg, part)
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
		if err := r.restore([]byte(bad)); err == nil {
			t.Errorf("restore(%q) accepted", bad)
		}
	}
}

// TestPlanAggCodec holds the plansweep and plancensus checkpoint
// aggregates to the census rule (decodeExact): restore reads one only as
// json.Marshal's bytes, compact or indented.  A missing, unknown, miscased
// or reordered key is refused and leaves the snapshot as it was.
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
			for c := 0; c < 3; c++ {
				foldChunk(t, r, executeChunk(t, r, c))
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
			for _, edit := range tc.bad {
				bad := regexp.MustCompile(edit[0]).ReplaceAll(agg, []byte(edit[1]))
				if bytes.Equal(bad, agg) {
					t.Fatalf("edit %q does not apply to %s", edit[0], agg)
				}
				fresh := newRunner(t, tc.req)
				before := snapshotOf(t, fresh)
				if err := fresh.restore(bad); err == nil {
					t.Errorf("%s accepted", bad)
				}
				if after := snapshotOf(t, fresh); !bytes.Equal(after, before) {
					t.Errorf("rejecting %s moved the snapshot to %s", bad, after)
				}
			}
		})
	}
}

// foldKinds are the runners FuzzFold attacks, one per job kind.  Their
// chunk 1 is a handful of records (the plansweep one six 3-D shapes), so a
// fuzzed result decodes and a genuine one folds in little time.
var foldKinds = []struct {
	name string
	req  api.JobSubmitRequest
}{
	{"census", censusReq(4)},
	{"epsilon", epsilonReq(3)},
	{"plansweep", api.JobSubmitRequest{
		Kind:      api.JobPlanSweep,
		PlanSweep: &api.PlanSweepParams{Dims: 3, MaxAxis: 4, MaxNodes: 64},
	}},
	{"plancensus", plancensusReq(3, 6, "")},
}

// foldOracle is what fold must have done with an accepted result at chunk
// 1 of req, derived from its records apart from fold's own code: the
// stream is the encoding of its records, and the count and the aggregate
// (before, the snapshot after chunk 0) grow by their tally.  It fails the
// test when the records are not chunk 1's.  after is the snapshot fold
// left; plancensus takes its string cursor from it, which only the
// artifact builder assigns.
func foldOracle(t *testing.T, req api.JobSubmitRequest, res *api.ChunkResult, before, after []byte) (stream []byte, n uint64, snap []byte) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	encode := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	hist := func(h map[string]uint64, dilation int) {
		key := "unknown"
		if dilation >= 0 {
			key = strconv.Itoa(dilation)
		}
		h[key]++
	}
	var agg any
	switch req.Kind {
	case api.JobCensus:
		rec := res.Census
		if rec == nil || rec.Type != api.RecordCensusShard || rec.A != 2 {
			t.Fatalf("census: accepted %+v as the shard of a=2", rec)
		}
		var tally []stats.CensusTally
		mustUnmarshal(t, before, &tally)
		prev := 0
		for _, b := range rec.Buckets {
			var sum uint64
			for _, c := range b.Count {
				sum += c
			}
			if b.N <= prev || b.N > req.Census.MaxN || b.Total == 0 || b.Total > 1<<uint(3*b.N) ||
				b.Eps2 > b.Total || slices.Max(b.Count[:]) > b.Total || sum != b.Total {
				t.Fatalf("census: accepted bucket %+v after n=%d", b, prev)
			}
			prev = b.N
			for i, c := range b.Count {
				tally[b.N].Count[i] += c
			}
			tally[b.N].Eps2 += b.Eps2
			tally[b.N].Total += b.Total
			n += b.Total
		}
		encode(rec)
		agg = tally
	case api.JobEpsilon:
		if rec := res.Epsilon; rec == nil || rec.Type != api.RecordEpsilonRow || rec.N != 2 {
			t.Fatalf("epsilon: accepted %+v as the row of n=2", rec)
		}
		encode(res.Epsilon)
		return buf.Bytes(), 1 << 6, before // epsilon keeps no aggregate
	case api.JobPlanSweep:
		p := req.PlanSweep
		shapes := core.FamilyShapesFrom(guest.Mesh, 2, p.Dims, p.MaxAxis, p.MaxNodes)
		if len(res.PlanSweep) != len(shapes) {
			t.Fatalf("plansweep: accepted %d records for %d shapes", len(res.PlanSweep), len(shapes))
		}
		var a plansweepAgg
		mustUnmarshal(t, before, &a)
		for i := range res.PlanSweep {
			rec := &res.PlanSweep[i]
			if rec.Type != api.RecordPlan || rec.Shape != shapes[i].String() || rec.Family != "" {
				t.Fatalf("plansweep: accepted record %d %+v for shape %v", i, rec, shapes[i])
			}
			encode(rec)
			hist(a.Hist, rec.DilationBound)
			a.Minimal += b2u(rec.Minimal)
			a.Optimal += b2u(rec.Optimal)
		}
		n, agg = uint64(len(shapes)), a
	case api.JobPlanCensus:
		lo, hi := artifact.ChunkRange(req.PlanCensus.Dims, 2)
		if uint64(len(res.Plans)) != hi-lo {
			t.Fatalf("plancensus: accepted %d plans for ranks [%d,%d)", len(res.Plans), lo, hi)
		}
		var a, fin plancensusAgg
		mustUnmarshal(t, before, &a)
		mustUnmarshal(t, after, &fin)
		for _, pe := range res.Plans {
			hist(a.Hist, pe.Dilation)
			a.Minimal += b2u(pe.Minimal)
		}
		a.NextRank, a.Cursor = hi, fin.Cursor
		encode(api.PlanCensusChunkRecord{Type: api.RecordPlanCensusChunk, MaxAxisValue: 2,
			Records: hi - lo, RankLo: lo, RankHi: hi, StringBytes: a.Cursor})
		n, agg = hi-lo, a
	}
	snap, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), n, snap
}

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", b, err)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// FuzzFold folds hostile peer results.  A fabric peer's ChunkResult is
// input from outside the process, and every local chunk passes through
// fold too.  The runner of the fuzzed kind (taken modulo the four), having
// folded chunk 0, folds the fuzzed JSON, decoded as a ChunkResult, at
// chunk 1: it must fail or succeed, never panic.  A result it accepts must
// be chunk 1's, and fold must have rendered exactly its records and grown
// the count and the aggregate by exactly their tally (foldOracle).  A
// failed fold must leave the snapshot byte-identical, and the genuine
// chunk 1 must then fold to the bytes and snapshot of a clean run — the
// retry a failed attempt gets.  Each kind's runner is built once; every
// input restores it to its chunk-0 snapshot, as a resumed job restores its
// checkpoint.  Seeds are edits of each kind's genuine chunk 1, and every
// kind's genuine chunk 1 and an empty result for each runner.
func FuzzFold(f *testing.F) {
	type chunkPair struct {
		r      kindRunner
		after0 []byte // snapshot after the genuine first chunk
		second *api.ChunkResult
		stream []byte // fold output of the genuine second chunk
		snap   []byte // snapshot after both genuine chunks
	}
	genuine := make([]chunkPair, len(foldKinds))
	for i, k := range foldKinds {
		r := newRunner(f, k.req)
		p := chunkPair{r: r, second: executeChunk(f, r, 1)}
		foldChunk(f, r, executeChunk(f, r, 0))
		p.after0 = snapshotOf(f, r)
		p.stream = foldChunk(f, r, p.second)
		p.snap = snapshotOf(f, r)
		genuine[i] = p
	}
	// edited is kind i's genuine chunk-1 result after edit, applied to a
	// deep copy (a JSON round trip).
	edited := func(i int, edit func(res *api.ChunkResult)) []byte {
		var res api.ChunkResult
		b, err := json.Marshal(genuine[i].second)
		if err == nil {
			err = json.Unmarshal(b, &res)
		}
		if err != nil {
			f.Fatal(err)
		}
		edit(&res)
		if b, err = json.Marshal(&res); err != nil {
			f.Fatal(err)
		}
		return b
	}
	// Every runner is seeded with each kind's genuine chunk 1 and an empty
	// result; each edit below goes to its own kind's runner.
	for kind := range foldKinds {
		for i := range genuine {
			f.Add(uint8(kind), edited(i, func(*api.ChunkResult) {}))
		}
		f.Add(uint8(kind), edited(kind, func(res *api.ChunkResult) { *res = api.ChunkResult{} }))
	}
	seed := func(i int, edit func(res *api.ChunkResult)) { f.Add(uint8(i), edited(i, edit)) }
	const census, epsilon, plansweep, plancensus = 0, 1, 2, 3
	bucket := func(edit func(bs []api.CensusBucket) []api.CensusBucket) func(*api.ChunkResult) {
		return func(res *api.ChunkResult) { res.Census.Buckets = edit(res.Census.Buckets) }
	}
	seed(census, func(res *api.ChunkResult) { res.Census.A = 3 })
	seed(census, bucket(func(bs []api.CensusBucket) []api.CensusBucket { return append(bs[:1], bs...) }))
	seed(census, bucket(func(bs []api.CensusBucket) []api.CensusBucket {
		return append(bs, api.CensusBucket{N: 5, Count: [5]uint64{1}, Total: 1})
	}))
	seed(census, bucket(func(bs []api.CensusBucket) []api.CensusBucket {
		b := &bs[0]
		b.Count[1] += 1<<uint(3*b.N) + 1 - b.Total
		b.Total = 1<<uint(3*b.N) + 1
		return bs
	}))
	// Counts that sum to the total only modulo 2^64.
	seed(census, bucket(func(bs []api.CensusBucket) []api.CensusBucket {
		bs[0].Count[0] += math.MaxUint64
		bs[0].Count[1]++
		return bs
	}))
	seed(epsilon, func(res *api.ChunkResult) { res.Epsilon.N = 3 })
	seed(plansweep, func(res *api.ChunkResult) { res.PlanSweep = res.PlanSweep[1:] })
	seed(plansweep, func(res *api.ChunkResult) { res.PlanSweep[1] = res.PlanSweep[0] })
	seed(plansweep, func(res *api.ChunkResult) { res.PlanSweep[0], res.PlanSweep[1] = res.PlanSweep[1], res.PlanSweep[0] })
	seed(plansweep, func(res *api.ChunkResult) { res.PlanSweep[0].Type = "bogus" })
	seed(plansweep, func(res *api.ChunkResult) { res.PlanSweep[0].DilationBound = 7 })
	seed(plancensus, func(res *api.ChunkResult) { res.Plans = res.Plans[1:] })
	seed(plancensus, func(res *api.ChunkResult) { res.Plans[len(res.Plans)-1].Kind = "moebius" })
	seed(plancensus, func(res *api.ChunkResult) { res.Plans[len(res.Plans)-1].Dilation = 255 })

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		var hostile api.ChunkResult
		_ = json.Unmarshal(body, &hostile) // an undecodable body folds what it decoded
		hostile.Version, hostile.Chunk = api.ChunkSchemaVersion, 1
		i := int(kind) % len(foldKinds)
		k, g := foldKinds[i], genuine[i]
		r := g.r
		if err := r.restore(g.after0); err != nil {
			t.Fatalf("%s: restoring the chunk-0 snapshot: %v", k.name, err)
		}
		before := snapshotOf(t, r)
		var buf bytes.Buffer
		if n, err := r.fold(&hostile, &buf); err == nil {
			stream, want, snap := foldOracle(t, k.req, &hostile, before, snapshotOf(t, r))
			if n != want {
				t.Fatalf("%s: accepted a result counting %d shapes; its records count %d", k.name, n, want)
			}
			if !bytes.Equal(buf.Bytes(), stream) {
				t.Fatalf("%s: accepted result rendered\n%s\nnot its records\n%s", k.name, buf.Bytes(), stream)
			}
			if got := snapshotOf(t, r); !bytes.Equal(got, snap) {
				t.Fatalf("%s: accepted result left snapshot %s, its records tally to %s", k.name, got, snap)
			}
			return
		}
		if after := snapshotOf(t, r); !bytes.Equal(after, before) {
			t.Fatalf("%s: failed fold moved the snapshot:\nbefore %s\nafter  %s", k.name, before, after)
		}
		if stream := foldChunk(t, r, g.second); !bytes.Equal(stream, g.stream) {
			t.Fatalf("%s: retried chunk 1 folded to other bytes:\n%s", k.name, stream)
		}
		if got := snapshotOf(t, r); !bytes.Equal(got, g.snap) {
			t.Fatalf("%s: retried chunk 1 left snapshot %s, want %s", k.name, got, g.snap)
		}
	})
}

// TestPlanSweepEmptyChunk: a plansweep chunk with no shapes in range (here
// first axis 8, whose smallest shape has 512 nodes against a 256 cap)
// executes to no records, also through the wire, and folds to zero bytes
// and zero shapes with the aggregate untouched.
func TestPlanSweepEmptyChunk(t *testing.T) {
	req := plansweepReq()
	res, err := ExecuteChunk(context.Background(), api.ChunkRequest{Version: api.ChunkSchemaVersion, Job: req, Chunk: 7}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wire api.ChunkResult
	mustUnmarshal(t, encodeChunk(t, res), &wire)
	for _, res := range []*api.ChunkResult{res, &wire} {
		if len(res.PlanSweep) != 0 {
			t.Fatalf("chunk 7 executed to %d records, want none", len(res.PlanSweep))
		}
		r := newRunner(t, req)
		before := snapshotOf(t, r)
		var buf bytes.Buffer
		if n, err := r.fold(res, &buf); err != nil || n != 0 || buf.Len() != 0 {
			t.Fatalf("fold = %d shapes, %d bytes, %v; want 0, 0, nil", n, buf.Len(), err)
		}
		if after := snapshotOf(t, r); !bytes.Equal(after, before) {
			t.Fatalf("empty chunk moved the snapshot from %s to %s", before, after)
		}
	}
}
