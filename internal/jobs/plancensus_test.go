package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

func plancensusReq(dims, maxAxis int, family string) api.JobSubmitRequest {
	return api.JobSubmitRequest{
		Kind:       api.JobPlanCensus,
		PlanCensus: &api.PlanCensusParams{Dims: dims, MaxAxis: maxAxis, Family: family},
	}
}

// artifactBytes reads the artifact file of a finished plancensus job.
func artifactBytes(t *testing.T, m *Manager, id string) []byte {
	t.Helper()
	path, err := m.ArtifactPath(id)
	if err != nil {
		t.Fatalf("ArtifactPath: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}
	return b
}

// TestPlanCensusJobBuildsArtifact runs a plancensus job end to end and
// checks the produced artifact against a fresh planner: loadable, complete,
// fingerprint-matched, and record-for-record identical to direct planning.
func TestPlanCensusJobBuildsArtifact(t *testing.T) {
	const dims, maxAxis = 3, 8
	for _, famName := range []string{"", "torus"} {
		name := famName
		if name == "" {
			name = "mesh"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(testConfig(dir))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer closeManager(t, m)
			st, err := m.Submit(plancensusReq(dims, maxAxis, famName))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			st = waitTerminal(t, m, st.ID)
			if st.State != api.JobDone {
				t.Fatalf("job ended %s (error %q), want done", st.State, st.Error)
			}

			path, err := m.ArtifactPath(st.ID)
			if err != nil {
				t.Fatalf("ArtifactPath: %v", err)
			}
			a, err := artifact.Open(path)
			if err != nil {
				t.Fatalf("artifact.Open: %v", err)
			}
			defer a.Close()

			desc, err := guest.ByName(famName)
			if err != nil {
				t.Fatalf("guest.ByName(%q): %v", famName, err)
			}
			fam := desc.Family
			pl := core.NewPlanner(core.DefaultOptions)
			hdr := a.Header()
			if hdr.Family != fam.String() || hdr.Dims != dims || hdr.MaxAxis != maxAxis {
				t.Fatalf("header = %+v, want family=%s dims=%d maxAxis=%d", hdr, fam, dims, maxAxis)
			}
			if hdr.Fingerprint != artifact.FingerprintHash(pl.Fingerprint()) {
				t.Fatalf("artifact fingerprint %x does not match planner %q", hdr.Fingerprint, pl.Fingerprint())
			}
			checked := uint64(0)
			for c := 1; c <= maxAxis; c++ {
				artifact.EachShapeWithMax(dims, c, func(s mesh.Shape) {
					p := pl.PlanGuest(fam, s)
					rec, ok, err := a.Lookup(s)
					if err != nil || !ok {
						t.Fatalf("Lookup(%v): ok=%v err=%v", s, ok, err)
					}
					dil := p.Dilation
					if dil == core.DilationUnknown {
						dil = -1
					}
					if rec.Plan != p.String() || rec.Kind != p.Kind.String() || rec.Method != p.Method ||
						rec.CubeDim != p.CubeDim || rec.Dilation != dil || rec.Minimal != p.Minimal() {
						t.Fatalf("Lookup(%v) = %+v, planner says %v", s, rec, p)
					}
					checked++
				})
			}
			if checked != hdr.RecordCount {
				t.Fatalf("checked %d records, header says %d", checked, hdr.RecordCount)
			}

			// The NDJSON stream must carry one chunk record per largest-axis
			// value, tiling the rank space, and a summary whose ArtifactInfo
			// matches the loaded header.
			sc := bufio.NewScanner(bytes.NewReader(resultsBytes(t, dir, st.ID)))
			var chunkRecs []api.PlanCensusChunkRecord
			var sum *api.SummaryRecord
			for sc.Scan() {
				var probe struct {
					Type string `json:"type"`
				}
				if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
					t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
				}
				switch probe.Type {
				case api.RecordPlanCensusChunk:
					var r api.PlanCensusChunkRecord
					if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
						t.Fatal(err)
					}
					chunkRecs = append(chunkRecs, r)
				case api.RecordSummary:
					sum = new(api.SummaryRecord)
					if err := json.Unmarshal(sc.Bytes(), sum); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(chunkRecs) != maxAxis {
				t.Fatalf("%d chunk records, want %d", len(chunkRecs), maxAxis)
			}
			var next uint64
			for i, r := range chunkRecs {
				lo, hi := artifact.ChunkRange(dims, i+1)
				if r.MaxAxisValue != i+1 || r.RankLo != lo || r.RankHi != hi || r.RankLo != next {
					t.Fatalf("chunk record %d = %+v, want ranks [%d,%d)", i, r, lo, hi)
				}
				next = r.RankHi
			}
			if sum == nil || sum.Artifact == nil {
				t.Fatalf("no summary/artifact info in stream (summary %+v)", sum)
			}
			ai := sum.Artifact
			if ai.Records != hdr.RecordCount || ai.StringBytes != hdr.StringBytes ||
				ai.Fingerprint != pl.Fingerprint() {
				t.Fatalf("summary artifact info %+v does not match header %+v", ai, hdr)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if ai.Bytes != uint64(fi.Size()) {
				t.Fatalf("summary says %d bytes, file is %d", ai.Bytes, fi.Size())
			}
			if sum.Shapes != hdr.RecordCount {
				t.Fatalf("summary shapes %d, want %d", sum.Shapes, hdr.RecordCount)
			}
		})
	}
}

// TestPlanCensusKillAndResume abandons a plancensus job mid-run and resumes
// it on a fresh manager: both the NDJSON stream and the artifact file must
// come out byte-identical to an uninterrupted run, and the resumed artifact
// must still pass Open's checksum gate.
func TestPlanCensusKillAndResume(t *testing.T) {
	req := plancensusReq(3, 8, "")

	// Uninterrupted reference run.
	refDir := t.TempDir()
	mRef, err := Open(testConfig(refDir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	stRef, err := mRef.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	stRef = waitTerminal(t, mRef, stRef.ID)
	if stRef.State != api.JobDone {
		t.Fatalf("reference job ended %s (error %q)", stRef.State, stRef.Error)
	}
	wantStream := resultsBytes(t, refDir, stRef.ID)
	wantArtifact := artifactBytes(t, mRef, stRef.ID)
	closeManager(t, mRef)

	// Interrupted run: abandon after chunk 4 with checkpoints every 2
	// chunks, so resume has a committed prefix plus real work to redo.
	dir := t.TempDir()
	abandoned := make(chan struct{})
	cfg := testConfig(dir)
	cfg.CheckpointEvery = 2
	cfg.afterChunk = func(id string, chunk int) error {
		if chunk == 4 {
			close(abandoned)
			return errAbandoned
		}
		return nil
	}
	m1, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := m1.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-abandoned

	// Before the job finishes the artifact must be withheld.
	if _, err := m1.ArtifactPath(st.ID); !errors.Is(err, ErrNotReady) {
		t.Fatalf("ArtifactPath mid-run = %v, want ErrNotReady", err)
	}
	closeManager(t, m1)

	// The torn artifact on disk must be rejected by the loader.
	if _, err := artifact.Open(filepath.Join(dir, st.ID, ArtifactFile)); err == nil {
		t.Fatal("artifact.Open accepted a torn, unfinalized artifact")
	}

	cfg2 := testConfig(dir)
	cfg2.CheckpointEvery = 2
	m2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer closeManager(t, m2)
	fin := waitTerminal(t, m2, st.ID)
	if fin.State != api.JobDone {
		t.Fatalf("resumed job ended %s (error %q)", fin.State, fin.Error)
	}
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, wantStream) {
		t.Fatalf("resumed stream differs from uninterrupted run (%d vs %d bytes)", len(got), len(wantStream))
	}
	if got := artifactBytes(t, m2, st.ID); !bytes.Equal(got, wantArtifact) {
		t.Fatalf("resumed artifact differs from uninterrupted build (%d vs %d bytes)", len(got), len(wantArtifact))
	}
	if a, err := artifact.Open(filepath.Join(dir, st.ID, ArtifactFile)); err != nil {
		t.Fatalf("resumed artifact fails Open: %v", err)
	} else {
		a.Close()
	}
}

// TestPlanCensusResumeRejectsEditedAggregate deletes "cursor" from a
// plancensus checkpoint's aggregate.  Read as zero, it reopened the builder
// at the wrong string offset: the job still finished and its artifact still
// opened, but later records served other shapes' plan strings.  The resume
// must refuse the aggregate, warn, restart from chunk 0 and end with the
// stream and artifact of an uninterrupted run.
func TestPlanCensusResumeRejectsEditedAggregate(t *testing.T) {
	req := plancensusReq(3, 8, "")
	refDir := t.TempDir()
	mRef, err := Open(testConfig(refDir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	stRef, err := mRef.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if stRef = waitTerminal(t, mRef, stRef.ID); stRef.State != api.JobDone {
		t.Fatalf("reference job ended %s (error %q)", stRef.State, stRef.Error)
	}
	wantStream, wantArtifact := resultsBytes(t, refDir, stRef.ID), artifactBytes(t, mRef, stRef.ID)
	closeManager(t, mRef)

	dir := t.TempDir()
	abandoned := make(chan struct{})
	cfg := testConfig(dir)
	cfg.CheckpointEvery = 2
	cfg.afterChunk = func(id string, chunk int) error {
		if chunk == 4 {
			close(abandoned)
			return errAbandoned
		}
		return nil
	}
	m1, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := m1.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-abandoned
	closeManager(t, m1)

	// Cut the key out of the aggregate's own bytes, keeping every other key
	// in its place.
	jobDir := filepath.Join(dir, st.ID)
	ck, err := readCheckpoint(jobDir)
	if err != nil || ck == nil || ck.NextChunk == 0 {
		t.Fatalf("no checkpoint past chunk 0 to edit: %+v, %v", ck, err)
	}
	var agg bytes.Buffer
	if err := json.Compact(&agg, ck.Agg); err != nil {
		t.Fatal(err)
	}
	cursor := regexp.MustCompile(`"cursor":[1-9][0-9]*,`)
	if !cursor.Match(agg.Bytes()) {
		t.Fatalf("checkpoint aggregate %s has no nonzero cursor", agg.Bytes())
	}
	ck.Agg = cursor.ReplaceAll(agg.Bytes(), nil)
	if err := writeCheckpoint(jobDir, *ck); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	cfg2 := testConfig(dir)
	cfg2.CheckpointEvery = 2
	cfg2.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	m2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	fin := waitTerminal(t, m2, st.ID)
	closeManager(t, m2) // the runner logs until it stops
	if fin.State != api.JobDone {
		t.Fatalf("resumed job ended %s (error %q)", fin.State, fin.Error)
	}
	if !strings.Contains(logs.String(), "checkpoint aggregate rejected; restarting job from scratch") {
		t.Errorf("no restart warning logged:\n%s", logs.String())
	}
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, wantStream) {
		t.Fatalf("resumed stream differs from uninterrupted run (%d vs %d bytes)", len(got), len(wantStream))
	}
	if got := artifactBytes(t, m2, st.ID); !bytes.Equal(got, wantArtifact) {
		t.Fatalf("resumed artifact differs from uninterrupted build (%d vs %d bytes)", len(got), len(wantArtifact))
	}
}

// TestPlanCensusWorkersByteIdentical plans plancensus chunks on the sweep
// pool at several widths: for mesh and torus, the result stream and the
// artifact at workers 2 and 4, and over a loopback fabric peer, are the
// bytes of the workers-1 run.
func TestPlanCensusWorkersByteIdentical(t *testing.T) {
	run := func(t *testing.T, req api.JobSubmitRequest) (stream, art []byte) {
		t.Helper()
		dir := t.TempDir()
		m, err := Open(testConfig(dir))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer closeManager(t, m)
		st, err := m.Submit(req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if st = waitTerminal(t, m, st.ID); st.State != api.JobDone {
			t.Fatalf("workers=%d job ended %s (error %q), want done", req.Workers, st.State, st.Error)
		}
		return resultsBytes(t, dir, st.ID), artifactBytes(t, m, st.ID)
	}
	for _, fam := range []string{"mesh", "torus"} {
		t.Run(fam, func(t *testing.T) {
			req := plancensusReq(4, 8, fam)
			req.Workers = 1
			wantStream, wantArt := run(t, req)
			for _, workers := range []int{2, 4} {
				req.Workers = workers
				if stream, art := run(t, req); !bytes.Equal(stream, wantStream) || !bytes.Equal(art, wantArt) {
					t.Fatalf("workers=%d: stream %d bytes, artifact %d bytes; workers=1: %d and %d",
						workers, len(stream), len(art), len(wantStream), len(wantArt))
				}
			}
			req.Workers = 2
			st, stream, dir := runDistributed(t, req, 1)
			art, err := os.ReadFile(filepath.Join(dir, st.ID, ArtifactFile))
			if err != nil {
				t.Fatalf("reading artifact: %v", err)
			}
			if !bytes.Equal(stream, wantStream) || !bytes.Equal(art, wantArt) {
				t.Fatalf("loopback peer: stream %d bytes, artifact %d bytes; workers=1: %d and %d",
					len(stream), len(art), len(wantStream), len(wantArt))
			}
		})
	}
}

// TestArtifactPathErrors pins the ArtifactPath error contract.
func TestArtifactPathErrors(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	if _, err := m.ArtifactPath("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}
	st, err := m.Submit(censusReq(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, m, st.ID)
	if _, err := m.ArtifactPath(st.ID); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("wrong kind: %v, want ErrBadRequest", err)
	}
}
