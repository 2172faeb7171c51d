package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fabric/fabrichttp"
	"repro/internal/jobs"
	"repro/pkg/api"
)

const testSecret = "fabric-test-secret"

func chunkBody(t *testing.T, req api.ChunkRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func censusChunkReq(maxN, chunk int) api.ChunkRequest {
	return api.ChunkRequest{
		Version: api.ChunkSchemaVersion,
		Job:     api.JobSubmitRequest{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: maxN}},
		Chunk:   chunk,
	}
}

// TestFabricEndpointsWithoutSecret: a server not started with a fabric
// secret is not a fabric member — the guarded endpoints answer 503, and
// /v1/peers without a pool answers 503 too.
func TestFabricEndpointsWithoutSecret(t *testing.T) {
	h := New(Config{}).Handler()
	body := chunkBody(t, censusChunkReq(3, 0))
	rec := doReq(t, h, http.MethodPost, "/v1/internal/chunks", body,
		map[string]string{api.FabricSecretHeader: "anything"})
	decodeEnvelope(t, rec, http.StatusServiceUnavailable, api.CodeUnavailable)
	rec = doReq(t, h, http.MethodPost, "/v1/peers", `{"addr":"http://x"}`, nil)
	decodeEnvelope(t, rec, http.StatusServiceUnavailable, api.CodeUnavailable)
	rec = doReq(t, h, http.MethodGet, "/v1/peers", "", nil)
	decodeEnvelope(t, rec, http.StatusServiceUnavailable, api.CodeUnavailable)
}

// TestFabricAuthRejected: with a secret configured, a missing or wrong
// X-Fabric-Secret is 401 with the unauthorized code, and the chunk is never
// executed.
func TestFabricAuthRejected(t *testing.T) {
	h := New(Config{FabricSecret: testSecret}).Handler()
	body := chunkBody(t, censusChunkReq(3, 0))
	for name, hdr := range map[string]map[string]string{
		"missing": nil,
		"wrong":   {api.FabricSecretHeader: "nope"},
	} {
		rec := doReq(t, h, http.MethodPost, "/v1/internal/chunks", body, hdr)
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s secret: status %d, want 401", name, rec.Code)
			continue
		}
		decodeEnvelope(t, rec, http.StatusUnauthorized, api.CodeUnauthorized)
	}
}

// TestFabricChunkExecute: worker mode over HTTP — a valid chunk request
// returns the chunk's portable result; an invalid spec is a 400.
func TestFabricChunkExecute(t *testing.T) {
	h := New(Config{FabricSecret: testSecret}).Handler()
	auth := map[string]string{api.FabricSecretHeader: testSecret}

	rec := doReq(t, h, http.MethodPost, "/v1/internal/chunks", chunkBody(t, censusChunkReq(3, 1)), auth)
	if rec.Code != http.StatusOK {
		t.Fatalf("chunk execute: %d %s", rec.Code, rec.Body.String())
	}
	var res api.ChunkResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Version != api.ChunkSchemaVersion || res.Chunk != 1 || res.Census == nil || res.Census.A != 2 || len(res.Census.Buckets) == 0 {
		t.Fatalf("chunk result: version %d chunk %d census %+v", res.Version, res.Chunk, res.Census)
	}

	bad := censusChunkReq(3, 0)
	bad.Job.Kind = "nonsense"
	rec = doReq(t, h, http.MethodPost, "/v1/internal/chunks", chunkBody(t, bad), auth)
	decodeEnvelope(t, rec, http.StatusBadRequest, api.CodeBadRequest)

	oob := censusChunkReq(3, 99)
	rec = doReq(t, h, http.MethodPost, "/v1/internal/chunks", chunkBody(t, oob), auth)
	decodeEnvelope(t, rec, http.StatusBadRequest, api.CodeBadRequest)
}

// TestFabricPeersJoinListMetrics: join registers a peer (secret-guarded),
// the public listing shows it, and /metrics exposes the fabric gauges.
func TestFabricPeersJoinListMetrics(t *testing.T) {
	worker := httptest.NewServer(New(Config{FabricSecret: testSecret}).Handler())
	t.Cleanup(worker.Close)

	s := New(Config{FabricSecret: testSecret})
	pool := fabric.NewPool(fabric.Config{Dial: fabrichttp.Dialer(testSecret), HealthEvery: -1})
	t.Cleanup(pool.Close)
	s.AttachFabric(pool)
	h := s.Handler()

	rec := doReq(t, h, http.MethodPost, "/v1/peers", `{"addr":"`+worker.URL+`"}`, nil)
	decodeEnvelope(t, rec, http.StatusUnauthorized, api.CodeUnauthorized)

	auth := map[string]string{api.FabricSecretHeader: testSecret}
	rec = doReq(t, h, http.MethodPost, "/v1/peers", `{"addr":"`+worker.URL+`"}`, auth)
	if rec.Code != http.StatusOK {
		t.Fatalf("join: %d %s", rec.Code, rec.Body.String())
	}
	rec = doReq(t, h, http.MethodGet, "/v1/peers", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("peers list: %d %s", rec.Code, rec.Body.String())
	}
	var pr api.PeersResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Peers) != 1 || pr.Peers[0].Addr != worker.URL || pr.Peers[0].State != api.PeerUp {
		t.Fatalf("peers = %+v, want the joined worker up", pr.Peers)
	}

	rec = doReq(t, h, http.MethodGet, "/metrics", "", nil)
	text := rec.Body.String()
	for _, want := range []string{
		`embedserver_fabric_peers{state="up"} 1`,
		`embedserver_fabric_peers{state="down"} 0`,
		"embedserver_fabric_chunks_dispatched_total",
		"embedserver_fabric_chunks_requeued_total",
		"embedserver_fabric_chunks_folded_total",
		`embedserver_fabric_peer_inflight{peer="` + worker.URL + `"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rec = doReq(t, h, http.MethodPost, "/v1/peers", `{"addr":""}`, auth)
	decodeEnvelope(t, rec, http.StatusBadRequest, api.CodeBadRequest)
}

// TestFabricDistributedOverHTTP is the full wire-level path: a coordinator
// with two real HTTP workers runs a distributed census; the streamed result
// must be byte-identical to the same job run single-node.
func TestFabricDistributedOverHTTP(t *testing.T) {
	const jobBody = `{"kind":"census","census":{"max_n":4}}`

	// Single-node reference.
	_, hLocal := newJobServer(t, jobs.Config{})
	ref := submitJob(t, hLocal, jobBody)
	if st := waitJobDone(t, hLocal, ref.ID); st.State != api.JobDone {
		t.Fatalf("reference job ended %s", st.State)
	}
	recRef := doReq(t, hLocal, http.MethodGet, "/v1/jobs/"+ref.ID+"/results", "", nil)
	if recRef.Code != http.StatusOK {
		t.Fatalf("reference results: %d", recRef.Code)
	}

	// Two workers, plain servers with the shared secret.
	var workers []string
	for i := 0; i < 2; i++ {
		w := httptest.NewServer(New(Config{FabricSecret: testSecret}).Handler())
		t.Cleanup(w.Close)
		workers = append(workers, w.URL)
	}

	// Coordinator: pool over the real HTTP transport, no local fallback.
	pool := fabric.NewPool(fabric.Config{Dial: fabrichttp.Dialer(testSecret), HealthEvery: -1})
	t.Cleanup(pool.Close)
	for _, w := range workers {
		if err := pool.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{FabricSecret: testSecret})
	m, err := jobs.Open(jobs.Config{
		DataDir: t.TempDir(),
		Planner: s.Planner(),
		Fabric:  pool,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	s.AttachJobs(m)
	s.AttachFabric(pool)
	h := s.Handler()

	st := submitJob(t, h, `{"kind":"census","census":{"max_n":4},"distributed":true}`)
	if fin := waitJobDone(t, h, st.ID); fin.State != api.JobDone {
		t.Fatalf("distributed job ended %s (%s)", fin.State, fin.Error)
	}
	rec := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("results: %d", rec.Code)
	}
	if rec.Body.String() != recRef.Body.String() {
		t.Fatalf("distributed-over-HTTP stream differs from single-node (%d vs %d bytes)",
			rec.Body.Len(), recRef.Body.Len())
	}
	// Both workers actually executed chunks.
	for _, ps := range pool.Stats().Peers {
		if ps.Dispatched == 0 {
			t.Errorf("peer %s executed no chunks", ps.Addr)
		}
	}
}

// olderSchema stands in for a fabric node of the chunk schema before
// api.ChunkSchemaVersion, which stamped api.Version (2): it relays chunks
// to a real peer, stamping either its requests (a coordinator of that
// schema) or the peer's results (a peer of it) with the older number.
type olderSchema struct {
	fabric.Transport
	peer bool
}

func (o olderSchema) Execute(ctx context.Context, req api.ChunkRequest) (*api.ChunkResult, error) {
	if !o.peer {
		req.Version = api.Version
	}
	res, err := o.Transport.Execute(ctx, req)
	if err == nil && o.peer {
		res.Version = api.Version
	}
	return res, err
}

// TestFabricRefusesOtherChunkSchema: a coordinator and a peer of different
// chunk schemas refuse each other in both directions.  The peer answers a
// request of another schema with a 400, and the coordinator refuses a
// result of another schema; either way the distributed job fails, naming
// both schema numbers, instead of folding records it cannot read.
func TestFabricRefusesOtherChunkSchema(t *testing.T) {
	worker := httptest.NewServer(New(Config{FabricSecret: testSecret}).Handler())
	t.Cleanup(worker.Close)
	for name, peer := range map[string]bool{"older_coordinator": false, "older_peer": true} {
		t.Run(name, func(t *testing.T) {
			pool := fabric.NewPool(fabric.Config{
				Dial: func(addr string) fabric.Transport {
					return olderSchema{fabrichttp.Dialer(testSecret)(addr), peer}
				},
				HealthEvery: -1,
			})
			t.Cleanup(pool.Close)
			if err := pool.Add(worker.URL); err != nil {
				t.Fatal(err)
			}
			_, h := newJobServer(t, jobs.Config{Fabric: pool})
			st := submitJob(t, h, `{"kind":"census","census":{"max_n":3},"distributed":true}`)
			fin := waitJobDone(t, h, st.ID)
			older, current := fmt.Sprintf("v%d", api.Version), fmt.Sprintf("v%d", api.ChunkSchemaVersion)
			if fin.State != api.JobFailed || !strings.Contains(fin.Error, older) || !strings.Contains(fin.Error, current) {
				t.Fatalf("job ended %s (error %q), want failed naming %s and %s", fin.State, fin.Error, older, current)
			}
		})
	}
}
