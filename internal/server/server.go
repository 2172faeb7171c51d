// Package server exposes the planner, the metrics engine and the network
// simulator as a production HTTP service (stdlib net/http only):
//
//	POST   /v1/plan              plan a shape without building it
//	POST   /v1/embed             plan + build + measure (optionally the serialized map)
//	POST   /v1/compare           per-technique metrics, optionally a simnet stencil round
//	POST   /v1/jobs              submit an asynchronous batch sweep (202)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status and progress
//	GET    /v1/jobs/{id}/results stream the job's NDJSON results (offset-resumable)
//	GET    /v1/jobs/{id}/events  live job stream over SSE (rows + progress; Last-Event-ID resume)
//	GET    /v1/jobs/{id}/artifact download a finished plancensus job's artifact
//	GET    /v1/jobs/{id}/trace   download the job's span tree (stitched across the fabric)
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text exposition
//
// Wire types live in pkg/api — the server serves exactly those shapes (the
// declarations below are aliases), and every non-2xx response is the
// api.ErrorResponse envelope.
//
// The request path is cache → coalescer → planner → metrics engine: a
// bounded LRU holds fully-measured results keyed by canonical (axis-sorted)
// shape + variant, a singleflight group collapses a thundering herd on the
// same key into one computation, and only the flight leader runs the
// planner.  Requests carry a per-request timeout context; a concurrency
// semaphore sheds excess load with 429 + Retry-After.  Computations are
// detached from request contexts, so a timed-out leader still populates the
// cache for its followers and for the retry.
//
// /v1/plan misses additionally walk the tier hierarchy of tiers.go — the
// O(1) closed-form classifier and (when AttachArtifact has loaded one) the
// mmap'd plan-census artifact — before paying for the planner, and
// GET /v1/jobs/{id}/artifact downloads a finished plancensus job's artifact
// file.
//
// Cache entries are computed on the canonical shape.  Every metric the API
// serves is invariant under guest axis relabeling (the multiset of guest
// edges' endpoint images is unchanged), so a hit for a permuted request only
// rewrites the guest string and — when the map is requested — relabels the
// node map; it never re-measures.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/fabric"
	"repro/internal/guest"
	"repro/internal/jobs"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/reshape"
	"repro/internal/simnet"
	"repro/pkg/api"
)

// APIVersion is the version field stamped on every v1 response body.
const APIVersion = api.Version

// Aliases for the versioned wire types: handlers and existing callers keep
// their names, pkg/api keeps the single source of truth.
type (
	PlanRequest     = api.PlanRequest
	PlanResponse    = api.PlanResponse
	EmbedRequest    = api.EmbedRequest
	EmbedResponse   = api.EmbedResponse
	CompareRequest  = api.CompareRequest
	CompareRow      = api.CompareRow
	CompareResponse = api.CompareResponse
	DebugInfo       = api.DebugInfo
)

// maxCompareNodes bounds the guests /v1/compare accepts: a compare builds
// several embeddings and optionally simulates a stencil exchange, so it is
// far more expensive per node than /v1/embed.
const maxCompareNodes = 1 << 20

// Config tunes a Server.  The zero value is usable: defaults are filled in
// by New.
type Config struct {
	// Workers bounds the metrics-engine parallelism per measurement
	// (values below one mean GOMAXPROCS, as in internal/sweep).
	Workers int
	// CacheSize bounds the LRU of fully-measured results (default 1024;
	// negative disables caching).
	CacheSize int
	// MaxInflight bounds concurrently served API requests; excess load is
	// shed with 429 (default 256).
	MaxInflight int
	// Timeout is the per-request deadline (default 30s).
	Timeout time.Duration
	// MaxNodes is the largest guest the API will embed; bigger shapes get
	// 422 (default 1<<24).
	MaxNodes int
	// Opts are the planner options (zero value: core.DefaultOptions).
	Opts core.Options
	// Logger, when non-nil, receives one structured access-log record per
	// API request (request ID, endpoint, shape, source, status, duration).
	// nil disables logging entirely — the hot path then allocates nothing
	// for it, not even the request ID.
	Logger *slog.Logger
	// FabricSecret, when non-empty, enables the fabric worker endpoints
	// (POST /v1/internal/chunks, POST /v1/peers) guarded by the
	// X-Fabric-Secret header.  Empty means this server is not a fabric
	// member: those endpoints answer 503.
	FabricSecret string
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 1 << 24
	}
	if c.Opts.SolverBudget == 0 && c.Opts.SolverSeed == 0 && c.Opts.Cost == nil {
		c.Opts = core.DefaultOptions
	}
	return c
}

// Server is the embedding service.  It is immutable after New and safe for
// concurrent use; plug Handler into an http.Server (whose Shutdown drains
// in-flight requests — handlers never outlive their ResponseWriter).
type Server struct {
	cfg      Config
	planner  *core.Planner
	cache    *lruCache
	flights  *flightGroup
	sem      chan struct{}
	m        *metrics
	jobs     *jobs.Manager      // nil until AttachJobs; jobs endpoints 503 without it
	artifact *artifact.Artifact // nil until AttachArtifact; L1 plan tier (see tiers.go)
	pool     *fabric.Pool       // nil until AttachFabric; peer endpoints 503 without it
	sse      *sseHub            // live job-event fanout (see sse.go)
}

// New returns a Server with cfg's zero fields defaulted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		planner: core.NewPlanner(cfg.Opts),
		cache:   newLRUCache(cfg.CacheSize),
		flights: newFlightGroup(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		m:       newMetrics(),
	}
	s.sse = newSSEHub(s)
	return s
}

// Planner exposes the server's planner so the job manager can share it (a
// plansweep job then warms the same plan cache the serving path reads).
func (s *Server) Planner() *core.Planner { return s.planner }

// AttachJobs wires a job manager into the /v1/jobs endpoints.  Call it
// before Handler is serving; without it those endpoints answer 503.
func (s *Server) AttachJobs(m *jobs.Manager) { s.jobs = m }

// AttachFabric wires a fabric pool into the /v1/peers endpoints and the
// /metrics fabric gauges.  Call it before Handler is serving.
func (s *Server) AttachFabric(p *fabric.Pool) { s.pool = p }

// CacheStats returns the result cache's counters (for tests and /metrics).
func (s *Server) CacheStats() ResultCacheStats { return s.cache.stats() }

// Coalesced returns how many requests joined an in-flight computation.
func (s *Server) Coalesced() uint64 { return s.m.coalesced.Load() }

// Handler returns the service's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("POST /v1/plan", s.instrument("plan", s.handlePlan))
	mux.Handle("POST /v1/embed", s.instrument("embed", s.handleEmbed))
	mux.Handle("POST /v1/compare", s.instrument("compare", s.handleCompare))
	mux.Handle("POST /v1/jobs", s.instrument("jobs-submit", s.handleJobSubmit))
	mux.Handle("GET /v1/jobs", s.instrument("jobs-list", s.handleJobList))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs-status", s.handleJobStatus))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("jobs-cancel", s.handleJobCancel))
	// The results stream long-polls until the job finishes, so it must not
	// occupy an inflight slot or run under the request timeout; the artifact
	// download can be hundreds of MB, so it too stays outside the timeout.
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleJobArtifact)
	// The SSE stream follows the job for its whole life (same reasoning);
	// the trace download is one small file but pairs with the artifact.
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	// Fabric: chunk execution is long-running compute and lives outside
	// instrument for the same reason as the results stream; the peer
	// endpoints are tiny but share the secret guard, so they stay together.
	mux.HandleFunc("POST /v1/internal/chunks", s.handleChunkExecute)
	mux.HandleFunc("GET /v1/peers", s.handlePeersList)
	mux.HandleFunc("POST /v1/peers", s.handlePeersJoin)
	return mux
}

// statusWriter records the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps an API handler with load shedding, the in-flight gauge,
// the per-request timeout context, and latency/request accounting.  A debug
// request (?debug=trace / X-Debug-Trace: 1) additionally runs under a
// per-request obs root span whose phases the handlers fill in; when a logger
// is configured every request emits one structured access-log record.  With
// neither in play the wrapper is byte-for-byte the old hot path.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		logger := s.cfg.Logger
		debug := debugRequested(r)
		var meta *reqMeta
		start := time.Now()
		if debug || logger != nil {
			meta = &reqMeta{id: nextRequestID(), debug: debug}
			w.Header().Set("X-Request-Id", meta.id)
		}
		if debug {
			rctx, root := obs.StartRoot(r.Context(), "request")
			root.SetAttr("endpoint", endpoint)
			root.SetAttr("request_id", meta.id)
			meta.root = root
			r = r.WithContext(rctx)
		}
		// The semaphore acquire is non-blocking (excess load sheds rather
		// than queues), so queue-wait measures the shed decision itself; it
		// is kept as a phase so the span schema is stable if that changes.
		var qspan *obs.Span
		if meta != nil && meta.root != nil {
			_, qspan = obs.Start(r.Context(), "queue-wait")
		}
		select {
		case s.sem <- struct{}{}:
			qspan.End()
		default:
			qspan.End()
			if meta != nil {
				meta.root.End()
			}
			s.m.shed.Add(1)
			writeAPIError(w, meta, &apiError{
				status: http.StatusTooManyRequests, code: api.CodeOverCapacity,
				msg: "server at capacity", retryAfter: time.Second,
			})
			s.m.observe(endpoint, http.StatusTooManyRequests, 0)
			if logger != nil {
				logger.LogAttrs(r.Context(), slog.LevelWarn, "request shed",
					slog.String("request_id", meta.id),
					slog.String("endpoint", endpoint),
					slog.String("method", r.Method),
					slog.Bool("shed", true),
					slog.Int("status", http.StatusTooManyRequests),
					slog.Duration("duration", time.Since(start)))
			}
			return
		}
		s.m.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		if meta != nil {
			ctx = context.WithValue(ctx, reqMetaKey, meta)
		}
		h(sw, r.WithContext(ctx))
		cancel()
		s.m.inflight.Add(-1)
		<-s.sem
		dur := time.Since(start)
		if meta != nil && meta.root != nil {
			meta.root.SetAttr("status", sw.code)
			meta.root.End()
		}
		if logger != nil {
			lvl := slog.LevelInfo
			switch {
			case sw.code >= 500:
				lvl = slog.LevelError
			case sw.code >= 400:
				lvl = slog.LevelWarn
			}
			logger.LogAttrs(r.Context(), lvl, "request",
				slog.String("request_id", meta.id),
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.String("shape", meta.shape),
				slog.String("mode", meta.mode),
				slog.String("source", meta.source),
				slog.Bool("debug", debug),
				slog.Int("status", sw.code),
				slog.Duration("duration", dur))
		}
		s.m.observe(endpoint, sw.code, dur.Seconds())
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// parseShapeField validates a request shape: parse errors are 400 and
// oversized guests are 422.  The node count is computed overflow-checked —
// mesh.Shape.Nodes would wrap silently on absurd axes.
func (s *Server) parseShapeField(shape string, maxNodes int) (mesh.Shape, error) {
	sh, err := mesh.ParseShape(shape)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	if err := sh.Validate(); err != nil {
		return nil, errBadRequest("%v", err)
	}
	nodes := 1
	for _, l := range sh {
		if nodes > maxNodes/l {
			return nil, errTooLarge("shape %s exceeds the %d-node limit", sh, maxNodes)
		}
		nodes *= l
	}
	return sh, nil
}

// parseFamilyField resolves a request's guest family ("" means mesh); an
// unregistered name is a 400.
func parseFamilyField(name string) (guest.Family, error) {
	d, err := guest.ByName(name)
	if err != nil {
		return guest.Mesh, errBadRequest("%v", err)
	}
	return d.Family, nil
}

// famEcho is the response echo of a guest family.  Since schema v2 it is
// always the canonical name — "mesh" included — so clients never need the
// empty-means-mesh convention to read a response.
func famEcho(f guest.Family) string {
	return f.String()
}

// famKey is the family's cache-key segment: empty for mesh (pre-family keys
// unchanged), "<family>|" otherwise — a 4x4x4 torus request must never hit
// the 4x4x4 mesh entry.
func famKey(f guest.Family) string {
	if f == guest.Mesh {
		return ""
	}
	return f.String() + "|"
}

// cachedResult is one fully-measured LRU entry, always in canonical axis
// order.  Entries are immutable after insertion.
type cachedResult struct {
	plan     string
	method   int
	dilBound int // plan's a-priori dilation bound; -1 when unknown/none
	cubeDim  int
	measured bool
	metrics  embed.Metrics
	emb      *embed.Embedding // nil for plan-only entries
	compare  *CompareResponse // only for compare entries
}

// lookup is the cache → coalescer → compute path shared by the endpoints.
// source reports how the request was served: "computed", "cache" or
// "coalesced".  Under a debug trace the phases appear as cache-lookup,
// coalesce-wait and compute child spans; compute runs with the request's
// cancellation detached (the flight must outlive a timed-out leader) but its
// span values intact, so a leader's trace still contains the plan / build /
// measure subtree.
func (s *Server) lookup(ctx context.Context, key string, compute func(ctx context.Context) (*cachedResult, error)) (res *cachedResult, source string, err error) {
	_, lspan := obs.Start(ctx, "cache-lookup")
	v, hit := s.cache.get(key)
	if lspan != nil { // guarded: boxing the attrs must not cost the hot path
		lspan.SetAttr("key", key)
		lspan.SetAttr("hit", hit)
		lspan.End()
	}
	if hit {
		return v, "cache", nil
	}
	computed := false // safe: the leader reads it only after the flight's done channel closes
	wctx, wspan := obs.Start(ctx, "coalesce-wait")
	v, led, err := s.flights.do(ctx, key, func() (*cachedResult, error) {
		if v, ok := s.cache.get(key); ok {
			// Lost the race against a flight that finished between our
			// first check and entering the group.
			return v, nil
		}
		s.cache.countMiss()
		computed = true
		cctx, cspan := obs.Start(context.WithoutCancel(wctx), "compute")
		cspan.SetAttr("key", key)
		v, err := compute(cctx)
		cspan.End()
		if err != nil {
			return nil, err
		}
		s.cache.put(key, v)
		return v, nil
	})
	wspan.End()
	if err != nil {
		return nil, "", err
	}
	switch {
	case !led:
		s.m.coalesced.Add(1)
		return v, "coalesced", nil
	case computed:
		return v, "computed", nil
	default:
		return v, "cache", nil
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	fam, err := parseFamilyField(req.Family)
	if err != nil {
		respondErr(w, r, err)
		return
	}
	sh, err := s.parseShapeField(req.Shape, s.cfg.MaxNodes)
	if err != nil {
		respondErr(w, r, err)
		return
	}
	meta := metaFrom(r.Context())
	meta.setShape(sh, "")
	// Plans are served in the caller's axis order — the planner's own
	// canonical-shape cache already de-duplicates the search across
	// permutations, so the LRU key stays exact here.
	key := "plan|" + famKey(fam) + sh.String()
	// tier records which L0-miss tier produced the result; the flight leader
	// reads it only after lookup returns (same safety argument as lookup's
	// own computed flag).
	var tier string
	res, source, err := s.lookup(r.Context(), key, func(ctx context.Context) (*cachedResult, error) {
		res, t, err := s.resolvePlan(ctx, fam, sh)
		tier = t
		return res, err
	})
	if err != nil {
		respondErr(w, r, err)
		return
	}
	switch source {
	case "computed":
		source = tier // closed_form, artifact or computed
	case "cache":
		s.m.tierL0.Add(1)
	}
	meta.setSource(source)
	resp := PlanResponse{
		Version:       APIVersion,
		Shape:         sh.String(),
		Family:        famEcho(fam),
		Nodes:         sh.Nodes(),
		CubeDim:       res.cubeDim,
		Plan:          res.plan,
		Method:        res.method,
		DilationBound: res.dilBound,
		Certificate:   s.countCert(planCertificate(fam, sh, res.cubeDim, res.dilBound)),
		Source:        source,
	}
	if meta != nil && meta.debug {
		resp.Debug = &DebugInfo{
			RequestID: meta.id,
			PlanTrace: s.debugProvenance(r.Context(), sh),
		}
		s.finishDebug(r.Context(), resp.Debug, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

func planResult(p *core.Plan) *cachedResult {
	dil := p.Dilation
	if dil == core.DilationUnknown {
		dil = -1
	}
	return &cachedResult{plan: p.String(), method: p.Method, dilBound: dil, cubeDim: p.CubeDim}
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	var req EmbedRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	famName, mode, deprecation, err := api.NormalizeFamily(req.Family, req.Mode)
	if err != nil {
		respondErr(w, r, errBadRequest("%v", err))
		return
	}
	fam, err := parseFamilyField(famName)
	if err != nil {
		respondErr(w, r, err)
		return
	}
	sh, err := s.parseShapeField(req.Shape, s.cfg.MaxNodes)
	if err != nil {
		respondErr(w, r, err)
		return
	}
	if err := guest.Validate(fam, sh); err != nil {
		respondErr(w, r, errBadRequest("%v", err))
		return
	}
	meta := metaFrom(r.Context())
	meta.setShape(sh, mode)
	canon, _ := guest.Get(fam).Canonical(sh)
	// mode is already normalized ("decomposition" or "gray"), so the
	// deprecated mode "torus" spelling shares the family-torus cache entry
	// by construction.
	key := "embed|" + famKey(fam) + mode + "|" + canon.String()
	res, source, err := s.lookup(r.Context(), key, func(ctx context.Context) (*cachedResult, error) {
		return s.computeEmbed(ctx, fam, canon, mode)
	})
	if err != nil {
		respondErr(w, r, err)
		return
	}
	meta.setSource(source)
	resp := EmbedResponse{
		Version:       APIVersion,
		Shape:         sh.String(),
		Family:        famEcho(fam),
		Mode:          mode,
		Deprecation:   deprecation,
		Plan:          res.plan,
		Method:        res.method,
		DilationBound: res.dilBound,
		Metrics:       api.Metrics(res.metrics),
		Source:        source,
	}
	resp.Metrics.Guest = sh.String() // metrics are relabeling-invariant
	resp.Certificate = s.countCert(measuredCertificate(fam, sh, resp.Metrics))
	if req.IncludeMap {
		ser := res.emb.Serial()
		if !sh.Equal(res.emb.Guest) {
			ser.Map = relabelMap(res.emb, sh)
		}
		ser.Guest = sh.String()
		resp.Embedding = (*api.EmbeddingSerial)(ser)
	}
	if meta != nil && meta.debug {
		resp.Debug = &DebugInfo{RequestID: meta.id}
		if mode == "decomposition" {
			resp.Debug.PlanTrace = s.debugProvenance(r.Context(), canon)
		}
		s.finishDebug(r.Context(), resp.Debug, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// computeEmbed builds and measures the canonical guest under one mode.
func (s *Server) computeEmbed(ctx context.Context, fam guest.Family, canon mesh.Shape, mode string) (*cachedResult, error) {
	var res *cachedResult
	var e *embed.Embedding
	switch mode {
	case "gray":
		_, span := obs.Start(ctx, "build")
		e = embed.Gray(canon)
		span.End()
		res = &cachedResult{cubeDim: e.N, dilBound: 1}
	default:
		p, err := s.planFor(ctx, fam, canon)
		if err != nil {
			return nil, err
		}
		res = planResult(p)
		_, bspan := obs.Start(ctx, "build")
		e = p.Build()
		bspan.End()
	}
	_, vspan := obs.Start(ctx, "verify")
	err := e.Verify()
	vspan.End()
	if err != nil {
		return nil, fmt.Errorf("embedserver: built an invalid embedding: %w", err)
	}
	res.metrics = e.MeasureParallelCtx(ctx, s.cfg.Workers)
	res.measured = true
	res.emb = e
	return res, nil
}

// relabelMap permutes the canonical-order node map into the requested axis
// order (a pure guest relabeling — images, and therefore all metrics, are
// unchanged).  The axis map comes from the embedding's own family, whose
// canonical form may keep some axes in place (the cylinder's wrapped last
// axis, every tree axis).
func relabelMap(e *embed.Embedding, want mesh.Shape) []uint64 {
	_, axmap := guest.Get(e.Family).Canonical(want)
	out := make([]uint64, len(e.Map))
	cw := make([]int, want.Dims())
	cc := make([]int, want.Dims())
	for idx := range out {
		want.CoordInto(idx, cw)
		for j := range cc {
			cc[j] = cw[axmap[j]]
		}
		out[idx] = uint64(e.Map[e.Guest.Index(cc)])
	}
	return out
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req CompareRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	fam, err := parseFamilyField(req.Family)
	if err != nil {
		respondErr(w, r, err)
		return
	}
	sh, err := s.parseShapeField(req.Shape, min(s.cfg.MaxNodes, maxCompareNodes))
	if err != nil {
		respondErr(w, r, err)
		return
	}
	if err := guest.Validate(fam, sh); err != nil {
		respondErr(w, r, errBadRequest("%v", err))
		return
	}
	meta := metaFrom(r.Context())
	meta.setShape(sh, "")
	canon, _ := guest.Get(fam).Canonical(sh)
	key := fmt.Sprintf("compare|%s%s|simnet=%v", famKey(fam), canon, req.Simnet)
	res, source, err := s.lookup(r.Context(), key, func(ctx context.Context) (*cachedResult, error) {
		return s.computeCompare(ctx, fam, canon, req.Simnet)
	})
	if err != nil {
		respondErr(w, r, err)
		return
	}
	meta.setSource(source)
	resp := *res.compare
	resp.Shape = sh.String()
	resp.Family = famEcho(fam)
	resp.Certificate = s.countCert(compareCertificate(fam, sh, resp.Rows))
	resp.Source = source
	if meta != nil && meta.debug {
		resp.Debug = &DebugInfo{
			RequestID: meta.id,
			PlanTrace: s.debugProvenance(r.Context(), canon),
		}
		s.finishDebug(r.Context(), resp.Debug, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// computeCompare builds the canonical guest with every applicable technique
// — Gray, snake, the family planner, and (for two-dimensional plain meshes)
// the reshaping paths of internal/reshape — measures each under the guest
// family's edge set, and optionally simulates one stencil-exchange round per
// technique.
func (s *Server) computeCompare(ctx context.Context, fam guest.Family, canon mesh.Shape, withSimnet bool) (*cachedResult, error) {
	bctx, bspan := obs.Start(ctx, "build")
	gr := embed.Gray(canon)
	gr.Family = fam
	sn := core.Snake(canon)
	sn.Family = fam
	es := map[string]*embed.Embedding{
		"gray":  gr,
		"snake": sn,
	}
	p, err := s.planFor(bctx, fam, canon)
	if err != nil {
		bspan.End()
		return nil, err
	}
	es["decomposition"] = p.Build()
	if fam == guest.Mesh && canon.Dims() == 2 {
		es["rowmajor"] = reshape.RowMajor(canon)
		if f := reshape.BestFold(canon); f != nil {
			es["fold"] = f
		}
	}
	bspan.End()
	names := make([]string, 0, len(es))
	for name := range es {
		names = append(names, name)
	}
	sort.Strings(names)
	resp := &CompareResponse{Version: APIVersion}
	for _, name := range names {
		tctx, tspan := obs.Start(ctx, "technique:"+name)
		m := es[name].MeasureParallelCtx(tctx, s.cfg.Workers)
		tspan.End()
		resp.Rows = append(resp.Rows, CompareRow{Technique: name, Metrics: api.Metrics(m)})
	}
	if withSimnet {
		_, sspan := obs.Start(ctx, "simnet")
		rounds := simnet.CompareEmbeddingsParallel(es, s.cfg.Workers)
		resp.Simnet = make(map[string]api.SimRoundStats, len(rounds))
		for name, rs := range rounds {
			resp.Simnet[name] = api.SimRoundStats(rs)
		}
		sspan.End()
	}
	return &cachedResult{compare: resp}, nil
}

// maxBodyBytes caps a request body; a larger one is answered 413.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON request body, rejecting trailing garbage and
// unknown fields so schema typos fail loudly.  The rest of the body is
// drained through the size cap even when the decoder stopped early, so a
// body over maxBodyBytes is a 413 whatever its first MiB holds.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.More() {
		err = errors.New("trailing data")
	}
	_, drainErr := io.Copy(io.Discard, body)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) || errors.As(drainErr, &tooLarge) {
		return &apiError{
			status: http.StatusRequestEntityTooLarge, code: api.CodeBadRequest,
			msg: "request body exceeds the 1 MiB limit",
		}
	}
	if err != nil {
		return errBadRequest("bad request body: %v", err)
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.HealthzResponse{Status: "ok", Version: APIVersion})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rs := s.cache.stats()
	ps := s.planner.CacheStats()
	gauges := []gauge{
		{name: "embedserver_inflight", help: "API requests currently being served.", kind: "gauge", value: float64(s.m.inflight.Load())},
		{name: "embedserver_shed_total", help: "Requests shed with 429 at the concurrency limit.", kind: "counter", value: float64(s.m.shed.Load())},
		{name: "embedserver_coalesced_total", help: "Requests that joined an in-flight computation.", kind: "counter", value: float64(s.m.coalesced.Load())},
		{name: "embedserver_result_cache_hits_total", help: "Result-cache (LRU) hits.", kind: "counter", value: float64(rs.Hits)},
		{name: "embedserver_result_cache_misses_total", help: "Computations performed (thundering herds count once).", kind: "counter", value: float64(rs.Misses)},
		{name: "embedserver_result_cache_evictions_total", help: "Result-cache LRU evictions.", kind: "counter", value: float64(rs.Evictions)},
		{name: "embedserver_result_cache_entries", help: "Result-cache current size.", kind: "gauge", value: float64(rs.Size)},
		{name: "embedserver_plan_cache_hits_total", help: "Planner plan-cache hits.", kind: "counter", value: float64(ps.Hits)},
		{name: "embedserver_plan_cache_misses_total", help: "Planner plan-cache misses.", kind: "counter", value: float64(ps.Misses)},
		{name: "embedserver_plan_cache_entries", help: "Planner plan-cache current size.", kind: "gauge", value: float64(ps.Size)},
		{name: "embedserver_plan_tier_l0_total", help: "Plan requests served from the in-memory result cache (L0).", kind: "counter", value: float64(s.m.tierL0.Load())},
		{name: "embedserver_plan_tier_closed_form_total", help: "Plan resolutions answered by the O(1) closed-form classifier.", kind: "counter", value: float64(s.m.tierClosedForm.Load())},
		{name: "embedserver_plan_tier_artifact_total", help: "Plan resolutions answered by the mmap'd plan-census artifact (L1).", kind: "counter", value: float64(s.m.tierArtifact.Load())},
		{name: "embedserver_plan_tier_compute_total", help: "Plan resolutions that ran the full decomposition planner (L2).", kind: "counter", value: float64(s.m.tierCompute.Load())},
		{name: "embedserver_certificates_total", help: "Optimality certificates served on plan/embed/compare responses.", kind: "counter", value: float64(s.m.certTotal.Load())},
		{name: "embedserver_certificates_optimal_total", help: "Served certificates whose achieved metrics provably meet the lower bounds.", kind: "counter", value: float64(s.m.certOptimal.Load())},
	}
	if s.artifact != nil {
		ah := s.artifact.Header()
		gauges = append(gauges,
			gauge{name: "embedserver_plan_artifact_records", help: "Records in the attached plan-census artifact.", kind: "gauge", value: float64(ah.RecordCount)},
		)
	}
	if s.jobs != nil {
		js := s.jobs.Stats()
		gauges = append(gauges,
			gauge{name: "embedserver_jobs_queued", help: "Batch jobs waiting for a runner.", kind: "gauge", value: float64(js.Queued)},
			gauge{name: "embedserver_jobs_running", help: "Batch jobs currently executing.", kind: "gauge", value: float64(js.Running)},
			gauge{name: "embedserver_jobs_done", help: "Batch jobs that finished successfully.", kind: "gauge", value: float64(js.Done)},
			gauge{name: "embedserver_jobs_failed", help: "Batch jobs that ended in failure.", kind: "gauge", value: float64(js.Failed)},
			gauge{name: "embedserver_jobs_cancelled", help: "Batch jobs cancelled by the caller.", kind: "gauge", value: float64(js.Cancelled)},
			gauge{name: "embedserver_jobs_queue_capacity", help: "Slots in the job submission queue.", kind: "gauge", value: float64(js.QueueCap)},
			gauge{name: "embedserver_jobs_chunks_done_total", help: "Job chunks completed (including resumed runs).", kind: "counter", value: float64(js.ChunksDone)},
			gauge{name: "embedserver_jobs_shapes_total", help: "Shapes processed by batch jobs.", kind: "counter", value: float64(js.Shapes)},
			gauge{name: "embedserver_jobs_retries_total", help: "Job chunk attempts retried after a panic or error.", kind: "counter", value: float64(js.Retries)},
			gauge{name: "embedserver_jobs_result_bytes_total", help: "Bytes of NDJSON results committed to disk.", kind: "counter", value: float64(js.ResultBytes)},
		)
	}
	if s.pool != nil {
		fs := s.pool.Stats()
		gauges = append(gauges,
			gauge{name: "embedserver_fabric_peers", help: "Remote fabric peers by health state.", kind: "gauge", value: float64(fs.Up), labels: `state="up"`},
			gauge{name: "embedserver_fabric_peers", help: "Remote fabric peers by health state.", kind: "gauge", value: float64(fs.Down), labels: `state="down"`},
			gauge{name: "embedserver_fabric_chunks_dispatched_total", help: "Chunk executions dispatched to fabric peers.", kind: "counter", value: float64(fs.Dispatched)},
			gauge{name: "embedserver_fabric_chunks_requeued_total", help: "Chunks re-dispatched after a fabric peer failure.", kind: "counter", value: float64(fs.Requeued)},
			gauge{name: "embedserver_fabric_chunks_folded_total", help: "Distributed chunk results folded into job streams.", kind: "counter", value: float64(fs.Folded)},
		)
		for _, ps := range fs.Peers {
			gauges = append(gauges,
				gauge{name: "embedserver_fabric_peer_inflight", help: "Chunks currently executing, by fabric peer.", kind: "gauge", value: float64(ps.InFlight), labels: fmt.Sprintf("peer=%q", ps.Addr)},
			)
		}
	}
	gauges = append(gauges,
		gauge{name: "embedserver_sse_subscribers", help: "Live SSE job-event subscribers.", kind: "gauge", value: float64(s.sse.subscribers.Load())},
		gauge{name: "embedserver_sse_events_total", help: "SSE events delivered to subscriber buffers.", kind: "counter", value: float64(s.sse.events.Load())},
		gauge{name: "embedserver_sse_dropped_total", help: "SSE subscribers dropped for falling behind (slow clients).", kind: "counter", value: float64(s.sse.dropped.Load())},
	)
	gauges = append(gauges, runtimeGauges()...)
	gauges = append(gauges, buildInfoGauge())
	var b strings.Builder
	s.m.render(&b, gauges)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}
