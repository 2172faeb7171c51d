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
// Wire types live in pkg/api — the handlers build and serve exactly those
// types, and every non-2xx response is the api.ErrorResponse envelope.
//
// The request path is result cache → planner → metrics engine: one table
// (cache.go) holds the fully-measured results keyed by canonical
// (axis-sorted) shape + variant, a bounded LRU, together with the
// computations in flight, so a thundering herd on one key is one
// computation and only the request that started it runs the planner.
// Requests carry a per-request timeout context; a concurrency semaphore
// sheds excess load with 429 + Retry-After.  Computations are detached from
// request contexts, so a timed-out leader still populates the cache for its
// followers and for the retry.
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
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/bounds"
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

// maxNodes bounds the guests /v1/plan and /v1/embed accept; bigger shapes
// get 422.  maxCompareNodes bounds the guests /v1/compare accepts: a
// compare builds several embeddings and optionally simulates a stencil
// exchange, so it is far more expensive per node than /v1/embed.
// maxAxes bounds every guest's axis count, also with a 422: length-1 axes
// cost no nodes, yet planning and certifying a shape grow with the square
// of its axes.  Within maxNodes at most 24 axes are longer than 1.
// resultCacheSize bounds L0, the LRU of fully-measured results.
const (
	maxNodes        = 1 << 24
	maxCompareNodes = 1 << 20
	maxAxes         = 64
	resultCacheSize = 1024
)

// Config tunes a Server.  The zero value is usable: defaults are filled in
// by New.
type Config struct {
	// Workers bounds the parallelism of any one computation: a
	// measurement, a compare, or a job chunk this server executes for the
	// fabric (values below one mean GOMAXPROCS, as in internal/sweep).
	Workers int
	// MaxInflight bounds concurrently served API requests; excess load is
	// shed with 429 (default 256).
	MaxInflight int
	// Timeout is the per-request deadline (default 30s).
	Timeout time.Duration
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
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Server is the embedding service.  It is immutable after New and safe for
// concurrent use; plug Handler into an http.Server (whose Shutdown drains
// in-flight requests — handlers never outlive their ResponseWriter).
type Server struct {
	cfg      Config
	planner  *core.Planner
	cache    *resultCache
	sem      chan struct{}
	m        *metrics
	jobs     *jobs.Manager      // nil until AttachJobs; jobs endpoints 503 without it
	artifact *artifact.Artifact // nil until AttachArtifact; L1 plan tier (see tiers.go)
	pool     *fabric.Pool       // nil until AttachFabric; peer endpoints 503 without it
}

// New returns a Server with cfg's zero fields defaulted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		planner: core.NewPlanner(core.DefaultOptions),
		cache:   newResultCache(resultCacheSize),
		sem:     make(chan struct{}, cfg.MaxInflight),
		m:       newMetrics(),
	}
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

// Handler returns the service's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("POST /v1/plan", s.instrument("plan", s.handlePlan))
	mux.Handle("POST /v1/embed", s.instrument("embed", s.handleEmbed))
	mux.Handle("POST /v1/compare", s.instrument("compare", s.handleCompare))
	mux.Handle("POST /v1/jobs", s.instrument("jobs-submit", s.withJobs(s.handleJobSubmit)))
	mux.Handle("GET /v1/jobs", s.instrument("jobs-list", s.withJobs(s.handleJobList)))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs-status", s.withJobs(s.handleJobStatus)))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("jobs-cancel", s.withJobs(s.handleJobCancel)))
	// The results stream long-polls until the job finishes, so it must not
	// occupy an inflight slot or run under the request timeout; the artifact
	// download can be hundreds of MB, so it too stays outside the timeout.
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.withJobs(s.handleJobResults))
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.withJobs(s.handleJobArtifact))
	// The SSE stream follows the job for its whole life (same reasoning);
	// the trace download is one small file but pairs with the artifact.
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.withJobs(s.handleJobEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.withJobs(s.handleJobTrace))
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
// the per-request timeout context, and latency/request accounting into the
// route's endpointStats, fetched once here at registration.  A debug request
// (?debug=trace / X-Debug-Trace: 1) additionally runs under a per-request
// obs root span whose phases the handlers fill in; when a logger is
// configured every request emits one structured access-log record.  With
// neither in play the wrapper allocates nothing for them.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	stats := s.m.route(endpoint)
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
			stats.observe(http.StatusTooManyRequests, 0)
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
		stats.observe(sw.code, dur.Seconds())
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// parseGuest is the one prelude of the guest endpoints: family name ("" is
// mesh), shape, axis count within maxAxes, node count within limit, then
// the family's own shape rule, so every guest that reaches the result cache
// is one the planner accepts.  The node count is computed overflow-checked
// — mesh.Shape.Nodes would wrap silently on absurd axes.
func parseGuest(family, shape string, limit int) (guest.Family, mesh.Shape, error) {
	d, err := guest.ByName(family)
	if err != nil {
		return 0, nil, errBadRequest("%v", err)
	}
	sh, err := mesh.ParseShape(shape)
	if err == nil {
		err = sh.Validate()
	}
	if err != nil {
		return 0, nil, errBadRequest("%v", err)
	}
	if sh.Dims() > maxAxes {
		return 0, nil, errTooLarge("shape has %d axes, above the %d-axis limit", sh.Dims(), maxAxes)
	}
	if _, ok := sh.NodesWithin(limit); !ok {
		return 0, nil, errTooLarge("shape %s exceeds the %d-node limit", sh, limit)
	}
	if err := d.Validate(sh); err != nil {
		return 0, nil, errBadRequest("%v", err)
	}
	return d.Family, sh, nil
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

// cachedResult is one L0 entry: embed and compare entries in canonical axis
// order, plan entries in the request's (plan strings are axis-order
// specific).  Entries are immutable after insertion.
type cachedResult struct {
	plan    api.PlanEntry        // the served plan record (a Gray embed: cube and bound only)
	metrics api.Metrics          // embed entries only
	emb     *embed.Embedding     // nil for plan-only entries
	compare *api.CompareResponse // only for compare entries
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req api.PlanRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	fam, sh, err := parseGuest(req.Family, req.Shape, maxNodes)
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
	res, source, err := s.cache.do(r.Context(), key, func(ctx context.Context) (*cachedResult, string, error) {
		return s.resolvePlan(ctx, fam, sh)
	})
	if err != nil {
		respondErr(w, r, err)
		return
	}
	if source == "cache" {
		s.m.tierL0.Add(1)
	}
	meta.setSource(source)
	resp := api.PlanResponse{
		Version:       api.Version,
		Shape:         sh.String(),
		Family:        fam.String(),
		Nodes:         sh.Nodes(),
		CubeDim:       res.plan.CubeDim,
		Plan:          res.plan.Plan,
		Method:        res.plan.Method,
		DilationBound: res.plan.Dilation,
		Certificate:   s.countCert(bounds.PlanCertificate(fam, sh, res.plan.CubeDim, res.plan.Dilation)),
		Source:        source,
	}
	if meta != nil && meta.debug {
		resp.Debug = &api.DebugInfo{
			RequestID: meta.id,
			PlanTrace: s.debugProvenance(r.Context(), fam, sh),
		}
		s.finishDebug(r.Context(), resp.Debug, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	var req api.EmbedRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	famName, mode, deprecation, err := api.NormalizeFamily(req.Family, req.Mode)
	if err != nil {
		respondErr(w, r, errBadRequest("%v", err))
		return
	}
	fam, sh, err := parseGuest(famName, req.Shape, maxNodes)
	if err != nil {
		respondErr(w, r, err)
		return
	}
	meta := metaFrom(r.Context())
	meta.setShape(sh, mode)
	canon, _ := guest.Get(fam).Canonical(sh)
	// mode is already normalized ("decomposition" or "gray"), so the
	// deprecated mode "torus" spelling shares the family-torus cache entry
	// by construction.
	key := "embed|" + famKey(fam) + mode + "|" + canon.String()
	res, source, err := s.cache.do(r.Context(), key, func(ctx context.Context) (*cachedResult, string, error) {
		return s.computeEmbed(ctx, fam, canon, mode)
	})
	if err != nil {
		respondErr(w, r, err)
		return
	}
	meta.setSource(source)
	shape := sh.String()
	resp := api.EmbedResponse{
		Version:       api.Version,
		Shape:         shape,
		Family:        fam.String(),
		Mode:          mode,
		Deprecation:   deprecation,
		Plan:          res.plan.Plan,
		Method:        res.plan.Method,
		DilationBound: res.plan.Dilation,
		Metrics:       res.metrics,
		Source:        source,
	}
	resp.Metrics.Guest = shape // metrics are relabeling-invariant
	resp.Certificate = s.countCert(bounds.MeasuredCertificate(fam, sh, resp.Metrics))
	if req.IncludeMap {
		e := res.emb
		if !sh.Equal(e.Guest) {
			// Serve the map in the requested axis order.  The axis map
			// comes from the embedding's own family, whose canonical form
			// may keep some axes in place (the cylinder's wrapped last
			// axis, every tree axis).
			_, axmap := guest.Get(e.Family).Canonical(sh)
			e = e.Relabel(sh, axmap)
		}
		resp.Embedding = e.Serial()
	}
	if meta != nil && meta.debug {
		resp.Debug = &api.DebugInfo{RequestID: meta.id}
		if mode == "decomposition" {
			resp.Debug.PlanTrace = s.debugProvenance(r.Context(), fam, canon)
		}
		s.finishDebug(r.Context(), resp.Debug, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// computeEmbed builds and measures the canonical guest under one mode; its
// source is "computed".
func (s *Server) computeEmbed(ctx context.Context, fam guest.Family, canon mesh.Shape, mode string) (*cachedResult, string, error) {
	var res *cachedResult
	var e *embed.Embedding
	switch mode {
	case "gray":
		_, span := obs.Start(ctx, "build")
		e = embed.Gray(canon)
		span.End()
		res = &cachedResult{plan: api.PlanEntry{CubeDim: e.N, Dilation: 1}}
	default:
		p, err := s.planFor(ctx, fam, canon)
		if err != nil {
			return nil, "", err
		}
		res = &cachedResult{plan: p.Entry()}
		_, bspan := obs.Start(ctx, "build")
		e = p.Build()
		bspan.End()
	}
	_, vspan := obs.Start(ctx, "verify")
	err := e.Verify()
	vspan.End()
	if err != nil {
		return nil, "", fmt.Errorf("embedserver: built an invalid embedding: %w", err)
	}
	res.metrics = e.MeasureParallelCtx(ctx, s.cfg.Workers)
	res.emb = e
	return res, "computed", nil
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req api.CompareRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	fam, sh, err := parseGuest(req.Family, req.Shape, maxCompareNodes)
	if err != nil {
		respondErr(w, r, err)
		return
	}
	meta := metaFrom(r.Context())
	meta.setShape(sh, "")
	canon, _ := guest.Get(fam).Canonical(sh)
	key := fmt.Sprintf("compare|%s%s|simnet=%v", famKey(fam), canon, req.Simnet)
	res, source, err := s.cache.do(r.Context(), key, func(ctx context.Context) (*cachedResult, string, error) {
		return s.computeCompare(ctx, fam, canon, req.Simnet)
	})
	if err != nil {
		respondErr(w, r, err)
		return
	}
	meta.setSource(source)
	resp := *res.compare
	resp.Shape = sh.String()
	resp.Family = fam.String()
	if c, ok := bounds.CompareCertificate(fam, sh, resp.Rows); ok {
		resp.Certificate = s.countCert(c)
	}
	resp.Source = source
	if meta != nil && meta.debug {
		resp.Debug = &api.DebugInfo{
			RequestID: meta.id,
			PlanTrace: s.debugProvenance(r.Context(), fam, canon),
		}
		s.finishDebug(r.Context(), resp.Debug, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// computeCompare builds the canonical guest with every applicable technique
// — Gray, snake, the family planner, and (for two-dimensional plain meshes)
// the reshaping paths of internal/reshape — measures each under the guest
// family's edge set, and optionally simulates one stencil-exchange round per
// technique.  Its source is "computed".
func (s *Server) computeCompare(ctx context.Context, fam guest.Family, canon mesh.Shape, withSimnet bool) (*cachedResult, string, error) {
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
		return nil, "", err
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
	resp := &api.CompareResponse{Version: api.Version}
	for _, name := range names {
		tctx, tspan := obs.Start(ctx, "technique:"+name)
		m := es[name].MeasureParallelCtx(tctx, s.cfg.Workers)
		tspan.End()
		resp.Rows = append(resp.Rows, api.CompareRow{Technique: name, Metrics: m})
	}
	if withSimnet {
		_, sspan := obs.Start(ctx, "simnet")
		resp.Simnet = simnet.CompareEmbeddingsParallel(es, s.cfg.Workers)
		sspan.End()
	}
	return &cachedResult{compare: resp}, "computed", nil
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
	writeJSON(w, http.StatusOK, api.HealthzResponse{Status: "ok", Version: api.Version})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rd := reading{m: s.m, cache: s.cache.stats(), plan: s.planner.CacheStats(), obs: obs.ReadStats()}
	runtime.ReadMemStats(&rd.mem)
	if s.artifact != nil {
		h := s.artifact.Header()
		rd.artifact = &h
	}
	if s.jobs != nil {
		js := s.jobs.Stats()
		rd.jobs = &js
	}
	if s.pool != nil {
		fs := s.pool.Stats()
		rd.fabric = &fs
	}
	var b strings.Builder
	s.m.render(&b, &rd)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}
