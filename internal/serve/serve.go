// Package serve is the request-oriented front end over the LACE engine:
// a long-running HTTP JSON server that loads one (database,
// specification) pair at startup, pre-builds a shared core.Session, and
// answers the paper's reasoning problems as online queries —
// certain/possible merges, certain/possible conjunctive-query answers,
// maximal solutions and merge explanations — under a bounded pool of
// worker tokens.
//
// Request handling reuses the repository's concurrency and budget
// layers: every request runs under a context deadline (the PR 4 budget
// discipline), searches inside a request may fan out over several
// workers of the lattice walk, and a tripped budget or deadline produces a
// partial-result JSON body with HTTP status 413 (state budget
// exhausted) or 504 (deadline), never a hung connection. Successful
// responses are cached in an LRU keyed by (endpoint, canonical request
// form, database fingerprint), with hit/miss/eviction counters in the
// shared obs registry; /metrics dumps the recorder snapshot and
// /healthz reports liveness. Shutdown drains: new requests are refused,
// in-flight ones get a grace period, then their contexts are cancelled
// so even pathological searches terminate.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Config configures a Server. DB, Spec and Sims are required; zero
// values elsewhere pick the documented defaults.
type Config struct {
	DB   *db.Database
	Spec *rules.Spec
	Sims *sim.Registry

	// Workers bounds the number of requests evaluated concurrently (the
	// worker pool size); excess requests queue. 0 means GOMAXPROCS.
	Workers int
	// Parallelism is passed to core.Options. It bounds the epoch's one
	// background resolution, not a request: no endpoint walks the
	// lattice, each reads the epoch's resolved snapshot. It is the number
	// of shards solved concurrently, the worker count of a lone shard's
	// walk, and that of the whole solve of a top that clashes at a
	// similarity position. 0 means GOMAXPROCS; 1 resolves on one
	// goroutine.
	Parallelism int
	// MaxStates is the search-state budget (core Options.MaxStates). It
	// bounds each shard search of an epoch's one background resolution,
	// and a resolution that exhausts it answers every request on that
	// epoch with a 413 partial-result response. It also caps the
	// maximal-solution product a request composes (413 for that
	// request). 0 means the core default.
	MaxStates int
	// DefaultTimeout bounds requests that do not ask for a deadline;
	// 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines. 0 means
	// DefaultMaxTimeout.
	MaxTimeout time.Duration
	// CacheSize bounds the response cache in entries. 0 means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// Recorder receives the server's and the engines' instrumentation.
	// Nil means a fresh live registry (so /metrics always works).
	Recorder *obs.Registry
	// AccessLog, when non-nil, receives one JSON line per request
	// (method, path, status, duration, cache disposition, outcome,
	// request ID). The writer is serialized by the server.
	AccessLog io.Writer
	// Audit, when non-nil, records every certain/possible merge
	// decision the server reports, with its Definition-4 justification,
	// into the hash-chained audit log.
	Audit *audit.Log
	// Sharded is not read: every server resolves each epoch once, in
	// the background, through its core.EpochSnapshot.
	//
	// Deprecated: ignored.
	Sharded bool
	// Mutable accepts POST /v1/facts mutation batches: every applied
	// batch advances the served epoch, and readers keep the epoch they
	// started on. Without it the endpoint answers 403 and the instance
	// is read-only for its lifetime.
	Mutable bool
	// WAL makes Audit a write-ahead log for mutations: handleFacts
	// appends and fsyncs the mutation record before the new epoch is
	// published or acknowledged, and a failed append fails the request
	// (500) without publishing. Requires Audit (opened with
	// audit.Options{Durable: true} for real durability) and Mutable.
	WAL bool
	// InitialEpoch numbers the starting snapshot. Recovery passes the
	// last replayed epoch so the resumed lineage continues N+1, N+2, …
	// in step with the log. 0 is a fresh instance.
	InitialEpoch uint64
}

// DefaultCacheSize is the default response-cache bound.
const DefaultCacheSize = 1024

// DefaultMaxTimeout caps per-request deadlines unless configured.
const DefaultMaxTimeout = time.Minute

// maxQueryCache bounds the parsed-query cache (shared *cq.CQ values so
// repeated queries hit the session's prepared-plan cache).
const maxQueryCache = 512

// Server is the resolution server. Build one with New, mount Handler on
// an http.Server, and call Shutdown to drain.
//
// A mutable server serves out of a core.MutableSession. A read-only one
// serves one core.EpochSnapshot, numbered InitialEpoch, for its
// lifetime; no epoch succeeds it, so it keeps no lattice top once
// resolved. A request captures the current epochState once, up front,
// and runs entirely against it; a mutation arriving mid-request
// advances the served epoch without disturbing in-flight readers,
// whose snapshot (and therefore whose cache keys, interner and
// engines) is frozen.
type Server struct {
	cfg Config
	rec *obs.Registry

	// ms owns a mutable server's epoch lineage. It is nil on a
	// read-only server, whose POST /v1/facts answers 403.
	ms *core.MutableSession

	// cur is the served epoch. writeMu orders ApplyDurable with the store, so
	// concurrent mutations can never publish epochs out of order.
	cur     atomic.Pointer[epochState]
	writeMu sync.Mutex

	// pool is the worker-token semaphore: requests take a token before
	// evaluating and return it when done.
	pool chan struct{}

	cache *responseCache

	// queries caches parsed ad-hoc queries by text, so repeated queries
	// share one *cq.CQ (and therefore one prepared plan) and parsing —
	// which interns fresh constants into a clone of the interner — stays
	// off the hot path.
	queryMu sync.Mutex
	queries map[string]*cq.CQ

	// baseCtx is the ancestor of every request context; abort cancels
	// it to cut in-flight searches short during a forced drain.
	baseCtx  context.Context
	abort    context.CancelFunc
	draining atomic.Bool
	inflight sync.WaitGroup
	// resolving tracks the epochs' background resolutions.
	resolving sync.WaitGroup
	// admitMu orders every inflight.Add before Shutdown's Wait, as
	// sync.WaitGroup requires of an Add from zero.
	admitMu sync.Mutex

	// Request-scoped telemetry (telemetry.go). now and nextID are
	// replaceable from tests for deterministic golden output.
	access    *accessLogger
	audit     *audit.Log
	wal       bool // audit is a write-ahead log: mutation appends are fatal
	dropOnce  sync.Once
	inflightN atomic.Int64
	now       func() time.Time
	nextID    func() string

	mux *http.ServeMux
}

// New validates the configuration, builds the served epoch and the
// worker pool, and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil || cfg.Spec == nil || cfg.Sims == nil {
		return nil, fmt.Errorf("serve: Config.DB, Spec and Sims are required")
	}
	if cfg.WAL && cfg.Audit == nil {
		return nil, fmt.Errorf("serve: Config.WAL requires Config.Audit (the write-ahead log)")
	}
	if cfg.WAL && !cfg.Mutable {
		return nil, fmt.Errorf("serve: Config.WAL requires Config.Mutable (only mutations are write-ahead logged)")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.NewRegistry()
	}
	opts := core.Options{
		MaxStates:   cfg.MaxStates,
		Parallelism: cfg.Parallelism,
		Recorder:    rec,
	}
	var ms *core.MutableSession
	var snap *core.EpochSnapshot
	var err error
	if cfg.Mutable {
		ms, err = core.NewMutable(cfg.DB, cfg.Spec, cfg.Sims, opts, cfg.InitialEpoch)
	} else {
		snap, err = core.NewSnapshot(cfg.DB, cfg.Spec, cfg.Sims, opts, cfg.InitialEpoch)
	}
	if err != nil {
		return nil, err
	}
	if ms != nil {
		snap = ms.Snapshot()
	}
	baseCtx, abort := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		rec:     rec,
		ms:      ms,
		pool:    make(chan struct{}, cfg.Workers),
		cache:   newResponseCache(cfg.CacheSize, rec),
		queries: make(map[string]*cq.CQ),
		baseCtx: baseCtx,
		abort:   abort,
		audit:   cfg.Audit,
		wal:     cfg.WAL,
		now:     time.Now,
		nextID:  defaultIDGen(),
	}
	if cfg.AccessLog != nil {
		s.access = &accessLogger{w: cfg.AccessLog}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.pool <- struct{}{}
	}
	rec.Gauge(obs.ServeWorkers, int64(cfg.Workers))
	s.cur.Store(s.newEpochState(snap))
	rec.Gauge(obs.ServeEpoch, int64(cfg.InitialEpoch))

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/v1/merges/certain", s.mergesHandler("certain"))
	s.mux.HandleFunc("/v1/merges/possible", s.mergesHandler("possible"))
	s.mux.HandleFunc("/v1/solutions/maximal", s.handleMaximal)
	s.mux.HandleFunc("/v1/answers", s.handleAnswers)
	s.mux.HandleFunc("/v1/explain", s.handleExplain)
	s.mux.HandleFunc("/v1/facts", s.handleFacts)
	return s, nil
}

// epochState is one served epoch: its snapshot plus the readiness
// signal of the snapshot's background resolution. Result endpoints wait
// on ready under their own deadline; the resolution itself runs under
// the server-lifetime context, so no request's deadline can poison it
// for everyone else.
type epochState struct {
	snap  *core.EpochSnapshot
	ready chan struct{}
}

// newEpochState wraps a snapshot and starts its background
// resolution, which Shutdown waits for.
func (s *Server) newEpochState(snap *core.EpochSnapshot) *epochState {
	st := &epochState{snap: snap, ready: make(chan struct{})}
	s.resolving.Add(1)
	go func() {
		defer s.resolving.Done()
		defer close(st.ready)
		if _, err := snap.PossibleMergesCtx(s.baseCtx); err != nil && s.baseCtx.Err() == nil {
			s.rec.Inc(obs.ServeErrors, 1)
		}
	}()
	return st
}

// epochReady waits for the epoch's background resolution under the
// request's own deadline; result calls after it return immediately. A
// request whose deadline has already passed is cut short even when the
// resolution is ready, rather than by the select's random pick.
func (s *Server) epochReady(ctx context.Context, st *epochState) error {
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return limits.Wrap(context.DeadlineExceeded)
	}
	select {
	case <-st.ready:
		return nil
	case <-ctx.Done():
		return limits.Wrap(ctx.Err())
	}
}

// Handler returns the server's HTTP handler: the route mux wrapped in
// the request-scoped telemetry layer (request IDs, access log,
// per-endpoint latency histograms).
func (s *Server) Handler() http.Handler { return s.withTelemetry(s.mux) }

// DBFingerprint returns the currently served database's content hash.
func (s *Server) DBFingerprint() string { return s.cur.Load().snap.Fingerprint() }

// Epoch returns the currently served epoch.
func (s *Server) Epoch() uint64 { return s.cur.Load().snap.Epoch() }

// Stats snapshots the server's recorder.
func (s *Server) Stats() obs.Snapshot { return s.rec.Snapshot() }

// Shutdown drains the server: new requests are refused with 503
// immediately, in-flight requests run until ctx is done, then their
// contexts are cancelled (cutting searches short with a typed
// cancellation) and Shutdown waits for the handlers to return. Either
// way it then cancels any epoch resolution still running in the
// background and waits, until ctx is done, for it to stop. The error is
// nil when every in-flight request and resolution finished within the
// grace period, ctx.Err() otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.abort()
		<-done
		err = ctx.Err()
	}
	s.abort()
	resolved := make(chan struct{})
	go func() {
		s.resolving.Wait()
		close(resolved)
	}()
	select {
	case <-resolved:
	case <-ctx.Done():
		err = ctx.Err()
	}
	return err
}

// --- request plumbing -------------------------------------------------

// acquire takes a worker token, honoring request cancellation and
// drain while queued.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case <-s.pool:
		return nil
	default:
	}
	select {
	case <-s.pool:
		return nil
	case <-ctx.Done():
		return limits.Wrap(ctx.Err())
	case <-s.baseCtx.Done():
		return errDraining
	}
}

func (s *Server) release() { s.pool <- struct{}{} }

// admit counts a request in flight unless the server is draining, in
// which case it answers 503 and reports false. Admitted requests must
// call inflight.Done.
func (s *Server) admit(w http.ResponseWriter, meta *reqMeta) bool {
	s.admitMu.Lock()
	draining := s.draining.Load()
	if !draining {
		s.inflight.Add(1)
	}
	s.admitMu.Unlock()
	if draining {
		meta.outcome = "draining"
		writeJSON(w, http.StatusServiceUnavailable, Envelope{Error: errDraining.Error()})
	}
	return !draining
}

var errDraining = errors.New("server is shutting down")

// requestCtx derives the evaluation context for one request: child of
// the request's own context (client disconnect), cancelled by server
// abort, bounded by the effective deadline (request override capped by
// MaxTimeout, else the configured default).
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stopAbort := context.AfterFunc(s.baseCtx, cancel)
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		prev := cancel
		cancel = func() { tcancel(); prev() }
	}
	final := cancel
	return ctx, func() { stopAbort(); final() }
}

// writeJSON marshals v with a trailing newline. Marshal failures are a
// programming error; they surface as a 500 with a plain body.
func writeJSON(w http.ResponseWriter, status int, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	return body
}

// statusFor maps a task error to its HTTP status: 413 for an exhausted
// resource budget ("the instance is too large for the configured
// budget"), 504 for a deadline or client cancellation, 503 when the
// stop came from server drain, 500 otherwise.
func (s *Server) statusFor(err error) int {
	switch {
	case errors.Is(err, limits.ErrBudget):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, limits.ErrCanceled):
		if s.baseCtx.Err() != nil {
			return http.StatusServiceUnavailable
		}
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// endpoint wraps the shared request lifecycle: drain check, in-flight
// tracking, request counting, cache lookup, worker checkout, error
// mapping and cache fill. decode produces the canonical cache key (or
// a 400 error); task runs the reasoning problem against the captured
// epoch state st, once its resolution is ready, and fills resp
// (envelope cleared), returning the task error if any. resp must be a
// pointer to the endpoint's response struct with its Envelope
// addressable via env. The cache key includes st's fingerprint, so
// responses computed under an earlier epoch can never be served after a
// mutation changed the data.
func (s *Server) endpoint(w http.ResponseWriter, r *http.Request, name string,
	timeoutMS int, key string, st *epochState,
	task func(ctx context.Context, st *epochState) error,
	resp any, env *Envelope) {

	meta := metaFrom(r.Context())
	meta.endpoint = name
	if !s.admit(w, meta) {
		return
	}
	defer s.inflight.Done()
	s.rec.Inc(obs.ServeRequests, 1)
	sp := s.rec.Start(obs.SpanServeRequest)
	sp.AttrStr("request_id", meta.id)
	defer sp.AttrStr("endpoint", name).End()

	cacheKey := name + "\x00" + key + "\x00" + st.snap.Fingerprint()
	if body, ok := s.cache.get(cacheKey); ok {
		meta.cache = "hit"
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	meta.cache = "miss"

	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()
	waitStart := s.now()
	err := s.acquire(ctx)
	wait := s.now().Sub(waitStart)
	s.rec.Observe(obs.ServePoolWait, wait)
	meta.poolWait = wait
	if err != nil {
		if errors.Is(err, errDraining) {
			meta.outcome = "draining"
			writeJSON(w, http.StatusServiceUnavailable, Envelope{Error: errDraining.Error()})
			return
		}
		s.rec.Inc(obs.ServeInterrupted, 1)
		meta.outcome = "interrupted"
		writeJSON(w, s.statusFor(err), Envelope{Interrupted: true, Error: err.Error()})
		return
	}
	defer s.release()

	if err = s.epochReady(ctx, st); err == nil {
		err = task(ctx, st)
	}
	if err != nil {
		status := s.statusFor(err)
		env.Error = err.Error()
		if status == http.StatusRequestEntityTooLarge || status == http.StatusGatewayTimeout ||
			status == http.StatusServiceUnavailable {
			// A budget or deadline stop: the payload filled so far is a
			// valid partial result, so return it under the marker.
			env.Interrupted = true
			s.rec.Inc(obs.ServeInterrupted, 1)
			meta.outcome = "interrupted"
		} else {
			s.rec.Inc(obs.ServeErrors, 1)
			meta.outcome = "error"
		}
		writeJSON(w, status, resp)
		return
	}
	if body := writeJSON(w, http.StatusOK, resp); body != nil {
		s.cache.put(cacheKey, body)
	}
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 1 << 20

// decodeBody decodes an optional JSON body into v, reporting whether
// the handler should go on. A body over maxBodyBytes is refused with
// 413 and malformed JSON with 400. An empty body (e.g. a bare GET)
// leaves v at its zero value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Body == nil {
		return true
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil && len(strings.TrimSpace(string(raw))) > 0 {
		err = json.Unmarshal(raw, v)
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
		err = fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	}
	writeJSON(w, status, Envelope{Error: err.Error()})
	return false
}

// --- endpoints --------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.cur.Load().snap
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		Fingerprint: snap.Fingerprint(),
		Facts:       snap.DB().NumFacts(),
		Workers:     s.cfg.Workers,
		Epoch:       snap.Epoch(),
		Mutable:     s.ms != nil,
		Draining:    s.draining.Load(),
	})
}

// handleMetrics serves the Prometheus text exposition. Runtime gauges
// (pool occupancy, cache size, goroutines, heap) are refreshed at
// scrape time so they are current, not last-request-stale.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshRuntimeGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteProm(w, s.rec.Snapshot())
}

// handleMetricsJSON serves the raw snapshot (the pre-Prometheus
// /metrics payload, kept for scripts that consume the JSON schema).
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	s.refreshRuntimeGauges()
	writeJSON(w, http.StatusOK, s.rec.Snapshot())
}

// mergesHandler serves /v1/merges/{certain,possible}.
func (s *Server) mergesHandler(semantics string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !decodeBody(w, r, &req) {
			return
		}
		resp := &MergesResponse{Semantics: semantics, Merges: []MergePair{}}
		s.endpoint(w, r, "merges/"+semantics, req.TimeoutMS, "", s.cur.Load(),
			func(ctx context.Context, st *epochState) error {
				var pairs []eqrel.Pair
				var err error
				if semantics == "certain" {
					pairs, err = st.snap.CertainMergesCtx(ctx)
				} else {
					pairs, err = st.snap.PossibleMergesCtx(ctx)
				}
				if err != nil {
					return err
				}
				in := st.snap.DB().Interner()
				resp.Merges = namePairs(in, pairs)
				resp.Count = len(resp.Merges)
				// Audit after the payload is complete, so recording
				// never alters the response.
				s.auditMerges(ctx, st.snap, metaFrom(r.Context()), semantics, pairs)
				return nil
			}, resp, &resp.Envelope)
	}
}

func (s *Server) handleMaximal(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	resp := &SolutionsResponse{Solutions: []SolutionJSON{}}
	s.endpoint(w, r, "solutions/maximal", req.TimeoutMS, "", s.cur.Load(),
		func(ctx context.Context, st *epochState) error {
			ms, err := st.snap.MaximalSolutionsCtx(ctx)
			if err != nil {
				return err
			}
			in := st.snap.DB().Interner()
			for _, m := range ms {
				sol := SolutionJSON{Classes: [][]string{}}
				for _, cls := range m.NontrivialClasses() {
					names := make([]string, len(cls))
					for i, c := range cls {
						names[i] = in.Name(c)
					}
					sol.Classes = append(sol.Classes, names)
				}
				resp.Solutions = append(resp.Solutions, sol)
			}
			resp.Count = len(resp.Solutions)
			return nil
		}, resp, &resp.Envelope)
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	var req AnswersRequest
	if !decodeBody(w, r, &req) {
		return
	}
	key, err := req.canonical()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Envelope{Error: err.Error()})
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, Envelope{Error: "query is required"})
		return
	}
	st := s.cur.Load()
	q, err := s.parseQuery(st, req.Query)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Envelope{Error: err.Error()})
		return
	}
	sem := req.Semantics
	if sem == "" {
		sem = "certain"
	}
	resp := &AnswersResponse{Semantics: sem, Query: req.Query}
	s.endpoint(w, r, "answers", req.TimeoutMS, key, st,
		func(ctx context.Context, st *epochState) error {
			answers := st.snap.PossibleAnswersCtx
			if sem == "certain" {
				answers = st.snap.CertainAnswersCtx
			}
			tuples, err := answers(ctx, q)
			if err != nil {
				return err
			}
			if len(q.Head) == 0 {
				yes := len(tuples) > 0
				resp.Boolean = &yes
				resp.Count = 0
				return nil
			}
			in := st.snap.DB().Interner()
			resp.Answers = make([][]string, len(tuples))
			for i, t := range tuples {
				names := make([]string, len(t))
				for j, c := range t {
					names[j] = in.Name(c)
				}
				resp.Answers[i] = names
			}
			resp.Count = len(resp.Answers)
			return nil
		}, resp, &resp.Envelope)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	key, err := req.canonical()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Envelope{Error: err.Error()})
		return
	}
	st := s.cur.Load()
	in := st.snap.DB().Interner()
	a, ok := in.Lookup(req.A)
	if !ok {
		writeJSON(w, http.StatusBadRequest, Envelope{Error: fmt.Sprintf("constant %q not in the database", req.A)})
		return
	}
	b, ok := in.Lookup(req.B)
	if !ok {
		writeJSON(w, http.StatusBadRequest, Envelope{Error: fmt.Sprintf("constant %q not in the database", req.B)})
		return
	}
	if a == b {
		writeJSON(w, http.StatusBadRequest, Envelope{Error: "the two constants must differ"})
		return
	}
	resp := &ExplainResponse{Pair: MergePair{A: req.A, B: req.B}}
	s.endpoint(w, r, "explain", req.TimeoutMS, key, st,
		func(ctx context.Context, st *epochState) error {
			xs, err := st.snap.ExplainMergesCtx(ctx, []eqrel.Pair{eqrel.MakePair(a, b)})
			if err != nil {
				return err
			}
			x := xs[0]
			resp.Status = x.Status.String()
			resp.Text = x.Format(in)
			s.auditExplain(in, metaFrom(r.Context()), x)
			return nil
		}, resp, &resp.Envelope)
}

// handleFacts serves POST /v1/facts: apply one mutation batch and
// advance the served epoch. Mutations bypass the endpoint helper — they
// are never cached, never pooled, and must publish the new epoch under
// the write lock so concurrent batches can't store epochs out of order.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	meta := metaFrom(r.Context())
	meta.endpoint = "facts"
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, Envelope{Error: "POST required"})
		return
	}
	if s.ms == nil {
		writeJSON(w, http.StatusForbidden, Envelope{Error: "server is read-only (start with mutations enabled to accept /v1/facts)"})
		return
	}
	if !s.admit(w, meta) {
		return
	}
	defer s.inflight.Done()
	var req FactsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.rec.Inc(obs.ServeRequests, 1)

	batch := core.Batch{Insert: factSpecs(req.Insert), Retract: factSpecs(req.Retract)}
	s.writeMu.Lock()
	// The mutation record is written inside ApplyDurable's precommit
	// hook: after the next epoch is fully built, before it is published.
	// In WAL mode the append fsyncs and a failure aborts the whole
	// apply — the server stays on the previous epoch and the client gets
	// a 500, so a 200 always means "recorded durably, then published".
	// The hook also keeps the log in epoch order under writeMu, which
	// replay depends on. In non-WAL mode the append is best-effort and
	// the hook never fails the batch.
	res, snap, err := s.ms.ApplyDurable(batch, func(res core.ApplyResult) error {
		return s.auditMutation(meta, req, res)
	})
	if err != nil {
		s.writeMu.Unlock()
		s.rec.Inc(obs.ServeErrors, 1)
		if errors.Is(err, errWAL) {
			meta.outcome = "error"
			writeJSON(w, http.StatusInternalServerError, Envelope{Error: err.Error()})
			return
		}
		meta.outcome = "bad_request"
		writeJSON(w, http.StatusBadRequest, Envelope{Error: err.Error()})
		return
	}
	s.cur.Store(s.newEpochState(snap))
	s.writeMu.Unlock()

	s.rec.Inc(obs.ServeMutations, 1)
	s.rec.Gauge(obs.ServeEpoch, int64(res.Epoch))
	writeJSON(w, http.StatusOK, FactsResponse{
		Epoch:       res.Epoch,
		Inserted:    res.Inserted,
		Retracted:   res.Retracted,
		Fingerprint: res.Fingerprint,
		DirtyShards: res.DirtyShards,
	})
}

// factSpecs converts wire facts to db fact specs.
func factSpecs(fs []FactJSON) []db.FactSpec {
	if len(fs) == 0 {
		return nil
	}
	out := make([]db.FactSpec, len(fs))
	for i, f := range fs {
		out[i] = db.FactSpec{Rel: f.Rel, Args: f.Args}
	}
	return out
}

// namePairs renders merge pairs with constant names.
func namePairs(in *db.Interner, pairs []eqrel.Pair) []MergePair {
	out := make([]MergePair, len(pairs))
	for i, p := range pairs {
		out[i] = MergePair{A: in.Name(p.A), B: in.Name(p.B)}
	}
	return out
}

// parseQuery parses (and caches) an ad-hoc conjunctive query against
// the request's epoch. Parsing interns any fresh query constants into a
// clone of the epoch's interner, so concurrent requests never mutate
// shared state; the cached *cq.CQ is shared so the session's
// prepared-plan cache hits on repeat queries. The cache key includes the
// epoch: a later epoch may intern a constant the query names under a
// different id than the parse-time clone assigned, so parses must not
// outlive their epoch.
func (s *Server) parseQuery(st *epochState, text string) (*cq.CQ, error) {
	d := st.snap.DB()
	key := strconv.FormatUint(st.snap.Epoch(), 10) + "\x00" + text
	s.queryMu.Lock()
	defer s.queryMu.Unlock()
	if q, ok := s.queries[key]; ok {
		return q, nil
	}
	q, err := rules.ParseQuery(text, d.Schema(), d.Interner().Clone(), s.cfg.Sims)
	if err != nil {
		return nil, err
	}
	if len(s.queries) >= maxQueryCache {
		// Rare: drop the whole cache rather than tracking recency for a
		// bounded, tiny map.
		s.queries = make(map[string]*cq.CQ)
	}
	s.queries[key] = q
	return q, nil
}
