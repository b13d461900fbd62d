// Package service exposes the Request/Plan API over HTTP — the
// broadcast-planning daemon behind `bmpcast serve`. Endpoints:
//
//	POST /v1/solve    one wire.Request  → one wire.Plan
//	POST /v1/batch    {"v":1,"requests":[...]} → {"v":1,"plans":[...]}
//	POST /v1/jobs     the same batch document → a job id immediately;
//	                  the items solve asynchronously on the worker gate
//	GET  /v1/jobs/{id}         job status/progress document
//	GET  /v1/jobs/{id}/stream  per-item Plans as NDJSON in item order
//	                  as they complete; resumable via ?from=<index>
//	POST /v1/session  stateful churn re-solve: {"op":"open"} issues a
//	                  session id backed by a warm engine.Session;
//	                  {"op":"resolve"} re-solves the posted instance
//	                  incrementally; {"op":"close"} returns the session
//	                  statistics and releases the workspace
//	GET  /healthz     liveness probe ("ok")
//	GET  /metrics     plain-text counters (requests, errors, inflight,
//	                  open sessions, jobs, cache hits/misses, leased
//	                  workspaces)
//
// All solve work funnels through one bounded worker gate (Config.
// Workers permits, taken only through acquireCtx), so a burst of
// concurrent requests shares the engine's pooled workspaces instead of
// growing them without bound — the zero-allocation hot path survives
// under load, and engine.LeasedWorkspaces() returns to its baseline
// once the last response is written and every session is closed.
//
// /v1/batch and /v1/jobs share one item fan-out, solveItems, built on
// engine.ForEach: at most Config.Workers workers per call claim items
// in index order, and each running item holds one gate permit while it
// solves. A batch stops at its first failure and answers with the
// causing error, never with the cancellations that failure triggers in
// its siblings; a job records every item's outcome and, when Close
// cancels it, gives each item no worker claimed a canceled line.
//
// Every stateless solve (solve, batch and job items, a cluster
// non-owner's local fallback) takes one path, solveRendered, and its
// answer is the canonical plan document: a pure function of the
// request, memoized through the document path of the server's one
// content-addressed engine.Cache (engine.DefaultCacheEntries entries),
// keyed by the SHA-256 of the request's canonical wire encoding.
// Resubmitting an identical request returns the cached document —
// byte-identical bytes, no solver or encoder work — and concurrent
// identical requests collapse onto one in-flight solve; with
// Config.StoreDir, misses read and persist documents in the plan store.
// A batch answer and a job's NDJSON lines are spliced from the item
// documents (wire.EncodeBatchPlans, wire.EncodeJobLine).
// /v1/solve first looks up the SHA-256 of the raw body in that cache,
// before decoding: a body sent in canonical encoding is its own
// content address. It labels each response with an X-Bmpcast-Cache:
// hit|warm|miss|forward header (forward: a cluster peer owns the key
// and answered); /metrics exports the counters. Sessions are stateful
// and never cached.
//
// Responses are canonical wire documents: identical requests produce
// byte-identical bodies (golden-tested, and pinned by the CI service
// smoke step). Errors are JSON too — wire.ErrorDoc, {"v":1,"code":...,
// "error":...} with the status code and machine-readable code mapped
// from the engine's typed sentinels (ErrUnknownSolver/ErrMalformed →
// 400/422, ErrInfeasible → 422, ErrCanceled → 504), so SDK clients
// reconstruct errors.Is-able sentinels across the network.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/planstore"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// Workers caps the number of solves running concurrently across all
	// endpoints; ≤ 0 means 4 (a small multiple of the 1–2 vCPUs the
	// service is benchmarked on).
	Workers int
	// Registry resolves solver names; nil means engine.Default.
	Registry *engine.Registry
	// Self is this replica's advertised base URL (e.g.
	// "http://10.0.0.1:8080"). Non-empty Self enables the cluster layer:
	// solves route by ring ownership and /v1/cluster/* membership
	// endpoints activate. Empty means standalone.
	Self string
	// Peers seeds the membership ring (additional replicas beyond
	// Self); Server.JoinCluster announces this replica to them.
	Peers []string
	// HedgeAfter is how long a forwarded solve waits on the key's owner
	// before racing a local solve against it. 0 means DefaultHedgeAfter;
	// negative disables the timer (the local fallback then runs only
	// when the owner fails outright).
	HedgeAfter time.Duration
	// StoreDir, when non-empty, persists the plan cache to an
	// append-only store in this directory (created if absent): solved
	// plans spill to disk as canonical wire documents, identical
	// requests are answered byte-identical across restarts, and similar
	// requests warm-start the repair path (X-Bmpcast-Cache: warm). In
	// cluster mode the store is replica-local: the ring already
	// partitions keys, so each replica persists only the shard it owns.
	// Use NewServer to surface store open errors.
	StoreDir string
	// SessionTTL reaps sessions idle longer than this. A client that
	// never learns its session id — the open reply lost to a dropped
	// connection — can otherwise pin a leased workspace forever (the
	// chaos soak found exactly that). ≤ 0 means DefaultSessionTTL.
	SessionTTL time.Duration
}

// DefaultSessionTTL is how long an untouched session survives before
// the reaper returns its workspace to the engine pool.
const DefaultSessionTTL = 15 * time.Minute

// maxBodyBytes bounds request bodies, bodyPrealloc what readBody sizes
// up front for a declared length, and maxPooledBody the buffers it pools.
const maxBodyBytes, bodyPrealloc, maxPooledBody = 8 << 20, 64 << 10, 1 << 20

var bodies sync.Pool // readBody's buffers, *bytes.Buffer

// maxJobs caps how many finished jobs are retained for status and
// stream reads (oldest finished evicted first; running jobs are never
// evicted).
const maxJobs = 64

// Server is the broadcast-planning HTTP service. Create with New; it
// implements http.Handler. Close releases all open sessions, cancels
// running jobs and waits for their workers to drain.
type Server struct {
	cfg   Config
	gate  chan struct{}
	mux   *http.ServeMux
	cache *engine.Cache
	store *planstore.Store // nil without Config.StoreDir
	node  *cluster.Node    // nil when standalone

	peerMu sync.Mutex
	peers  map[string]*client.Client // lazily built per-member SDK clients

	forwardsN     atomic.Int64 // solves routed to a peer owner
	hedgesN       atomic.Int64 // local fallbacks launched
	fallbackWinsN atomic.Int64 // forwarded solves answered locally
	fillsSentN    atomic.Int64 // back-fills delivered to owners
	fillsRecvN    atomic.Int64 // back-fills stored in our cache
	peerErrsN     atomic.Int64 // failed peer calls (any kind)

	jobsCtx    context.Context // canceled by Close; parents all job solves
	jobsCancel context.CancelFunc
	jobsWG     sync.WaitGroup

	mu        sync.Mutex
	sessions  map[string]*session
	nextID    int64
	closed    bool
	jobs      map[string]*job
	jobOrder  []string // creation order, for finished-job eviction
	nextJobID int64
	requests  map[string]*atomic.Int64 // per-endpoint request counters
	errorsN   atomic.Int64
	inflightN atomic.Int64
	reapsN    atomic.Int64 // idle sessions reclaimed by the reaper
}

// session serializes access to one engine.Session (sessions are
// single-threaded by contract; concurrent resolves on one id queue up).
type session struct {
	mu   sync.Mutex
	ses  *engine.Session
	last atomic.Int64 // UnixNano of the last lookup; read by the reaper
}

// touch marks the session as recently used.
func (ss *session) touch() { ss.last.Store(time.Now().UnixNano()) }

// New builds a Server. It panics when the configuration cannot be
// realized — only possible with a StoreDir that fails to open; use
// NewServer to handle that as an error.
func New(cfg Config) *Server {
	s, err := NewServer(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewServer builds a Server, surfacing plan-store open errors (a
// corrupt-beyond-recovery log, an unwritable directory). Without
// Config.StoreDir it never fails.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Registry == nil {
		cfg.Registry = engine.Default
	}
	cfg.Self = cluster.Normalize(cfg.Self)
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	s := &Server{
		cfg:      cfg,
		gate:     make(chan struct{}, cfg.Workers),
		mux:      http.NewServeMux(),
		cache:    engine.NewCache(engine.DefaultCacheEntries, wire.EncodeRequest),
		sessions: make(map[string]*session),
		jobs:     make(map[string]*job),
		peers:    make(map[string]*client.Client),
		requests: make(map[string]*atomic.Int64),
	}
	if cfg.Self != "" {
		s.node = cluster.NewNode(cfg.Self, cfg.Peers)
	}
	if cfg.StoreDir != "" {
		store, err := planstore.Open(planstore.Config{Dir: cfg.StoreDir})
		if err != nil {
			return nil, fmt.Errorf("service: opening plan store: %w", err)
		}
		s.store = store
		s.cache.SetStore(store)
	}
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())
	s.jobsWG.Add(1)
	go s.reapSessions(cfg.SessionTTL)
	for _, ep := range []string{
		"solve", "batch", "jobs", "jobstream", "session", "healthz", "metrics", "debugleaks",
		"clustersolve", "clusterfill", "clustermembers", "clusterjoin", "clusterleave",
	} {
		s.requests[ep] = new(atomic.Int64)
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("POST /v1/session", s.handleSession)
	s.mux.HandleFunc("POST /v1/cluster/solve", s.handleClusterSolve)
	s.mux.HandleFunc("POST /v1/cluster/fill", s.handleClusterFill)
	s.mux.HandleFunc("GET /v1/cluster/members", s.handleClusterMembers)
	s.mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
	s.mux.HandleFunc("POST /v1/cluster/leave", s.handleClusterLeave)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/leaks", s.handleDebugLeaks)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases every open session's workspace back to the engine
// pool, cancels running jobs and waits for their workers to finish.
// The server rejects session opens and job submissions afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	open := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		open = append(open, ss)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	for _, ss := range open {
		ss.mu.Lock()
		ss.ses.Close()
		ss.mu.Unlock()
	}
	s.jobsCancel()
	s.jobsWG.Wait()
	if s.store != nil {
		_ = s.store.Close()
	}
}

// reapSessions closes sessions idle beyond ttl, returning their
// workspaces to the engine pool. It runs for the server's lifetime
// (stopped by Close through jobsCtx) and exists because a lost open
// reply strands a session no client can ever name, let alone close.
func (s *Server) reapSessions(ttl time.Duration) {
	defer s.jobsWG.Done()
	period := ttl / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.jobsCtx.Done():
			return
		case <-tick.C:
		}
		cut := time.Now().Add(-ttl).UnixNano()
		s.mu.Lock()
		var idle []*session
		for id, ss := range s.sessions {
			if ss.last.Load() < cut {
				idle = append(idle, ss)
				delete(s.sessions, id)
			}
		}
		s.mu.Unlock()
		for _, ss := range idle {
			ss.mu.Lock() // waits out any resolve still holding the session
			ss.ses.Close()
			ss.mu.Unlock()
			s.reapsN.Add(1)
		}
	}
}

// SessionReaps reports how many idle sessions the reaper reclaimed.
func (s *Server) SessionReaps() int64 { return s.reapsN.Load() }

// OpenSessions reports how many sessions are currently open.
func (s *Server) OpenSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// acquireCtx takes a worker permit, honoring context cancellation.
func (s *Server) acquireCtx(ctx context.Context) error {
	if f, ok := chaos.Hit(chaos.GateStarve); ok {
		// Starved gate: the permit takes f.Delay longer to arrive, but
		// cancellation must still win immediately.
		if err := chaos.Sleep(ctx, f.Delay); err != nil {
			return err
		}
	}
	select {
	case s.gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.gate }

func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errorsN.Add(1)
	doc, mErr := wire.Marshal(wire.NewErrorDoc(err))
	if mErr != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(wire.StatusFor(err))
	_, _ = w.Write(doc)
}

func (s *Server) reply(w http.ResponseWriter, body []byte) {
	if _, ok := chaos.Hit(chaos.ConnDrop); ok {
		// Abort the connection instead of answering; ErrAbortHandler is
		// net/http's sanctioned way to drop a client mid-request.
		panic(http.ErrAbortHandler)
	}
	// A declared length keeps net/http from chunking an answer past
	// its 2 KB buffer, which costs one more write for the terminator.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// readBody drains the (size-capped) request body into a pooled buffer
// with room for its declared length, plus the final EOF read. A client
// can declare any length, so the up-front size stops at bodyPrealloc;
// a longer or undeclared body grows the buffer by doubling. The caller
// calls release once it has decoded the body, and nothing it decoded
// may alias the body: the buffer then serves another request.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, release func(), err error) {
	size := bytes.MinRead + int(min(max(r.ContentLength, 0), bodyPrealloc))
	buf, _ := bodies.Get().(*bytes.Buffer)
	if buf == nil || buf.Cap() < size {
		buf = bytes.NewBuffer(make([]byte, 0, size))
	}
	buf.Reset()
	release = func() {
		if buf.Cap() <= maxPooledBody {
			bodies.Put(buf)
		}
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		release()
		return nil, nil, fmt.Errorf("%w: reading body: %v", wire.ErrMalformed, err)
	}
	return buf.Bytes(), release, nil
}

func (s *Server) track(ep string) func() {
	s.requests[ep].Add(1)
	s.inflightN.Add(1)
	return func() { s.inflightN.Add(-1) }
}

// ---------------------------------------------------------------------------
// /v1/solve

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	defer s.track("solve")()
	s.serveSolve(w, r, true)
}

// serveSolve answers one solve. forwardable distinguishes the public
// /v1/solve (clustered replicas route it by ring ownership) from the
// peer-to-peer /v1/cluster/solve (always answered locally, so two
// replicas can never chase a key in a loop).
func (s *Server) serveSolve(w http.ResponseWriter, r *http.Request, forwardable bool) {
	body, release, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	// Content-address fast path: a body sent in canonical encoding (as
	// the SDK, peers and loadgen send it) hashes to its own cache key,
	// so a repeat is answered from memory without decoding or taking a
	// worker slot. Any other spelling misses here and reaches the same
	// entry through decode and ExecuteRendered, still labelled hit.
	if out, ok := s.cache.Rendered(sha256.Sum256(body)); ok {
		release()
		w.Header().Set("X-Bmpcast-Cache", "hit")
		s.reply(w, out)
		return
	}
	req, err := wire.DecodeRequest(body)
	release()
	if err != nil {
		s.fail(w, err)
		return
	}
	if forwardable && s.clustered() {
		out, label, err := s.maybeForward(r, req)
		if err != nil {
			s.fail(w, err)
			return
		}
		if label != "" {
			w.Header().Set("X-Bmpcast-Cache", label)
			s.reply(w, out)
			return
		}
	}
	if err := s.acquireCtx(r.Context()); err != nil {
		s.fail(w, engine.Canceled(err))
		return
	}
	out, info, err := s.solveRendered(r.Context(), req)
	s.release()
	if err != nil {
		s.fail(w, err)
		return
	}
	switch {
	case info.Hit:
		w.Header().Set("X-Bmpcast-Cache", "hit")
	case info.Warm:
		// Solved, but warm-started from a persisted neighbor and the
		// repair held — the store's middle latency tier.
		w.Header().Set("X-Bmpcast-Cache", "warm")
	default:
		w.Header().Set("X-Bmpcast-Cache", "miss")
	}
	s.reply(w, out)
}

// solveRendered answers one solve as canonical document bytes through
// the cache's document path: a hit skips the solver and the encoder, a
// store-backed miss may warm-start.
func (s *Server) solveRendered(ctx context.Context, req engine.Request) ([]byte, engine.RenderedInfo, error) {
	if f, ok := chaos.Hit(chaos.SolveDelay); ok {
		if err := chaos.Sleep(ctx, f.Delay); err != nil {
			return nil, engine.RenderedInfo{}, engine.Canceled(err)
		}
	}
	return s.cache.ExecuteRendered(ctx, s.cfg.Registry, req, wire.EncodePlan)
}

// ---------------------------------------------------------------------------
// /v1/batch and the item fan-out it shares with /v1/jobs

// readBatch reads and decodes a batch document for /v1/batch and
// /v1/jobs alike. what names the document in error messages.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request, what string) ([]engine.Request, error) {
	body, release, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	defer release()
	return wire.DecodeBatch(body, what)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer s.track("batch")()
	reqs, err := s.readBatch(w, r, "batch request")
	if err != nil {
		s.fail(w, err)
		return
	}
	docs := make([][]byte, len(reqs))
	err = s.solveItems(r.Context(), reqs, func(i int, doc []byte, err error) error {
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		docs[i] = doc
		return nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	s.reply(w, wire.EncodeBatchPlans(docs))
}

// solveItems is the one item fan-out behind /v1/batch and /v1/jobs. It
// runs engine.ForEach with at most Config.Workers workers, which claim
// items in index order; each running item takes one gate permit through
// acquireCtx, solves through solveRendered as /v1/solve does, releases
// the permit and hands its canonical plan document to done. A non-nil
// return from done cancels the items not yet claimed, and solveItems
// returns the causing error rather than the cancellations it set off.
// When ctx ends first the result is ErrCanceled joined with the context
// error.
func (s *Server) solveItems(ctx context.Context, reqs []engine.Request, done func(i int, doc []byte, err error) error) error {
	err := engine.ForEach(ctx, len(reqs), s.cfg.Workers, func(ctx context.Context, i int) error {
		if err := s.acquireCtx(ctx); err != nil {
			return done(i, nil, engine.Canceled(err))
		}
		doc, _, err := s.solveRendered(ctx, reqs[i])
		s.release()
		return done(i, doc, err)
	})
	if err != nil && ctx.Err() != nil {
		return engine.Canceled(err)
	}
	return err
}

// ---------------------------------------------------------------------------
// /v1/session

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	defer s.track("session")()
	body, release, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var sreq wire.SessionRequest
	err = wire.Unmarshal(body, &sreq, "session request")
	release()
	if err != nil {
		s.fail(w, err)
		return
	}
	if sreq.V != wire.Version {
		s.fail(w, fmt.Errorf("%w: session request has v=%d", wire.ErrVersion, sreq.V))
		return
	}
	switch sreq.Op {
	case "open":
		s.sessionOpen(w, sreq)
	case "resolve":
		s.sessionResolve(w, r, sreq)
	case "close":
		s.sessionClose(w, sreq)
	default:
		s.fail(w, fmt.Errorf("%w: unknown session op %q (open|resolve|close)", wire.ErrMalformed, sreq.Op))
	}
}

func (s *Server) sessionOpen(w http.ResponseWriter, sreq wire.SessionRequest) {
	solver := sreq.Solver
	if solver == "" {
		solver = "acyclic"
	}
	ses, err := engine.NewSessionFor(s.cfg.Registry, solver)
	if err != nil {
		s.fail(w, err)
		return
	}
	if sreq.NoRepair {
		ses.SetRepair(false)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ses.Close()
		s.fail(w, fmt.Errorf("%w: server is shutting down", engine.ErrCanceled))
		return
	}
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	ss := &session{ses: ses}
	ss.touch()
	s.sessions[id] = ss
	s.mu.Unlock()
	s.replyDoc(w, wire.SessionReply{V: wire.Version, Session: id, Solver: ses.Solver()})
}

func (s *Server) lookup(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.sessions[id]
	if ss == nil {
		return nil, fmt.Errorf("%w: no open session %q", wire.ErrMalformed, id)
	}
	ss.touch()
	return ss, nil
}

func (s *Server) sessionResolve(w http.ResponseWriter, r *http.Request, sreq wire.SessionRequest) {
	ss, err := s.lookup(sreq.Session)
	if err != nil {
		s.fail(w, err)
		return
	}
	ins, err := sreq.Instance.Instance()
	if err != nil {
		s.fail(w, err)
		return
	}
	// Serialize on the session first, then take a worker permit: a
	// queue of resolves on one (single-threaded) session must not sit
	// on gate permits it cannot use while other endpoints starve.
	ss.mu.Lock()
	if err := s.acquireCtx(r.Context()); err != nil {
		ss.mu.Unlock()
		s.fail(w, engine.Canceled(err))
		return
	}
	res, err := ss.ses.Resolve(r.Context(), ins)
	s.release()
	stats := sim.Summarize(ss.ses.Stats())
	solver := ss.ses.Solver()
	ss.mu.Unlock()
	if err != nil {
		// Session.Resolve surfaces raw context errors; tag them so the
		// status maps to 504 like every other canceled solve.
		if r.Context().Err() != nil {
			err = engine.Canceled(err)
		}
		s.fail(w, err)
		return
	}
	plan := wire.FromPlan(&engine.Plan{Result: res, TStar: core.OptimalCyclicThroughput(ins)})
	s.replyDoc(w, wire.SessionReply{
		V: wire.Version, Session: sreq.Session, Solver: solver, Plan: &plan, Stats: &stats,
	})
}

func (s *Server) sessionClose(w http.ResponseWriter, sreq wire.SessionRequest) {
	s.mu.Lock()
	ss := s.sessions[sreq.Session]
	delete(s.sessions, sreq.Session)
	s.mu.Unlock()
	if ss == nil {
		s.fail(w, fmt.Errorf("%w: no open session %q", wire.ErrMalformed, sreq.Session))
		return
	}
	ss.mu.Lock()
	stats := sim.Summarize(ss.ses.Stats())
	solver := ss.ses.Solver()
	ss.ses.Close()
	ss.mu.Unlock()
	s.replyDoc(w, wire.SessionReply{V: wire.Version, Session: sreq.Session, Solver: solver, Stats: &stats})
}

func (s *Server) replyDoc(w http.ResponseWriter, doc any) {
	out, err := wire.Marshal(doc)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.reply(w, out)
}

// ---------------------------------------------------------------------------
// /healthz and /metrics

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	defer s.track("healthz")()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	defer s.track("metrics")()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	eps := make([]string, 0, len(s.requests))
	for ep := range s.requests {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		fmt.Fprintf(w, "bmpcast_requests_total{endpoint=%q} %d\n", ep, s.requests[ep].Load())
	}
	fmt.Fprintf(w, "bmpcast_errors_total %d\n", s.errorsN.Load())
	fmt.Fprintf(w, "bmpcast_inflight %d\n", s.inflightN.Load())
	fmt.Fprintf(w, "bmpcast_sessions_open %d\n", s.OpenSessions())
	fmt.Fprintf(w, "bmpcast_sessions_reaped_total %d\n", s.reapsN.Load())
	fmt.Fprintf(w, "bmpcast_workspaces_leased %d\n", engine.LeasedWorkspaces())
	fmt.Fprintf(w, "bmpcast_workspace_grows_total %d\n", engine.WorkspaceGrows())
	fmt.Fprintf(w, "bmpcast_worker_permits %d\n", s.cfg.Workers)
	fmt.Fprintf(w, "bmpcast_goroutines %d\n", runtime.NumGoroutine())
	armed := 0
	if chaos.Armed() {
		armed = 1
	}
	fmt.Fprintf(w, "bmpcast_chaos_armed %d\n", armed)
	for _, pc := range chaos.InjectedTotals() {
		fmt.Fprintf(w, "bmpcast_chaos_injected_total{point=%q} %d\n", pc.Point, pc.Count)
	}
	cs := s.cache.Stats()
	fmt.Fprintf(w, "bmpcast_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "bmpcast_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "bmpcast_cache_inflight_shared_total %d\n", cs.Shared)
	fmt.Fprintf(w, "bmpcast_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "bmpcast_cache_entries %d\n", cs.Entries)
	if s.store != nil {
		st := s.store.Stats()
		fmt.Fprintf(w, "bmpcast_store_entries %d\n", st.Entries)
		fmt.Fprintf(w, "bmpcast_store_bytes %d\n", st.Bytes)
		fmt.Fprintf(w, "bmpcast_store_disk_hits %d\n", st.DiskHits)
		fmt.Fprintf(w, "bmpcast_store_warm_hits %d\n", st.WarmHits)
		fmt.Fprintf(w, "bmpcast_store_fallbacks %d\n", st.Fallbacks)
		fmt.Fprintf(w, "bmpcast_store_truncated_records %d\n", st.Truncated)
	}
	submitted, running := s.jobCounts()
	fmt.Fprintf(w, "bmpcast_jobs_total %d\n", submitted)
	fmt.Fprintf(w, "bmpcast_jobs_running %d\n", running)
	if s.clustered() {
		fmt.Fprintf(w, "bmpcast_cluster_members %d\n", len(s.node.Members()))
		fmt.Fprintf(w, "bmpcast_cluster_ring_version %d\n", s.node.Version())
		fmt.Fprintf(w, "bmpcast_cluster_forwards_total %d\n", s.forwardsN.Load())
		fmt.Fprintf(w, "bmpcast_cluster_hedges_total %d\n", s.hedgesN.Load())
		fmt.Fprintf(w, "bmpcast_cluster_local_fallbacks_total %d\n", s.fallbackWinsN.Load())
		fmt.Fprintf(w, "bmpcast_cluster_fills_sent_total %d\n", s.fillsSentN.Load())
		fmt.Fprintf(w, "bmpcast_cluster_fills_received_total %d\n", s.fillsRecvN.Load())
		fmt.Fprintf(w, "bmpcast_cluster_peer_errors_total %d\n", s.peerErrsN.Load())
	}
}

// LeaksDoc is the wire form of GET /debug/leaks — the leak signals the
// soak harness asserts return to baseline, as one machine-readable
// document instead of grep over /metrics.
type LeaksDoc struct {
	V                int              `json:"v"`
	Goroutines       int              `json:"goroutines"`
	LeasedWorkspaces int64            `json:"leased_workspaces"`
	SessionsOpen     int              `json:"sessions_open"`
	JobsRunning      int              `json:"jobs_running"`
	Inflight         int64            `json:"inflight"`
	ChaosArmed       bool             `json:"chaos_armed"`
	ChaosInjected    map[string]int64 `json:"chaos_injected,omitempty"`
}

func (s *Server) handleDebugLeaks(w http.ResponseWriter, _ *http.Request) {
	defer s.track("debugleaks")()
	_, running := s.jobCounts()
	doc := LeaksDoc{
		V:                wire.Version,
		Goroutines:       runtime.NumGoroutine(),
		LeasedWorkspaces: engine.LeasedWorkspaces(),
		SessionsOpen:     s.OpenSessions(),
		JobsRunning:      running,
		// The inflight counter includes this very request; report the
		// count as seen by everyone else.
		Inflight:   s.inflightN.Load() - 1,
		ChaosArmed: chaos.Armed(),
	}
	for _, pc := range chaos.InjectedTotals() {
		if pc.Count > 0 {
			if doc.ChaosInjected == nil {
				doc.ChaosInjected = make(map[string]int64)
			}
			doc.ChaosInjected[string(pc.Point)] = pc.Count
		}
	}
	s.replyDoc(w, doc)
}

// CacheStats snapshots the plan cache's counters — the cluster tests
// prove "solved once cluster-wide" by summing Misses across replicas.
func (s *Server) CacheStats() engine.CacheStats { return s.cache.Stats() }

// StoreStats snapshots the plan store's counters (zero value without
// Config.StoreDir).
func (s *Server) StoreStats() planstore.Stats {
	if s.store == nil {
		return planstore.Stats{}
	}
	return s.store.Stats()
}
