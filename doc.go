// Package repro is a Go reproduction of
//
//	"Broadcasting on Large Scale Heterogeneous Platforms under the
//	 Bounded Multi-Port Model"
//	Beaumont, Bonichon, Eyraud-Dubois, Uznański, Agrawal
//	(IPDPS 2010; journal version IEEE TPDS 25(10), 2014).
//
// The paper studies one-to-all broadcast of a large message (or live
// stream) on Internet-scale platforms under the LastMile / bounded
// multi-port model: every node has an outgoing-bandwidth cap, nodes
// behind NATs or firewalls ("guarded") cannot talk to each other
// directly, and the number of simultaneous connections per node (its
// outdegree) should stay near the lower bound ⌈b_i/T⌉.
//
// This root package is the public facade: it re-exports the instance
// model, the scheme type and every algorithm of the paper from the
// internal packages. The three headline entry points are
//
//	T      := repro.OptimalCyclicThroughput(ins)        // Lemma 5.1 closed form
//	Tac, w := repro.OptimalAcyclicThroughput(ins)       // Theorem 4.1 dichotomic search
//	Tac, s := repro.SolveAcyclic(ins)                   // + Lemma 4.6 low-degree overlay
//
// together with repro.CyclicOpen (Theorem 5.2's cyclic constructor for
// open-only platforms), repro.DecomposeTrees (broadcast-tree packing of
// acyclic overlays) and repro.Simulate (Massoulié-style randomized
// broadcast on the built overlay).
//
// The stable public contract is the v2 Request/Plan API: one typed
// request (instance + solver name or capability selector + functional
// options) in, one plan (throughput, scheme, optional broadcast-tree
// decomposition and periodic schedule, eval counters, repair
// provenance) out, with typed sentinel errors for errors.Is branching,
//
//	plan, err := repro.Execute(ctx, repro.NewRequest(ins,
//	    repro.WithSolver("acyclic"),     // or WithCapabilities(repro.CapExact|...)
//	    repro.WithTolerance(1e-9),       // verify the throughput claim
//	    repro.WithSchedule(20),          // scheme + trees + 20-block schedule
//	))
//	switch {
//	case errors.Is(err, repro.ErrUnknownSolver): // fix the request
//	case errors.Is(err, repro.ErrInfeasible):    // cannot be satisfied as stated
//	case errors.Is(err, repro.ErrCanceled):      // deadline or cancellation
//	}
//
// and it is exactly what the versioned JSON codec (internal/wire,
// "v": 1 documents) serializes and the `bmpcast serve` HTTP service
// (internal/service) exposes: POST /v1/solve, /v1/batch, /v1/jobs
// (async batch with a status endpoint and an order-preserving,
// cursor-resumable NDJSON plan stream) and /v1/session plus /healthz
// and /metrics. Identical requests are answered from a
// content-addressed plan cache (repro.NewPlanCache + repro.WithCache
// locally; on by default in the service), and the exported repro/client
// package is the typed Go SDK over the same wire contract — remote
// failures map back onto the sentinels above, so the errors.Is
// branching works across the network.
//
// Every algorithm is also reachable through the unified solver engine
// (internal/engine): a named registry of uniform, context-aware solvers
// plus a parallel batch runner for instance sweeps,
//
//	res, _  := repro.Solve(ctx, "acyclic", ins)          // registry dispatch
//	all     := repro.SolverNames()                       // the catalogue
//	results, _ := repro.SolveBatch(ctx, "acyclic-search", instances, repro.BatchOptions{})
//
// with capability filtering via repro.SelectSolvers (exact vs anytime,
// handles-guarded, builds-scheme, cyclic), and dynamic platforms
// re-solve event-by-event on warm sessions (repro.NewSolveSession,
// incremental repair for CapIncremental solvers).
//
// See DESIGN.md for the system inventory (including "API v2 and the
// service layer": the Request/Plan contract, the wire versioning
// policy and the deprecation path for the flat facade), EXPERIMENTS.md
// for the paper-versus-measured record of every table and figure plus
// a curl-able service example, and the examples/ directory for
// runnable walk-throughs.
package repro
