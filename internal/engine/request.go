package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/trees"
)

// Request is the typed solve contract of the API v2: one instance plus
// everything the caller wants done with it. Build one with NewRequest
// and functional options; the zero value of every option field means
// "default" (solver "acyclic", no deadline, no verification, scheme
// only if the solver builds one anyway).
//
// A Request selects its algorithm either by registry name (Solver) or,
// when Solver is empty and Need is non-zero, by capability: the
// lexicographically first registered solver providing every bit of
// Need. Exactly this pair — Request in, Plan out — is what the wire
// codec (internal/wire) versions and the HTTP service
// (internal/service) exposes.
type Request struct {
	// Instance is the platform to solve. Required.
	Instance *platform.Instance
	// Solver is the registry name to dispatch to; empty means select by
	// Need (or the default "acyclic" when Need is zero too).
	Solver string
	// Need is the capability selector used when Solver is empty.
	Need Capability
	// Deadline bounds the solve's wall clock; expiry surfaces as
	// ErrCanceled (joined with context.DeadlineExceeded). Zero means no
	// per-request deadline beyond the caller's ctx.
	Deadline time.Duration
	// Tolerance, when positive, makes Execute verify the built scheme
	// and fail with ErrInfeasible if the verified throughput falls short
	// of the claimed one by more than Tolerance (relative). The check is
	// core.Scheme.Certify: exact for an acyclic scheme (its throughput is
	// its smallest receiver in-rate), max-flow for a cyclic one. Repair
	// and warm-start results are checked too.
	Tolerance float64
	// WantScheme requires an explicit rate matrix in the plan; solvers
	// without CapBuildsScheme fail the request with ErrInfeasible.
	WantScheme bool
	// WantTrees additionally decomposes the (acyclic) scheme into
	// weighted broadcast trees.
	WantTrees bool
	// ScheduleBlocks, when positive, also discretizes the decomposition
	// into a periodic block-transmission schedule with that many blocks.
	// A schedule carries one transmission per block and receiver, so
	// Execute refuses (ErrInfeasible, before solving) more blocks than
	// 2^18 transmissions divided by the receiver count.
	ScheduleBlocks int
	// PrevWord, when non-empty, warm-starts CapIncremental solvers from
	// a previous solution's encoding word (incremental repair after
	// platform churn). Other solvers ignore it.
	PrevWord core.Word
	// cache, when non-nil, memoizes this request's Execute through the
	// content-addressed plan cache (see Cache and WithCache). The field
	// is unexported so it never leaks into the canonical wire encoding:
	// identical requests hash identically with or without a cache
	// attached.
	cache *Cache
}

// RequestOption mutates a Request under construction.
type RequestOption func(*Request)

// NewRequest assembles a Request for the instance with the options
// applied in order.
func NewRequest(ins *platform.Instance, opts ...RequestOption) Request {
	req := Request{Instance: ins}
	for _, opt := range opts {
		opt(&req)
	}
	return req
}

// WithSolver selects the algorithm by registry name.
func WithSolver(name string) RequestOption { return func(r *Request) { r.Solver = name } }

// WithCapabilities selects the algorithm by capability instead of by
// name: the first registered solver (sorted by name) providing every
// bit of need.
func WithCapabilities(need Capability) RequestOption { return func(r *Request) { r.Need = need } }

// WithDeadline bounds the solve's wall clock.
func WithDeadline(d time.Duration) RequestOption { return func(r *Request) { r.Deadline = d } }

// WithTolerance enables post-solve verification within the given
// relative tolerance (see Request.Tolerance).
func WithTolerance(tol float64) RequestOption { return func(r *Request) { r.Tolerance = tol } }

// WithScheme requires an explicit rate matrix in the plan.
func WithScheme() RequestOption { return func(r *Request) { r.WantScheme = true } }

// WithTrees requires a broadcast-tree decomposition (implies a scheme).
func WithTrees() RequestOption { return func(r *Request) { r.WantTrees = true } }

// WithSchedule requires a periodic transmission schedule over the given
// number of stream blocks (implies trees and a scheme).
func WithSchedule(blocks int) RequestOption { return func(r *Request) { r.ScheduleBlocks = blocks } }

// WithWarmStart hands the solver a previous solution's encoding word
// for incremental repair after platform churn.
func WithWarmStart(prev core.Word) RequestOption { return func(r *Request) { r.PrevWord = prev } }

// WithCache routes the request through a content-addressed plan cache's
// plan path: an identical request already solved this way returns the
// memoized Plan (treat it as immutable) without touching a solver, and
// concurrent identical requests collapse onto one in-flight solve. A
// document entry (ExecuteRendered, Fill, a disk hit) does not answer
// it: the request solves and leaves that entry as it is. A nil cache
// leaves the request uncached.
func WithCache(c *Cache) RequestOption { return func(r *Request) { r.cache = c } }

// Plan is the uniform answer to a Request: the solver Result (solver
// name, throughput, word, scheme, degree statistics, eval counters,
// repair provenance) plus the request-level artifacts — the cyclic
// optimum T* for normalization, and the optional tree decomposition
// and periodic schedule.
type Plan struct {
	Result
	// TStar is the closed-form optimal cyclic throughput of the
	// instance (Lemma 5.1), the upper bound every result is normalized
	// against.
	TStar float64
	// Trees is the broadcast-tree decomposition of the scheme (only
	// with WantTrees or ScheduleBlocks).
	Trees []trees.Tree
	// Schedule is the periodic block-transmission plan (only with
	// ScheduleBlocks).
	Schedule *schedule.Plan
}

// Ratio is the plan's throughput normalized by the cyclic optimum T*
// (1.0 = the unbounded-degree bound is met; ≥ 5/7 for optimal acyclic
// solvers by Theorem 6.2).
func (p *Plan) Ratio() float64 {
	if p.TStar <= 0 {
		return 0
	}
	return p.Throughput / p.TStar
}

// maxScheduleTransmissions bounds a requested schedule: every block
// sends the stream to each receiver once, and the plan document lists
// each transmission, so 1<<18 of them make a document of about 25 MB.
// ScheduleBlocks comes from outside, and without the bound one small
// request could make the daemon allocate gigabytes.
const maxScheduleTransmissions = 1 << 18

// Execute runs a Request against the Default registry.
func Execute(ctx context.Context, req Request) (*Plan, error) {
	return Default.Execute(ctx, req)
}

// Execute resolves the request's solver, runs it (warm-starting from
// PrevWord when possible), verifies within Tolerance, and materializes
// the requested artifacts. All failures wrap a typed sentinel:
// ErrUnknownSolver, ErrInfeasible, or ErrCanceled. A request carrying
// a cache (WithCache) is answered from the memoized plan when an
// identical request was already solved.
func (r *Registry) Execute(ctx context.Context, req Request) (*Plan, error) {
	if req.cache != nil {
		return req.cache.execute(ctx, r, req)
	}
	return r.executeUncached(ctx, req)
}

// executeUncached is the always-solve Execute path; cache misses come
// back through here (it ignores req.cache, so the cache never
// re-enters itself).
func (r *Registry) executeUncached(ctx context.Context, req Request) (*Plan, error) {
	if req.Instance == nil {
		return nil, fmt.Errorf("%w: request has no instance", ErrInfeasible)
	}
	s, err := r.resolve(req)
	if err != nil {
		return nil, err
	}
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, Canceled(err)
	}

	needScheme := req.WantScheme || req.WantTrees || req.ScheduleBlocks > 0
	if needScheme && !s.Capabilities().Has(CapBuildsScheme) {
		return nil, fmt.Errorf("%w: solver %q does not build schemes", ErrInfeasible, s.Name())
	}
	// Divided, not multiplied, so no block count can overflow.
	if receivers := req.Instance.Total() - 1; req.ScheduleBlocks > maxScheduleTransmissions/max(receivers, 1) {
		return nil, fmt.Errorf("%w: %d schedule blocks for %d receivers exceed the bound of %d transmissions",
			ErrInfeasible, req.ScheduleBlocks, receivers, maxScheduleTransmissions)
	}

	res, err := solveRequest(ctx, s, req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, Canceled(ctxErr)
		}
		return nil, err
	}
	plan := &Plan{Result: res, TStar: core.OptimalCyclicThroughput(req.Instance)}

	if needScheme && plan.Scheme == nil {
		return nil, fmt.Errorf("%w: solver %q returned no scheme for this instance", ErrInfeasible, s.Name())
	}
	if req.Tolerance > 0 && plan.Scheme != nil {
		ws := AcquireWorkspace()
		verified, ok := plan.Scheme.Certify(plan.Throughput, req.Tolerance, ws)
		ReleaseWorkspace(ws)
		if !ok {
			return nil, fmt.Errorf("%w: scheme verifies at %g, below claimed %g beyond tolerance %g",
				ErrInfeasible, verified, plan.Throughput, req.Tolerance)
		}
		plan.Verified = verified
	}
	if req.WantTrees || req.ScheduleBlocks > 0 {
		if !plan.Scheme.IsAcyclic() {
			return nil, fmt.Errorf("%w: tree decomposition needs an acyclic scheme (solver %q built a cyclic one)",
				ErrInfeasible, s.Name())
		}
		if plan.Trees, err = trees.Decompose(ctx, plan.Scheme, plan.Throughput); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, Canceled(ctxErr)
			}
			return nil, fmt.Errorf("%w: decomposing scheme: %v", ErrInfeasible, err)
		}
	}
	if req.ScheduleBlocks > 0 {
		if plan.Schedule, err = schedule.Build(plan.Scheme, plan.Throughput, plan.Trees, req.ScheduleBlocks); err != nil {
			return nil, fmt.Errorf("%w: building %d-block schedule: %v", ErrInfeasible, req.ScheduleBlocks, err)
		}
	}
	return plan, nil
}

// resolve picks the request's solver: by name, by capability selector,
// or the default algorithm.
func (r *Registry) resolve(req Request) (*Solver, error) {
	if req.Solver != "" {
		return r.Get(req.Solver)
	}
	need := req.Need
	if req.WantScheme || req.WantTrees || req.ScheduleBlocks > 0 {
		need |= CapBuildsScheme
	}
	if need == 0 {
		return r.Get("acyclic")
	}
	if sel := r.Select(need); len(sel) > 0 {
		return sel[0], nil
	}
	return nil, fmt.Errorf("%w: no registered solver provides %s", ErrUnknownSolver, need)
}

// solveRequest runs the solver on a pooled workspace, through its
// repair entry point when the request carries a warm-start word.
func solveRequest(ctx context.Context, s *Solver, req Request) (Result, error) {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	return s.run(ctx, req.Instance, req.PrevWord, len(req.PrevWord) > 0, ws)
}

// ExecuteBatch runs one request per instance-shaped entry on the
// engine worker pool with deterministic ordering (plans[i] answers
// reqs[i]); the first error aborts the sweep.
func ExecuteBatch(ctx context.Context, reqs []Request, opts BatchOptions) ([]*Plan, error) {
	return Default.ExecuteBatch(ctx, reqs, opts)
}

// ExecuteBatch is ExecuteBatch against an explicit registry.
func (r *Registry) ExecuteBatch(ctx context.Context, reqs []Request, opts BatchOptions) ([]*Plan, error) {
	plans := make([]*Plan, len(reqs))
	err := ForEach(ctx, len(reqs), opts.Workers, func(ctx context.Context, i int) error {
		p, err := r.Execute(ctx, reqs[i])
		if err != nil {
			return fmt.Errorf("engine: request %d: %w", i, err)
		}
		plans[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return plans, nil
}
