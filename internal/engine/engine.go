// Package engine is the unified dispatch layer over every broadcast
// algorithm of the paper. It exposes three things:
//
//   - Solver, one concrete type (Name, Capabilities, context-aware
//     Solve) that every algorithm of internal/core is registered as,
//     built by NewSolver or NewIncrementalSolver;
//   - Registry, a named catalogue of solvers with capability filtering —
//     the Default registry holds every paper algorithm, so CLIs,
//     experiments and benchmarks resolve algorithms by name instead of
//     hard-wiring imports;
//   - Batch / ForEach, a context-aware worker pool (sized by GOMAXPROCS)
//     with deterministic result ordering for instance sweeps.
//
// The experiment drivers (Figure 7 grid, Figure 19 cells), cmd/bmpcast's
// -solver flag and the sweep benchmarks all dispatch through this
// package; adding an algorithm means one Register call, not five call
// sites.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
)

// Capability is a bitmask describing what a solver guarantees.
type Capability uint32

const (
	// CapExact marks solvers whose throughput is provably optimal within
	// their scheme class (cyclic or acyclic), not a heuristic.
	CapExact Capability = 1 << iota
	// CapHandlesGuarded marks solvers that accept instances with guarded
	// (NAT/firewalled) nodes; others error on m > 0.
	CapHandlesGuarded
	// CapBuildsScheme marks solvers that return an explicit rate matrix
	// (Result.Scheme non-nil), not just a throughput bound.
	CapBuildsScheme
	// CapCyclic marks solvers whose schemes may contain cycles.
	CapCyclic
	// CapAnytime marks fast heuristics: always a valid scheme, possibly
	// below the optimum.
	CapAnytime
	// CapIncremental marks solvers a Session can re-solve incrementally
	// after platform churn, warm-starting from the previous solution
	// (core.RepairAcyclic) instead of solving from scratch.
	CapIncremental
)

var capNames = []struct {
	c    Capability
	name string
}{
	{CapExact, "exact"},
	{CapHandlesGuarded, "handles-guarded"},
	{CapBuildsScheme, "builds-scheme"},
	{CapCyclic, "cyclic"},
	{CapAnytime, "anytime"},
	{CapIncremental, "incremental"},
}

// Has reports whether c includes every bit of want.
func (c Capability) Has(want Capability) bool { return c&want == want }

// Names returns the capability names set in c, in declaration order —
// the wire representation of a capability selector.
func (c Capability) Names() []string {
	var parts []string
	for _, cn := range capNames {
		if c.Has(cn.c) {
			parts = append(parts, cn.name)
		}
	}
	return parts
}

// ParseCapability resolves one capability name ("exact",
// "handles-guarded", ...) to its bit.
func ParseCapability(name string) (Capability, error) {
	for _, cn := range capNames {
		if cn.name == name {
			return cn.c, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown capability %q", name)
}

// String renders the capability set as "exact|handles-guarded|...".
func (c Capability) String() string {
	if parts := c.Names(); len(parts) > 0 {
		return strings.Join(parts, "|")
	}
	return "none"
}

// Result is the uniform outcome of one Solve call.
type Result struct {
	// Solver is the name of the solver that produced the result.
	Solver string
	// Throughput is the achieved (or, for bound-only solvers, computed)
	// broadcast throughput.
	Throughput float64
	// Word is the encoding word behind the scheme, when the algorithm is
	// word-based (empty otherwise).
	Word core.Word
	// Scheme is the explicit rate matrix; nil for bound-only solvers.
	Scheme *core.Scheme
	// MaxOutDegree and MaxDegreeSlack summarize the degree cost of the
	// scheme (slack is max_i o_i − ⌈b_i/T⌉, the paper's augmentation
	// measure). Zero when Scheme is nil.
	MaxOutDegree   int
	MaxDegreeSlack int
	// Edges is the number of positive-rate connections. Zero when Scheme
	// is nil.
	Edges int
	// Wall is the wall-clock duration of the Solve call.
	Wall time.Duration
	// Repaired reports that the result came from an incremental-repair
	// path (warm start from a previous solution's word) rather than a
	// from-scratch solve — a Session resolve after platform churn, or a
	// plan-store neighbor warm start. False when the repair fell back to
	// a full solve.
	Repaired bool
	// WarmStarted reports that a plan-store similarity lookup seeded
	// this solve with a stored neighbor's word (the cache's warm tier).
	// Repaired then tells whether the warm start held; WarmStarted with
	// Repaired false means the repair deviated and the answer came from
	// the full-solve fallback — still exact, just not cheaper.
	WarmStarted bool
	// NeighborDistance is the node-multiset edit distance between the
	// request's instance and the stored neighbor that seeded the warm
	// start. Meaningful only when WarmStarted.
	NeighborDistance int
	// Verified is the scheme's verified throughput when the solve path
	// verified it. A repair (Execute with a PrevWord) and Execute with a
	// Tolerance report the value core.Scheme.Certify measured, so a
	// repair fallback and a cold solve of the same request report the
	// same value: the smallest receiver in-rate for an acyclic scheme,
	// the max-flow throughput for a cyclic one. Session resolves of
	// CapIncremental solvers report the max-flow throughput, the churn
	// timeline's figure. Zero means the result was not verified (callers
	// wanting certainty run the throughput functional themselves).
	Verified float64
	// Evals counts the expensive inner evaluations behind this solve —
	// max-flow queries, Algorithm 2 probes, per-word evaluations, scheme
	// builds and scratch growths — as routed through the solver's
	// workspace. Grows staying at zero across a warm sweep is the
	// zero-allocation steady state; a regression shows up here before it
	// shows up in -benchmem.
	Evals core.WorkspaceStats
}

// wsLeased counts workspaces leased through AcquireWorkspace and not
// yet returned. The leak tests (Session cancellation, sim mid-trace
// abort) assert it returns to its baseline once every session is closed.
var wsLeased atomic.Int64

// AcquireWorkspace leases a workspace from core's pool: Batch/ForEach
// workers, direct Solve callers and the experiment drivers all reuse
// warm core.Workspaces across a sweep, so the per-instance evaluation
// pipeline reaches its zero-allocation steady state after the first few
// solves. Return it with ReleaseWorkspace when done.
func AcquireWorkspace() *core.Workspace {
	wsLeased.Add(1)
	return core.AcquireWorkspace()
}

// ReleaseWorkspace returns a leased workspace to core's pool.
func ReleaseWorkspace(ws *core.Workspace) {
	if ws != nil {
		wsLeased.Add(-1)
		core.ReleaseWorkspace(ws)
	}
}

// LeasedWorkspaces reports how many pool workspaces are currently
// checked out (acquired and not yet released).
func LeasedWorkspaces() int64 { return wsLeased.Load() }

// wsGrows accumulates scratch (re)allocations across every finished
// solve — the process-lifetime sum of Result.Evals.Grows. A pool in
// steady state stops adding to it; sustained growth under load means
// the pool keeps meeting instances larger than anything it has served.
var wsGrows atomic.Int64

// WorkspaceGrows reports the cumulative scratch growths across all
// solves, for the service /metrics endpoint.
func WorkspaceGrows() int64 { return wsGrows.Load() }

// RepairFunc is a solver's incremental re-solve entry point: given the
// mutated instance and the previous event's encoding word, produce a
// verified result, falling back to a full solve internally when the
// warm start does not hold up.
type RepairFunc func(*platform.Instance, core.Word, *core.Workspace) (core.RepairResult, error)

// Solver is one broadcast algorithm of the paper behind one
// context-aware front: its registry name, its capabilities, its solve
// function and, for CapIncremental solvers, its warm-start repair entry
// point. Build one with NewSolver or NewIncrementalSolver. Solve is
// safe for concurrent use (the paper algorithms share no mutable
// state) and checks ctx on entry — the closed-form and near-linear
// algorithms finish in microseconds, so finer-grained checks buy
// nothing.
type Solver struct {
	name   string
	caps   Capability
	solve  func(*platform.Instance, *core.Workspace) (Result, error)
	repair RepairFunc // non-nil iff caps has CapIncremental
}

// NewSolver wraps fn as a Solver. The engine adds the context entry
// check, the name stamp, wall-clock timing and workspace management
// around fn: Solve hands fn a pooled workspace and records the
// evaluation-counter delta in Result.Evals. fn may ignore the
// workspace; it must not retain it past the call.
func NewSolver(name string, caps Capability, fn func(*platform.Instance, *core.Workspace) (Result, error)) *Solver {
	if caps.Has(CapIncremental) {
		panic(fmt.Sprintf("engine: solver %q declares CapIncremental without a repair function — use NewIncrementalSolver", name))
	}
	return &Solver{name: name, caps: caps, solve: fn}
}

// NewIncrementalSolver is NewSolver for solvers that additionally
// support Session-driven incremental re-solve: repair is the warm-start
// entry point Sessions call between events. CapIncremental is implied.
func NewIncrementalSolver(name string, caps Capability, fn func(*platform.Instance, *core.Workspace) (Result, error), repair RepairFunc) *Solver {
	if repair == nil {
		panic(fmt.Sprintf("engine: incremental solver %q needs a repair function", name))
	}
	return &Solver{name: name, caps: caps | CapIncremental, solve: fn, repair: repair}
}

// Name returns the solver's registry name.
func (s *Solver) Name() string { return s.name }

// Capabilities returns what the solver guarantees.
func (s *Solver) Capabilities() Capability { return s.caps }

// Solve runs the solver on a pooled workspace.
func (s *Solver) Solve(ctx context.Context, ins *platform.Instance) (Result, error) {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	return s.run(ctx, ins, nil, false, ws)
}

// run is the one solve sequence behind Solve, SolveIsolated, Execute's
// warm start and Session.Resolve. With viaRepair set, a solver that has
// a repair entry point answers through it (an empty prev forces the
// full solve inside it) and the result is Repaired unless the repair
// fell back; otherwise the solve function answers. The result is
// stamped with the solver name, the scheme's degree statistics, the
// evaluation-counter delta on ws and the wall clock.
func (s *Solver) run(ctx context.Context, ins *platform.Instance, prev core.Word, viaRepair bool, ws *core.Workspace) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Pre-size the scratch for this instance before the stats snapshot:
	// a pooled workspace warmed on paper-sized instances would otherwise
	// pay a cascade of mid-solve grows the first time it sees n=100k.
	ws.Prealloc(ins.Total())
	before := ws.Stats()
	start := time.Now()
	var res Result
	var err error
	if viaRepair && s.repair != nil {
		var rr core.RepairResult
		rr, err = s.repair(ins, prev, ws)
		res = Result{Throughput: rr.T, Scheme: rr.Scheme, Word: rr.Word, Verified: rr.Verified, Repaired: !rr.FellBack}
	} else {
		res, err = s.solve(ins, ws)
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", s.name, err)
	}
	res.Solver = s.name
	if res.Scheme != nil {
		res.Edges = res.Scheme.NumEdges()
		res.MaxOutDegree = res.Scheme.MaxOutDegree()
		if res.Throughput > 0 {
			res.MaxDegreeSlack = res.Scheme.MaxDegreeSlack(res.Throughput)
		}
	}
	res.Evals = ws.Stats().Sub(before)
	res.Wall = time.Since(start)
	wsGrows.Add(res.Evals.Grows)
	return res, nil
}

// SolveIsolated runs s on a dedicated, never-pooled workspace — the
// reference path the pooled path is validated against (pooled and
// isolated solves must be byte-identical; see the equivalence tests).
func SolveIsolated(ctx context.Context, s *Solver, ins *platform.Instance) (Result, error) {
	return s.run(ctx, ins, nil, false, core.NewWorkspace())
}

// Registry is a named catalogue of solvers.
type Registry struct {
	mu      sync.RWMutex
	solvers map[string]*Solver
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{solvers: make(map[string]*Solver)}
}

// Register adds a solver; empty or duplicate names are errors.
func (r *Registry) Register(s *Solver) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("engine: solver must have a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.solvers[s.Name()]; dup {
		return fmt.Errorf("engine: solver %q already registered", s.Name())
	}
	r.solvers[s.Name()] = s
	return nil
}

// MustRegister is Register that panics on error (for init-time wiring).
func (r *Registry) MustRegister(s *Solver) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Get resolves a solver by name; the error lists the known names.
func (r *Registry) Get(name string) (*Solver, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.solvers[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w %q (known: %s)", ErrUnknownSolver, name, strings.Join(r.names(), ", "))
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names()
}

func (r *Registry) names() []string {
	ns := make([]string, 0, len(r.solvers))
	for n := range r.solvers {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Select returns the solvers whose capabilities include every bit of
// need, sorted by name.
func (r *Registry) Select(need Capability) []*Solver {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Solver
	for _, s := range r.solvers {
		if s.Capabilities().Has(need) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Default is the registry pre-populated with every paper algorithm (see
// solvers.go for the catalogue).
var Default = NewRegistry()

// Get resolves a name against the Default registry.
func Get(name string) (*Solver, error) { return Default.Get(name) }

// Names lists the Default registry, sorted.
func Names() []string { return Default.Names() }

// Select filters the Default registry by capability.
func Select(need Capability) []*Solver { return Default.Select(need) }
