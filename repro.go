package repro

import (
	"context"
	"math/big"
	"math/rand"

	"repro/internal/bedibe"
	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/massoulie"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/trees"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Platform model

// Instance is a broadcast problem instance: a source bandwidth plus the
// open and guarded nodes' outgoing bandwidths (LastMile model, §II-D).
type Instance = platform.Instance

// Kind classifies node connectivity (Open vs Guarded).
type Kind = platform.Kind

// Node kinds.
const (
	Open    = platform.Open
	Guarded = platform.Guarded
)

// NewInstance builds an instance; bandwidth slices are copied and sorted
// non-increasing (the normal form all algorithms assume).
func NewInstance(b0 float64, open, guarded []float64) (*Instance, error) {
	return platform.NewInstance(b0, open, guarded)
}

// MustInstance is NewInstance that panics on error.
func MustInstance(b0 float64, open, guarded []float64) *Instance {
	return platform.MustInstance(b0, open, guarded)
}

// ---------------------------------------------------------------------------
// API v2: typed Request/Plan contract
//
// The Request/Plan pair is the stable public contract of the library:
// one typed request (instance + solver or capability selector +
// functional options) in, one plan (throughput, scheme, optional tree
// decomposition and periodic schedule, eval counters, repair
// provenance) out. It is exactly what the versioned wire codec
// (internal/wire) serializes and the `bmpcast serve` HTTP service
// exposes. The older per-algorithm facade functions below remain as
// thin compatibility wrappers over the same internals.

// Request is a typed solve request; build one with NewRequest and the
// With* functional options.
type Request = engine.Request

// RequestOption mutates a Request under construction.
type RequestOption = engine.RequestOption

// SolvePlan is the uniform answer to a Request: the solver result plus
// the cyclic optimum T* and the optional tree decomposition and
// periodic schedule.
type SolvePlan = engine.Plan

// NewRequest assembles a Request for the instance.
func NewRequest(ins *Instance, opts ...RequestOption) Request {
	return engine.NewRequest(ins, opts...)
}

// Execute runs a Request against the default solver registry. Failures
// wrap the typed sentinels ErrUnknownSolver, ErrInfeasible and
// ErrCanceled, so callers branch with errors.Is.
func Execute(ctx context.Context, req Request) (*SolvePlan, error) {
	return engine.Execute(ctx, req)
}

// ExecuteBatch sweeps requests on the engine worker pool with
// deterministic ordering (plans[i] answers reqs[i]).
func ExecuteBatch(ctx context.Context, reqs []Request, opts BatchOptions) ([]*SolvePlan, error) {
	return engine.ExecuteBatch(ctx, reqs, opts)
}

// Request options (see the engine package for semantics).
var (
	WithSolver       = engine.WithSolver
	WithCapabilities = engine.WithCapabilities
	WithDeadline     = engine.WithDeadline
	WithTolerance    = engine.WithTolerance
	WithScheme       = engine.WithScheme
	WithTrees        = engine.WithTrees
	WithSchedule     = engine.WithSchedule
	WithWarmStart    = engine.WithWarmStart
	WithCache        = engine.WithCache
)

// PlanCache memoizes Execute calls content-addressed by the SHA-256 of
// the request's canonical wire encoding: an identical request already
// solved returns the cached plan (treat it as immutable) without
// touching a solver, and concurrent identical requests collapse onto
// one in-flight solve. Attach one to requests with WithCache. The
// `bmpcast serve` daemon runs one by default on its document path,
// whose entries hold canonical plan documents instead of plans.
type PlanCache = engine.Cache

// PlanCacheStats is a cache's counter snapshot (hits, misses, shared
// in-flight waits, evictions, current entries).
type PlanCacheStats = engine.CacheStats

// NewPlanCache builds a plan cache bounded to maxEntries plans (≤ 0
// means engine.DefaultCacheEntries = 1024), keyed by the canonical
// wire encoding of each request.
func NewPlanCache(maxEntries int) *PlanCache {
	return engine.NewCache(maxEntries, wire.EncodeRequest)
}

// Typed sentinel errors of the v2 API; every failure returned by
// Execute, GetSolver, ParseWord and NewInstance wraps one of these.
var (
	// ErrUnknownSolver: no registered solver matches the request.
	ErrUnknownSolver = engine.ErrUnknownSolver
	// ErrInfeasible: the request as stated cannot be satisfied.
	ErrInfeasible = engine.ErrInfeasible
	// ErrCanceled: context cancellation or an expired deadline.
	ErrCanceled = engine.ErrCanceled
	// ErrInvalidWord: a word string outside the 'o'/'g' alphabet.
	ErrInvalidWord = core.ErrInvalidWord
	// ErrInvalidInstance: bandwidth data that cannot form an instance.
	ErrInvalidInstance = platform.ErrInvalidInstance
)

// ---------------------------------------------------------------------------
// Solver engine: registry and parallel batch runner

// Solver is one broadcast algorithm of the engine's registry: a
// concrete type with a name, capabilities and a context-aware Solve.
type Solver = engine.Solver

// SolveResult is the uniform outcome of one Solver call: throughput,
// scheme, degree statistics and wall time.
type SolveResult = engine.Result

// Capability is the bitmask describing what a solver guarantees.
type Capability = engine.Capability

// Solver capability bits.
const (
	CapExact          = engine.CapExact
	CapHandlesGuarded = engine.CapHandlesGuarded
	CapBuildsScheme   = engine.CapBuildsScheme
	CapCyclic         = engine.CapCyclic
	CapAnytime        = engine.CapAnytime
	CapIncremental    = engine.CapIncremental
)

// BatchOptions tunes the parallel sweep runner.
type BatchOptions = engine.BatchOptions

// SolverNames lists every algorithm registered in the engine, sorted.
func SolverNames() []string { return engine.Names() }

// GetSolver resolves a solver by registry name ("acyclic",
// "cyclic-bound", "greedy", "exhaustive", ...).
func GetSolver(name string) (*Solver, error) { return engine.Get(name) }

// SelectSolvers returns the registered solvers providing every requested
// capability bit.
func SelectSolvers(need Capability) []*Solver { return engine.Select(need) }

// Solve resolves a solver by name and runs it on one instance.
func Solve(ctx context.Context, solver string, ins *Instance) (SolveResult, error) {
	s, err := engine.Get(solver)
	if err != nil {
		return SolveResult{}, err
	}
	return s.Solve(ctx, ins)
}

// SolveBatch sweeps instances on a GOMAXPROCS-sized worker pool with
// deterministic result ordering (results[i] belongs to instances[i]) and
// context cancellation.
func SolveBatch(ctx context.Context, solver string, instances []*Instance, opts BatchOptions) ([]SolveResult, error) {
	return engine.BatchByName(ctx, solver, instances, opts)
}

// ---------------------------------------------------------------------------
// Dynamic platforms: sessions and churn

// SolveSession re-solves an evolving platform event after event on one
// warm workspace, repairing the previous solution incrementally for
// CapIncremental solvers (see internal/sim for the churn simulator
// built on top). Close it when the trace ends.
type SolveSession = engine.Session

// SessionStats aggregates a session's repairs, full solves, fallbacks
// and cumulative evaluation counters.
type SessionStats = engine.SessionStats

// NewSolveSession opens a session for a registry solver.
func NewSolveSession(solver string) (*SolveSession, error) { return engine.NewSession(solver) }

// RepairResult is an incremental re-solve's outcome: throughput,
// scheme, winning word, the scheme's verified throughput and whether
// the warm start fell back to a full solve.
type RepairResult = core.RepairResult

// RepairAcyclic re-solves an instance after churn, warm-starting from
// the previous solution's encoding word and falling back to a full
// solve when the repaired scheme's verified throughput deviates.
func RepairAcyclic(ins *Instance, prev Word) (RepairResult, error) {
	ws := core.AcquireWorkspace()
	defer core.ReleaseWorkspace(ws)
	return core.RepairAcyclic(ins, prev, ws)
}

// ---------------------------------------------------------------------------
// Reusable evaluation workspaces

// Workspace bundles the scratch state of the evaluation pipeline (flow
// solver, supplier queues, word buffers); the ...WithWorkspace functions
// and Scheme.Throughput reuse it across calls so steady-state
// evaluation allocates nothing (nil: a private workspace per call).
// Not safe for concurrent use — the engine pools one per worker.
type Workspace = core.Workspace

// WorkspaceStats counts the expensive inner evaluations routed through
// a workspace (also surfaced per solve as SolveResult.Evals).
type WorkspaceStats = core.WorkspaceStats

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// SolveAcyclicWithWorkspace is SolveAcyclic on reusable scratch.
func SolveAcyclicWithWorkspace(ins *Instance, ws *Workspace) (float64, *Scheme, error) {
	T, s, _, err := core.SolveAcyclic(ins, ws)
	return T, s, err
}

// OptimalAcyclicThroughputWithWorkspace is OptimalAcyclicThroughput on
// reusable scratch.
func OptimalAcyclicThroughputWithWorkspace(ins *Instance, ws *Workspace) (float64, Word, error) {
	return core.OptimalAcyclicThroughput(ins, ws)
}

// BuildSchemeWithWorkspace is BuildScheme on reusable scratch.
func BuildSchemeWithWorkspace(ins *Instance, w Word, T float64, ws *Workspace) (*Scheme, error) {
	return core.BuildScheme(ins, w, T, ws)
}

// ---------------------------------------------------------------------------
// Schemes and throughput bounds

// Scheme is a broadcast scheme: the rate matrix {c_ij} with bandwidth and
// firewall validation, max-flow throughput and degree accounting.
type Scheme = core.Scheme

// Word encodes an increasing node order (○ = next open, ■ = next guarded).
type Word = core.Word

// NewScheme returns an empty scheme for the instance.
func NewScheme(ins *Instance) *Scheme { return core.NewScheme(ins) }

// ParseWord parses "o"/"g" (or ○/■) strings into a Word.
func ParseWord(s string) (Word, error) { return core.ParseWord(s) }

// OptimalCyclicThroughput is the closed-form optimal cyclic throughput
// T* = min(b0, (b0+O)/m, (b0+O+G)/(n+m)) of Lemma 5.1.
func OptimalCyclicThroughput(ins *Instance) float64 {
	return core.OptimalCyclicThroughput(ins)
}

// AcyclicOpenOptimalThroughput is the open-only closed form
// min(b0, S_{n-1}/n) of Section III-B.
func AcyclicOpenOptimalThroughput(ins *Instance) float64 {
	return core.AcyclicOpenOptimalThroughput(ins)
}

// OptimalAcyclicThroughput computes T*_ac by dichotomic search over
// GreedyTest (Theorem 4.1) and returns a witness word.
func OptimalAcyclicThroughput(ins *Instance) (float64, Word, error) {
	ws := core.AcquireWorkspace()
	defer core.ReleaseWorkspace(ws)
	return core.OptimalAcyclicThroughput(ins, ws)
}

// OptimalAcyclicThroughputExact is OptimalAcyclicThroughput with an
// exact-rational refinement of the winning word's throughput.
func OptimalAcyclicThroughputExact(ins *Instance) (*big.Rat, Word, error) {
	return core.OptimalAcyclicThroughputExact(ins)
}

// FeasibleAcyclic decides in linear time whether throughput T is
// acyclically achievable (Algorithm 2).
func FeasibleAcyclic(ins *Instance, T float64) bool {
	ws := core.AcquireWorkspace()
	defer core.ReleaseWorkspace(ws)
	return core.FeasibleAcyclic(ins, T, ws)
}

// GreedyTest runs Algorithm 2: it returns a valid encoding word for
// throughput T, or ok = false when T > T*_ac.
func GreedyTest(ins *Instance, T float64) (Word, bool) { return core.GreedyTest(ins, T) }

// WordThroughput returns T*_ac(w), the optimal acyclic throughput among
// schemes compatible with the order encoded by w.
func WordThroughput(ins *Instance, w Word) float64 {
	ws := core.AcquireWorkspace()
	defer core.ReleaseWorkspace(ws)
	return core.WordThroughput(ins, w, ws)
}

// DegreeLowerBound returns ⌈b/T⌉, the outdegree floor of a node that
// uses its full bandwidth at throughput T.
func DegreeLowerBound(b, T float64) int { return core.DegreeLowerBound(b, T) }

// WorstCaseRatio is the tight acyclic/cyclic bound 5/7 (Theorem 6.2).
const WorstCaseRatio = core.WorstCaseRatio

// ---------------------------------------------------------------------------
// Constructors

// AcyclicOpen builds the Algorithm 1 scheme (open-only, optimal acyclic,
// outdegree ≤ ⌈b_i/T⌉+1).
func AcyclicOpen(ins *Instance, T float64) (*Scheme, error) { return core.AcyclicOpen(ins, T) }

// BuildScheme materializes the low-degree scheme of Lemma 4.6 from an
// encoding word at throughput T.
func BuildScheme(ins *Instance, w Word, T float64) (*Scheme, error) {
	ws := core.AcquireWorkspace()
	defer core.ReleaseWorkspace(ws)
	return core.BuildScheme(ins, w, T, ws)
}

// SolveAcyclic runs the full acyclic pipeline: dichotomic search for
// T*_ac, then the low-degree construction.
func SolveAcyclic(ins *Instance) (float64, *Scheme, error) {
	ws := core.AcquireWorkspace()
	defer core.ReleaseWorkspace(ws)
	return SolveAcyclicWithWorkspace(ins, ws)
}

// CyclicOpen builds the Theorem 5.2 cyclic scheme for open-only
// instances at throughput T ≤ min(b0, (b0+O)/n), with outdegree
// ≤ max(⌈b_i/T⌉+2, 4).
func CyclicOpen(ins *Instance, T float64) (*Scheme, error) { return core.CyclicOpen(ins, T, nil) }

// SolveCyclicOpen builds the optimal cyclic scheme for an open-only
// instance.
func SolveCyclicOpen(ins *Instance) (float64, *Scheme, error) { return core.SolveCyclicOpen(ins, nil) }

// PackCyclicGuarded constructs a cyclic scheme approaching the Lemma 5.1
// optimum on general open+guarded instances by acyclic-layer packing
// (degrees may grow unboundedly, as Section V proves they must). The
// returned rate is certified by construction; it matches T within 1e-6
// relative on every tested instance family.
func PackCyclicGuarded(ins *Instance, T float64) (*Scheme, float64, error) {
	return core.PackCyclicGuarded(ins, T, nil)
}

// Omega1 and Omega2 are the canonical interleavings of Theorem 6.2's
// constructive proof.
func Omega1(n, m int) (Word, error) { return core.Omega1(n, m) }

// Omega2 is ω2(n,m); see Omega1.
func Omega2(n, m int) (Word, error) { return core.Omega2(n, m) }

// BestCanonicalThroughput evaluates max(T*_ac(ω1), T*_ac(ω2)).
func BestCanonicalThroughput(ins *Instance) (float64, Word, error) {
	return core.BestCanonicalThroughput(ins, nil)
}

// ---------------------------------------------------------------------------
// Broadcast trees and streaming simulation

// Tree is one weighted broadcast tree of a decomposition.
type Tree = trees.Tree

// DecomposeTrees splits an acyclic scheme of throughput T into weighted
// spanning arborescences rooted at the source (Σ weights = T).
func DecomposeTrees(s *Scheme, T float64) ([]Tree, error) {
	return trees.Decompose(context.Background(), s, T)
}

// VerifyTrees checks a decomposition against its scheme.
func VerifyTrees(s *Scheme, T float64, ts []Tree) error { return trees.Verify(s, T, ts) }

// SimConfig parameterizes the randomized-broadcast simulation.
type SimConfig = massoulie.Config

// SimResult reports a simulation run.
type SimResult = massoulie.Result

// Simulate plays Massoulié-style random-useful-packet broadcast on the
// scheme's overlay at nominal throughput T.
func Simulate(s *Scheme, T float64, cfg SimConfig) (*SimResult, error) {
	return massoulie.Simulate(s, T, cfg)
}

// ---------------------------------------------------------------------------
// Generators and distributions (the paper's experimental workloads)

// Distribution is a bandwidth sampler (Appendix XII scenarios).
type Distribution = distribution.Distribution

// The six distributions of the paper's average-case study.
var (
	Unif100   = distribution.Unif100
	Power1    = distribution.Power1
	Power2    = distribution.Power2
	LN1       = distribution.LN1
	LN2       = distribution.LN2
	PlanetLab = distribution.PlanetLab
)

// DistributionByName resolves a distribution by the identifier the
// CLIs and trace configs use ("Unif100", "Power1", "Power2", "LN1",
// "LN2", "PLab").
func DistributionByName(name string) (Distribution, error) {
	return distribution.ByName(name)
}

// RandomInstance draws a random tight instance in the style of Appendix
// XII: total receiver nodes, each open with probability pOpen, and the
// source bandwidth set so T* = b0.
func RandomInstance(dist Distribution, total int, pOpen float64, rng *rand.Rand) (*Instance, error) {
	return generator.Random(dist, total, pOpen, rng)
}

// TightHomogeneous builds the Section VI-A worst-case family instance.
func TightHomogeneous(n, m int, delta float64) (*Instance, error) {
	return generator.TightHomogeneous(n, m, delta)
}

// LargeScaleConfig seeds a large-n heterogeneous draw (the 10k–100k
// scaling axis).
type LargeScaleConfig = generator.LargeScaleConfig

// LargeScaleInstance draws a seeded large-n tight instance with
// heavy-tailed bandwidths, preallocated for the 10k–100k-node scaling
// studies; same config ⇒ bit-identical instance.
func LargeScaleInstance(cfg LargeScaleConfig) (*Instance, error) {
	return generator.LargeScale(cfg)
}

// TraceDrivenConfig configures InstanceFromMeasurements.
type TraceDrivenConfig = generator.TraceDrivenConfig

// InstanceFromMeasurements builds a broadcast instance from a measured
// pairwise bandwidth matrix via the fitted LastMile model — one
// receiver per measured node, or bootstrap-resampled up to cfg.Nodes —
// the trace-driven twin of LargeScaleInstance.
func InstanceFromMeasurements(m *Measurements, cfg TraceDrivenConfig) (*Instance, error) {
	return generator.FromMeasurements(m, cfg)
}

// Figure1Instance is the paper's running example (T* = 4.4, T*_ac = 4).
func Figure1Instance() *Instance { return generator.Figure1() }

// ---------------------------------------------------------------------------
// Extensions: depth optimization, one-port baseline, periodic schedules,
// LastMile parameter estimation

// BuildSchemeDepthAware is BuildScheme with per-draw depth minimization
// (the paper's future-work delay objective); same feasibility, shallower
// trees, weaker degree guarantees.
func BuildSchemeDepthAware(ins *Instance, w Word, T float64) (*Scheme, error) {
	ws := core.AcquireWorkspace()
	defer core.ReleaseWorkspace(ws)
	return core.BuildSchemeDepthAware(ins, w, T, ws)
}

// SchemeDepth is the longest source-to-leaf hop count of an acyclic
// scheme (−1 when cyclic).
func SchemeDepth(s *Scheme) int { return core.SchemeDepth(s) }

// OnePortChainThroughput is the degree-1 pipeline baseline the bounded
// multi-port model is motivated against (open-only instances).
func OnePortChainThroughput(ins *Instance) (float64, error) {
	return core.OnePortChainThroughput(ins)
}

// Plan is a periodic block-transmission schedule derived from a tree
// decomposition.
type Plan = schedule.Plan

// BuildSchedule discretizes a tree decomposition into a B-block periodic
// transmission plan ("which data on which edge at which time step").
func BuildSchedule(s *Scheme, T float64, ts []Tree, blocks int) (*Plan, error) {
	return schedule.Build(s, T, ts, blocks)
}

// VerifySchedule checks a plan delivers every block to every node.
func VerifySchedule(s *Scheme, T float64, p *Plan) error { return schedule.Verify(s, T, p) }

// Measurements is a pairwise bandwidth measurement campaign (Bedibe-style
// model instantiation input; bedibe.Missing marks unobserved pairs).
type Measurements = bedibe.Measurements

// LastMileParams are fitted per-node in/out capacities.
type LastMileParams = bedibe.LastMileParams

// NewMeasurements validates a measurement matrix.
func NewMeasurements(bw [][]float64) (*Measurements, error) { return bedibe.NewMeasurements(bw) }

// FitLastMile estimates LastMile parameters from measurements by robust
// coordinate descent, standing in for the paper's Bedibe toolbox.
func FitLastMile(m *Measurements, rounds int) (*LastMileParams, error) {
	return bedibe.FitLastMile(m, rounds)
}

// SynthConfig drives synthetic measurement-campaign generation (a
// PlanetLab-shaped campaign: ground truth observed through noise and
// partial sampling).
type SynthConfig = bedibe.SynthConfig

// SynthesizeMeasurements draws ground-truth LastMile parameters and
// the noisy partial measurement matrix they induce.
func SynthesizeMeasurements(cfg SynthConfig) (*LastMileParams, *Measurements) {
	return bedibe.Synthesize(cfg)
}

// InstanceFromEstimate assembles a broadcast instance from fitted
// parameters: node 0 becomes the source, nodes whose index appears in
// guarded become guarded. This closes the paper's §II-C pipeline:
// measurements → LastMile parameters → overlay construction.
func InstanceFromEstimate(p *LastMileParams, source int, guarded map[int]bool) (*Instance, error) {
	var open, guard []float64
	for i, out := range p.Out {
		if i == source {
			continue
		}
		if guarded[i] {
			guard = append(guard, out)
		} else {
			open = append(open, out)
		}
	}
	return platform.NewInstance(p.Out[source], open, guard)
}
