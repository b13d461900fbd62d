package engine

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/platform"
)

// Session is the engine front for dynamic-platform workloads: a churn
// trace mutates a live platform.Instance and calls Resolve after every
// event. Unlike the stateless Solve path, a Session
//
//   - owns one pooled core.Workspace for its whole lifetime, so every
//     event after the first runs on warm scratch (the zero-allocation
//     steady state of the evaluation pipeline);
//   - carries the previous event's solution across events and, for
//     CapIncremental solvers, re-solves through core.RepairAcyclic —
//     a warm-started search that falls back to a full solve when the
//     repaired scheme's verified throughput deviates;
//   - accumulates per-event evaluation counters into SessionStats, the
//     timeline metric of the churn simulator ("solve latency under
//     change", not one-shot throughput).
//
// A Session is not safe for concurrent use (it is one solver's view of
// one evolving platform); run one Session per solver. Close returns
// the workspace to the engine pool — a Session abandoned mid-trace by
// context cancellation holds no goroutines, so Close is the only
// cleanup needed.
type Session struct {
	solver *Solver
	ws     *core.Workspace
	repair bool
	word   core.Word // previous event's encoding word (warm start)
	stats  SessionStats
}

// SessionStats aggregates a session's work across events.
type SessionStats struct {
	// Events is the number of completed Resolve calls.
	Events int
	// Repairs counts events answered by the incremental-repair path.
	Repairs int
	// FullSolves counts events answered by a from-scratch solve
	// (non-incremental solvers, first events, disabled repair, and
	// repair fallbacks). Events = Repairs + FullSolves.
	FullSolves int
	// Fallbacks counts repair attempts that failed verification and
	// re-solved from scratch (a subset of FullSolves).
	Fallbacks int
	// Evals is the cumulative workspace counter total over all events.
	Evals core.WorkspaceStats
}

// NewSession resolves a solver from the Default registry and leases a
// workspace for it. Callers must Close the session.
func NewSession(solverName string) (*Session, error) {
	return NewSessionFor(Default, solverName)
}

// NewSessionFor is NewSession against an explicit registry.
func NewSessionFor(r *Registry, solverName string) (*Session, error) {
	s, err := r.Get(solverName)
	if err != nil {
		return nil, err
	}
	return &Session{solver: s, ws: AcquireWorkspace(), repair: true}, nil
}

// SetRepair toggles the incremental-repair path (on by default). With
// repair off every event re-solves from scratch — still on the warm
// session workspace — which is the reference the property tests
// compare the repair path against.
func (s *Session) SetRepair(enabled bool) { s.repair = enabled }

// Solver returns the session's solver name.
func (s *Session) Solver() string { return s.solver.Name() }

// Stats returns the cumulative session counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Close returns the session workspace to the engine pool. Closing
// twice is safe; Resolve after Close errors.
func (s *Session) Close() {
	if s.ws != nil {
		ReleaseWorkspace(s.ws)
		s.ws = nil
	}
}

// Resolve solves the instance's current state, warm-starting from the
// previous event's solution when the solver is CapIncremental and
// repair is enabled. The returned Result is stamped like any engine
// solve (degree stats, wall clock, per-event eval delta) plus
// Repaired; the session's cumulative counters advance accordingly.
func (s *Session) Resolve(ctx context.Context, ins *platform.Instance) (Result, error) {
	if s.ws == nil {
		return Result{}, errors.New("engine: Resolve on a closed Session")
	}
	// Incremental solvers always resolve through their repair entry
	// point — with repair disabled (or on the first event) the previous
	// word is withheld, which forces the full-solve path inside it. Both
	// modes therefore pay the same contract verification and report
	// comparable eval counters.
	prev := s.word
	if !s.repair {
		prev = nil
	}
	res, err := s.solver.run(ctx, ins, prev, true, s.ws)
	if err != nil {
		return Result{}, err
	}
	s.stats.Events++
	if res.Repaired {
		s.stats.Repairs++
	} else {
		s.stats.FullSolves++
		if s.solver.repair != nil && len(prev) > 0 {
			s.stats.Fallbacks++ // the warm start did not hold
		}
	}
	s.stats.Evals = s.stats.Evals.Add(res.Evals)
	if len(res.Word) > 0 {
		s.word = res.Word
	}
	return res, nil
}
