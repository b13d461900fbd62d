package sim

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

// RunConfig tunes a simulation run.
type RunConfig struct {
	// Solvers names the engine solvers to re-solve with after every
	// event (default: just "acyclic"). Each gets its own Session.
	Solvers []string
	// NoRepair disables the incremental-repair path: every event
	// re-solves from scratch (still on warm session workspaces). The
	// property tests run every trace both ways and require identical
	// verified throughput.
	NoRepair bool
	// Timing includes wall-clock milliseconds in the timeline. Off by
	// default: the timeline must be byte-identical across runs, and
	// wall time is the one non-deterministic field.
	Timing bool
}

// EvalCounts is the deterministic subset of core.WorkspaceStats that the
// timeline, plan documents and session replies report: the algorithmic
// evaluation counters. The scratch Grows counter is deliberately
// excluded — it depends on how warm the pooled workspace happens to be
// (process history), and these documents must be byte-identical across
// runs.
type EvalCounts struct {
	FlowEvals   int64 `json:"flow_evals"`
	GreedyTests int64 `json:"greedy_tests"`
	WordEvals   int64 `json:"word_evals"`
	Builds      int64 `json:"builds"`
}

// Counts projects workspace counters onto EvalCounts.
func Counts(s core.WorkspaceStats) EvalCounts {
	return EvalCounts{FlowEvals: s.FlowEvals, GreedyTests: s.GreedyTests, WordEvals: s.WordEvals, Builds: s.Builds}
}

// SolverPoint is one solver's result on one timeline entry.
type SolverPoint struct {
	Solver     string  `json:"solver"`
	Throughput float64 `json:"throughput"`
	// Ratio is Throughput / T* (the cyclic optimum of the current
	// platform state).
	Ratio float64 `json:"ratio"`
	// Verified is the scheme's max-flow-verified throughput (0 for
	// bound-only solvers).
	Verified float64 `json:"verified,omitempty"`
	// Repaired tells whether this event used the incremental path.
	Repaired bool `json:"repaired"`
	// Evals is the session's cumulative evaluation counter total up to
	// and including this event.
	Evals EvalCounts `json:"evals"`
	// WallMS is the solve wall clock (only with RunConfig.Timing).
	WallMS float64 `json:"wall_ms,omitempty"`
}

// TimelineEntry is the platform state and per-solver results after one
// event (entry 0 is the initial state).
type TimelineEntry struct {
	Event   int           `json:"event"`
	Desc    string        `json:"desc"`
	N       int           `json:"n"`
	M       int           `json:"m"`
	B0      float64       `json:"b0"`
	TStar   float64       `json:"tstar"`
	Solvers []SolverPoint `json:"solvers"`
}

// SessionSummary is the deterministic projection of a session's
// cumulative counters (see EvalCounts for why Grows is absent).
type SessionSummary struct {
	Events     int        `json:"events"`
	Repairs    int        `json:"repairs"`
	FullSolves int        `json:"full_solves"`
	Fallbacks  int        `json:"fallbacks"`
	Evals      EvalCounts `json:"evals"`
}

// Summarize projects a session's counters onto SessionSummary.
func Summarize(st engine.SessionStats) SessionSummary {
	return SessionSummary{
		Events: st.Events, Repairs: st.Repairs, FullSolves: st.FullSolves, Fallbacks: st.Fallbacks,
		Evals: Counts(st.Evals),
	}
}

// Timeline is the full deterministic record of a simulation run.
type Timeline struct {
	Seed    int64                     `json:"seed"`
	Dist    string                    `json:"dist"`
	Solvers []string                  `json:"solvers"`
	Entries []TimelineEntry           `json:"entries"`
	Stats   map[string]SessionSummary `json:"session_stats"`
}

// Run replays the trace against a clone of its initial instance,
// re-solving with every configured solver after each event. Sessions
// stay warm across the whole trace; cancelling ctx aborts before the
// next event and leaks neither goroutines nor workspaces (sessions are
// closed on every exit path).
func Run(ctx context.Context, tr *Trace, rc RunConfig) (*Timeline, error) {
	solvers := rc.Solvers
	if len(solvers) == 0 {
		solvers = []string{"acyclic"}
	}
	sessions := make([]*engine.Session, 0, len(solvers))
	defer func() {
		for _, ses := range sessions {
			ses.Close()
		}
	}()
	for _, name := range solvers {
		ses, err := engine.NewSession(name)
		if err != nil {
			return nil, err
		}
		if rc.NoRepair {
			ses.SetRepair(false)
		}
		sessions = append(sessions, ses)
	}

	live := tr.Initial.Clone()
	tl := &Timeline{
		Seed:    tr.Config.Seed,
		Dist:    tr.Config.Dist,
		Solvers: solvers,
		Entries: make([]TimelineEntry, 0, len(tr.Events)+1),
	}

	record := func(event int, desc string) error {
		entry := TimelineEntry{
			Event: event, Desc: desc,
			N: live.N(), M: live.M(), B0: live.B0,
			TStar:   core.OptimalCyclicThroughput(live),
			Solvers: make([]SolverPoint, 0, len(sessions)),
		}
		for _, ses := range sessions {
			res, err := ses.Resolve(ctx, live)
			if err != nil {
				return fmt.Errorf("sim: event %d, solver %s: %w", event, ses.Solver(), err)
			}
			sp := SolverPoint{
				Solver:     res.Solver,
				Throughput: res.Throughput,
				Repaired:   res.Repaired,
				Evals:      Counts(ses.Stats().Evals),
			}
			if entry.TStar > 0 {
				sp.Ratio = res.Throughput / entry.TStar
			}
			switch {
			case res.Verified > 0:
				// The session already measured the repaired scheme by
				// max-flow; reuse that instead of a second pass.
				sp.Verified = res.Verified
			case res.Scheme != nil:
				// Verification runs on a separate pooled workspace so the
				// session counters measure solve cost only.
				vws := engine.AcquireWorkspace()
				sp.Verified = res.Scheme.Throughput(vws)
				engine.ReleaseWorkspace(vws)
			}
			if rc.Timing {
				sp.WallMS = res.Wall.Seconds() * 1e3
			}
			entry.Solvers = append(entry.Solvers, sp)
		}
		tl.Entries = append(tl.Entries, entry)
		return nil
	}

	if err := record(0, "initial"); err != nil {
		return nil, err
	}
	for i, ev := range tr.Events {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := Apply(live, ev); err != nil {
			return nil, fmt.Errorf("sim: applying event %d (%s): %w", i+1, ev, err)
		}
		if err := record(i+1, ev.String()); err != nil {
			return nil, err
		}
	}

	tl.Stats = make(map[string]SessionSummary, len(sessions))
	for _, ses := range sessions {
		tl.Stats[ses.Solver()] = Summarize(ses.Stats())
	}
	return tl, nil
}

// WriteCSV emits one row per (entry, solver), flat for plotting the
// churn figure (throughput-over-time per solver).
func (tl *Timeline) WriteCSV(w io.Writer) error {
	header := "event,desc,n,m,b0,tstar,solver,throughput,ratio,verified,repaired,flow_evals,greedy_tests,word_evals,builds"
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, e := range tl.Entries {
		for _, sp := range e.Solvers {
			desc := strings.ReplaceAll(e.Desc, ",", ";")
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%g,%g,%s,%g,%g,%g,%v,%d,%d,%d,%d\n",
				e.Event, desc, e.N, e.M, e.B0, e.TStar,
				sp.Solver, sp.Throughput, sp.Ratio, sp.Verified, sp.Repaired,
				sp.Evals.FlowEvals, sp.Evals.GreedyTests, sp.Evals.WordEvals,
				sp.Evals.Builds); err != nil {
				return err
			}
		}
	}
	return nil
}
