package experiments

import "repro/internal/engine"

// ---------------------------------------------------------------------------
// Churn sweep (dynamic-platform figure)
//
// The paper evaluates one-shot throughput on fixed platforms; the
// churn sweep is the dynamic companion figure: a seeded event trace
// (arrivals, departures, rescales, bursts) mutates the platform and
// every capable solver re-solves after each event on a warm
// engine.Session. The figure plots throughput-over-time (one line per
// solver, normalized by the evolving cyclic optimum T*) and the
// cumulative evaluation counters — the solve-latency-under-change
// workload the static figures cannot show. `bmpcast sim -solvers all
// -format csv` drives it (sim.GenerateTrace, sim.Run).

// ChurnSolvers returns the registry solvers the churn sweep re-solves
// with after every event: every guarded-capable algorithm except the
// exponential-time exhaustive enumeration (churn platforms are far
// beyond its reach). Sorted by name, so sweep output order is stable.
func ChurnSolvers() []string {
	var names []string
	for _, s := range engine.Select(engine.CapHandlesGuarded) {
		if s.Name() == "exhaustive" {
			continue
		}
		names = append(names, s.Name())
	}
	return names
}
