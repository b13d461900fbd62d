package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestChurnSolvers(t *testing.T) {
	names := ChurnSolvers()
	want := map[string]bool{"acyclic": false, "acyclic-search": false, "cyclic-bound": false,
		"cyclic-pack": false, "depth": false, "greedy": false}
	for _, n := range names {
		if n == "exhaustive" {
			t.Fatal("exhaustive must not run per churn event")
		}
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("churn-capable solver %q missing from %v", n, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("solver order not sorted: %v", names)
		}
	}
}

func TestChurnSweep(t *testing.T) {
	cfg := sim.TraceConfig{Nodes: 12, POpen: 0.7, Events: 10, Seed: 4}
	tr, err := sim.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solvers := ChurnSolvers()
	tl, err := sim.Run(context.Background(), tr, sim.RunConfig{Solvers: solvers})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Entries) != cfg.Events+1 {
		t.Fatalf("got %d entries, want %d", len(tl.Entries), cfg.Events+1)
	}
	for _, e := range tl.Entries {
		if len(e.Solvers) != len(solvers) {
			t.Fatalf("event %d has %d solver points, want %d", e.Event, len(e.Solvers), len(solvers))
		}
		var acyclicT, greedyT float64
		for _, sp := range e.Solvers {
			if sp.Ratio > 1+1e-9 {
				t.Fatalf("event %d: %s ratio %v exceeds the cyclic optimum", e.Event, sp.Solver, sp.Ratio)
			}
			switch sp.Solver {
			case "acyclic":
				acyclicT = sp.Throughput
			case "greedy":
				greedyT = sp.Throughput
			}
		}
		// The greedy heuristic cannot beat the optimal acyclic solver.
		if greedyT > acyclicT+1e-9 {
			t.Fatalf("event %d: greedy %v beats optimal acyclic %v", e.Event, greedyT, acyclicT)
		}
	}
	var csv strings.Builder
	if err := tl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(csv.String()), "\n") + 1
	if want := 1 + len(tl.Entries)*len(solvers); lines != want {
		t.Fatalf("CSV has %d lines, want %d", lines, want)
	}
}
