package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

// randomNet draws a reproducible random network plus its edge list.
func randomNet(rng *rand.Rand, n int) *Network {
	g := NewNetwork(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.4 {
				g.AddEdge(i, j, float64(1+rng.Intn(64))/8)
			}
		}
	}
	return g
}

func TestResetRestoresCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		g := randomNet(rng, n)
		want := g.Clone().Max(0, n-1)
		// Consume, reset, re-query: identical flow every round.
		for round := 0; round < 3; round++ {
			if got := g.Max(0, n-1); got != want {
				t.Fatalf("trial %d round %d: flow %v after Reset, want %v", trial, round, got, want)
			}
			g.Reset()
		}
	}
}

func TestWorkspaceMinFromSourceMatchesCloneLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		g := randomNet(rng, n)
		targets := make([]int, 0, n)
		for i := 0; i < n; i++ { // include s itself: must be skipped
			targets = append(targets, i)
		}
		// Reference: the seed's clone-per-target loop, no early exit.
		want := math.Inf(1)
		for _, tt := range targets {
			if tt == 0 {
				continue
			}
			if f := g.Clone().Max(0, tt); f < want {
				want = f
			}
		}
		if math.IsInf(want, 1) {
			want = 0
		}
		got := ws.MinFromSource(g, 0, targets)
		if got != want {
			t.Fatalf("trial %d: workspace min %v, clone-loop min %v", trial, got, want)
		}
		// The network must come back pristine.
		if again := ws.MinFromSource(g, 0, targets); again != got {
			t.Fatalf("trial %d: second evaluation %v != first %v (Reset leak)", trial, again, got)
		}
	}
}

func TestWorkspaceNetworkReuse(t *testing.T) {
	ws := NewWorkspace()
	build := func() *Network {
		net := ws.Network(3)
		net.AddEdge(0, 1, 4)
		net.AddEdge(1, 2, 2)
		return net
	}
	for round := 0; round < 5; round++ {
		net := build()
		if f := ws.MinFromSource(net, 0, []int{1, 2}); f != 2 {
			t.Fatalf("round %d: min flow %v, want 2", round, f)
		}
	}
	// Steady state: scratch growth has stopped.
	grown := ws.Grows()
	for round := 0; round < 5; round++ {
		net := build()
		ws.MinFromSource(net, 0, []int{1, 2})
	}
	if ws.Grows() != grown {
		t.Fatalf("scratch kept growing after warmup: %d -> %d", grown, ws.Grows())
	}
	if ws.FlowEvals() != 20 {
		t.Fatalf("flow evals = %d, want 20", ws.FlowEvals())
	}
	// Shrinking and regrowing the node count must stay correct.
	small := ws.Network(2)
	small.AddEdge(0, 1, 1)
	if f := ws.MinFromSource(small, 0, []int{1}); f != 1 {
		t.Fatalf("shrunk network flow %v, want 1", f)
	}
}

// TestWorkspaceZeroSteadyStateAllocs is the tentpole contract: warm
// workspace evaluation allocates nothing.
func TestWorkspaceZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomNet(rng, 40)
	targets := make([]int, 0, 39)
	for i := 1; i < 40; i++ {
		targets = append(targets, i)
	}
	ws := NewWorkspace()
	ws.MinFromSource(g, 0, targets) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		ws.MinFromSource(g, 0, targets)
	})
	if allocs != 0 {
		t.Fatalf("steady-state MinFromSource allocates %.1f/op, want 0", allocs)
	}
}
