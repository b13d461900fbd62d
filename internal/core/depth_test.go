package core

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// TestDepthAwareSameFeasibility: the depth-aware builder succeeds on
// exactly the same (word, T) pairs as the earliest-first one, and both
// produce valid schemes of throughput T.
func TestDepthAwareSameFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		nn := rng.Intn(8)
		mm := rng.Intn(8)
		if nn+mm == 0 {
			nn = 1
		}
		ins := randomMixedInstance(rng, nn, mm)
		T, w, err := OptimalAcyclicThroughput(ins, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		T *= 1 - 1e-12
		a, errA := BuildScheme(ins, w, T, nil)
		b, errB := BuildSchemeDepthAware(ins, w, T)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: feasibility differs: earliest=%v depth-aware=%v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		for _, s := range []*Scheme{a, b} {
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !s.IsAcyclic() {
				t.Fatalf("trial %d: cyclic scheme", trial)
			}
			if thr := s.Throughput(nil); thr < T*(1-1e-7) {
				t.Fatalf("trial %d: throughput %v < %v", trial, thr, T)
			}
		}
	}
}

// TestDepthAwareNeverDeeper: across random instances the depth-aware
// builder's depth is never worse than earliest-first (it greedily
// minimizes exactly that quantity per draw), and is strictly better on a
// non-trivial fraction.
func TestDepthAwareNeverDeeper(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	deeper, shallower := 0, 0
	for trial := 0; trial < 120; trial++ {
		nn := 2 + rng.Intn(12)
		mm := rng.Intn(12)
		ins := randomMixedInstance(rng, nn, mm)
		T, w, err := OptimalAcyclicThroughput(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		T *= 1 - 1e-12
		a, err := BuildScheme(ins, w, T, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildSchemeDepthAware(ins, w, T)
		if err != nil {
			t.Fatal(err)
		}
		da, db := SchemeDepth(a), SchemeDepth(b)
		if db > da {
			deeper++
		}
		if db < da {
			shallower++
		}
	}
	// Greedy-per-draw doesn't guarantee global optimality, but it should
	// essentially never lose, and win sometimes.
	if deeper > 3 {
		t.Fatalf("depth-aware deeper than earliest-first on %d/120 instances", deeper)
	}
	t.Logf("depth-aware shallower on %d/120 instances, deeper on %d", shallower, deeper)
}

func TestDepthAwareRejects(t *testing.T) {
	ins := platform.MustInstance(4, []float64{2}, []float64{1})
	w, _ := ParseWord("og")
	if _, err := BuildSchemeDepthAware(ins, w, 0); err == nil {
		t.Error("expected error for T=0")
	}
	if _, err := BuildSchemeDepthAware(ins, w, 100); err == nil {
		t.Error("expected error for infeasible T")
	}
	bad, _ := ParseWord("oo")
	if _, err := BuildSchemeDepthAware(ins, bad, 1); err == nil {
		t.Error("expected error for mismatched word")
	}
}

func TestOnePortChain(t *testing.T) {
	ins := platform.MustInstance(10, []float64{8, 4, 0.5}, nil)
	T, err := OnePortChainThroughput(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Chain 0→1→2→3; node 3 (b=0.5) is the tail; rate = min(10,8,4) = 4.
	if T != 4 {
		t.Fatalf("chain T = %v, want 4", T)
	}
	Ts, s, err := OnePortChainScheme(ins)
	if err != nil {
		t.Fatal(err)
	}
	if Ts != 4 {
		t.Fatalf("scheme T = %v", Ts)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if thr := s.Throughput(nil); !almostEq(thr, 4) {
		t.Fatalf("chain scheme throughput %v", thr)
	}
	if s.MaxOutDegree() != 1 {
		t.Fatalf("chain degree %d", s.MaxOutDegree())
	}
}

// TestOnePortDominatedByMultiport: the bounded multi-port optimum always
// dominates the chain baseline, and the gap grows with heterogeneity.
func TestOnePortDominatedByMultiport(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		ins := randomOpenInstance(rng, 2+rng.Intn(10))
		chain, err := OnePortChainThroughput(ins)
		if err != nil {
			t.Fatal(err)
		}
		multi := AcyclicOpenOptimalThroughput(ins)
		if chain > multi+1e-9 {
			t.Fatalf("trial %d (%v): chain %v beats multiport %v", trial, ins, chain, multi)
		}
	}
	// A 100:1 heterogeneous platform: one fat node, many thin ones.
	open := []float64{100}
	for i := 0; i < 9; i++ {
		open = append(open, 1)
	}
	ins := platform.MustInstance(100, open, nil)
	chain, _ := OnePortChainThroughput(ins)    // min(100, nodes 1..8) = 1
	multi := AcyclicOpenOptimalThroughput(ins) // min(100, (100+100+8)/10) = 20.8
	if multi/chain < 10 {
		t.Fatalf("expected ≥10× multiport win on the heterogeneous platform, got %vx (chain %v, multi %v)",
			multi/chain, chain, multi)
	}
}

func TestOnePortRejectsGuarded(t *testing.T) {
	ins := platform.MustInstance(4, []float64{2}, []float64{1})
	if _, err := OnePortChainThroughput(ins); err == nil {
		t.Fatal("expected error on guarded instance")
	}
}
