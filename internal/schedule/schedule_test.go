package schedule

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trees"
)

func solved(t *testing.T, ins *platform.Instance) (*core.Scheme, float64, []trees.Tree) {
	t.Helper()
	T, s, _, err := core.SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := trees.Decompose(s, T)
	if err != nil {
		t.Fatal(err)
	}
	return s, T, ts
}

func TestBuildAndVerifyFigure1(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	s, T, ts := solved(t, ins)
	plan, err := Build(s, T, ts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s, T, plan); err != nil {
		t.Fatal(err)
	}
	// Every non-source node receives each of the 100 blocks once per
	// period: 5 receivers × 100 blocks transmissions.
	if want := 5 * 100; len(plan.Transmissions) != want {
		t.Fatalf("transmissions = %d, want %d", len(plan.Transmissions), want)
	}
	// Discretization overload shrinks with the block count.
	if plan.MaxOverload > 0.2 {
		t.Fatalf("overload %v too large at B=100", plan.MaxOverload)
	}
	fine, err := Build(s, T, ts, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if fine.MaxOverload > plan.MaxOverload+1e-12 {
		t.Fatalf("overload did not improve with finer blocks: %v -> %v", plan.MaxOverload, fine.MaxOverload)
	}
}

func TestBlockApportionment(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	s, T, ts := solved(t, ins)
	for _, blocks := range []int{len(ts), 7, 50, 999} {
		plan, err := Build(s, T, ts, blocks)
		if err != nil {
			t.Fatalf("B=%d: %v", blocks, err)
		}
		sum := 0
		for k, c := range plan.BlocksPerTree {
			if c < 1 {
				t.Fatalf("B=%d: tree %d got %d blocks", blocks, k, c)
			}
			sum += c
		}
		if sum != blocks {
			t.Fatalf("B=%d: blocks sum to %d", blocks, sum)
		}
	}
}

func TestBuildRejects(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	s, T, ts := solved(t, ins)
	if _, err := Build(s, T, ts, len(ts)-1); err == nil {
		t.Error("expected error with fewer blocks than trees")
	}
	if _, err := Build(s, T, nil, 10); err == nil {
		t.Error("expected error with empty decomposition")
	}
	// Corrupted decomposition must be caught by the embedded Verify.
	bad := append([]trees.Tree(nil), ts...)
	bad[0].Weight *= 3
	if _, err := Build(s, T, bad, 100); err == nil {
		t.Error("expected error for invalid decomposition")
	}
}

func TestVerifyCatchesMissingBlock(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	s, T, ts := solved(t, ins)
	plan, err := Build(s, T, ts, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one transmission: some node loses a block.
	plan.Transmissions = plan.Transmissions[:len(plan.Transmissions)-1]
	if err := Verify(s, T, plan); err == nil {
		t.Fatal("Verify accepted a plan with a missing transmission")
	}
}

func TestScheduleRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		nn := 1 + rng.Intn(7)
		mm := rng.Intn(7)
		open := make([]float64, nn)
		for i := range open {
			open[i] = 1 + 20*rng.Float64()
		}
		guarded := make([]float64, mm)
		for i := range guarded {
			guarded[i] = 1 + 20*rng.Float64()
		}
		ins := platform.MustInstance(5+20*rng.Float64(), open, guarded)
		s, T, ts := solved(t, ins)
		plan, err := Build(s, T, ts, 64)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Verify(s, T, plan); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
