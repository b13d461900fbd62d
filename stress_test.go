package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/trees"
)

// TestEndToEndStress sweeps the complete pipeline — bounds, acyclic
// search, low-degree construction, cyclic packing, tree decomposition,
// periodic scheduling — over hundreds of random instances, asserting
// every cross-cutting invariant at once. It is the suite's integration
// backstop; -short skips it.
func TestEndToEndStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 500; trial++ {
		nn := rng.Intn(12)
		mm := rng.Intn(12)
		if nn+mm == 0 {
			nn = 1
		}
		open := make([]float64, nn)
		for i := range open {
			open[i] = 0.5 + 99.5*rng.Float64()
		}
		guarded := make([]float64, mm)
		for i := range guarded {
			guarded[i] = 0.5 + 99.5*rng.Float64()
		}
		ins := repro.MustInstance(5+95*rng.Float64(), open, guarded)

		tstar := repro.OptimalCyclicThroughput(ins)
		tac, scheme, err := repro.SolveAcyclic(ins)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, ins, err)
		}

		// Ordering of the optima and the universal 5/7 bound.
		if tac > tstar*(1+1e-9) {
			t.Fatalf("trial %d: T*_ac %v > T* %v", trial, tac, tstar)
		}
		if tac < tstar*repro.WorstCaseRatio*(1-1e-9) {
			t.Fatalf("trial %d (%v): ratio %v below 5/7", trial, ins, tac/tstar)
		}

		// Scheme invariants: model constraints, DAG, max-flow certification.
		if err := scheme.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !scheme.IsAcyclic() {
			t.Fatalf("trial %d: acyclic solver emitted a cycle", trial)
		}
		if thr := scheme.Throughput(nil); thr < tac*(1-1e-6) {
			t.Fatalf("trial %d: max-flow %v < T*_ac %v", trial, thr, tac)
		}

		// Degree guarantees of Theorem 4.1.
		overTwo := 0
		for i := 0; i < ins.Total(); i++ {
			deg := scheme.OutDegree(i)
			if deg == 0 {
				continue
			}
			lb := repro.DegreeLowerBound(ins.Bandwidth(i), tac)
			limit := lb + 2
			if ins.KindOf(i) == repro.Guarded {
				limit = lb + 1
			}
			if deg > limit {
				if ins.KindOf(i) == repro.Guarded || deg > lb+3 {
					t.Fatalf("trial %d: node %d (%v) degree %d exceeds bound %d",
						trial, i, ins.KindOf(i), deg, limit)
				}
				overTwo++
			}
		}
		if overTwo > 1 {
			t.Fatalf("trial %d: %d open nodes above ⌈b/T⌉+2", trial, overTwo)
		}

		// Cyclic packer certifies T* on the same instance.
		_, packed, err := repro.PackCyclicGuarded(ins, tstar)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if packed < tstar*(1-1e-6) {
			t.Fatalf("trial %d (%v): packed %v < T* %v", trial, ins, packed, tstar)
		}

		// Downstream: trees and a coarse schedule on a subsample.
		if trial%10 == 0 {
			ts, err := trees.Decompose(context.Background(), scheme, tac)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := trees.Verify(scheme, tac, ts); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			plan, err := schedule.Build(scheme, tac, ts, max(32, len(ts)))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := schedule.Verify(scheme, tac, plan); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}

		// Exact refinement agrees with the float path.
		if trial%25 == 0 {
			exact, _, err := core.OptimalAcyclicThroughputExact(ins)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if f, _ := exact.Float64(); f < tac*(1-1e-9) || f > tac*(1+1e-9) {
				t.Fatalf("trial %d: exact %v vs float %v", trial, f, tac)
			}
		}
	}
}
