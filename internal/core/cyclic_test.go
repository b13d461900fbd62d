package core

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// TestCyclicFigure12 reproduces the i0 = n special case on the Figure
// 11/12 instance: b = (5, 5, 3, 2), T = 5.
func TestCyclicFigure12(t *testing.T) {
	ins := platform.MustInstance(5, []float64{5, 3, 2}, nil)
	if opt := OptimalCyclicThroughput(ins); !almostEq(opt, 5) {
		t.Fatalf("T* = %v, want 5", opt)
	}
	s, err := CyclicOpen(ins, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if thr := s.Throughput(nil); !almostEq(thr, 5) {
		t.Fatalf("throughput = %v, want 5", thr)
	}
	if s.IsAcyclic() {
		t.Fatal("expected a cyclic scheme (Figure 12 has the C3→C2 back edge)")
	}
}

// TestCyclicFigure17 reproduces the full pipeline on the Figure 14–17
// instance: b = (5, 5, 4, 4, 4, 3), T = 5, checking the exact edge set of
// Figure 17 (initial case at i0 = 3 with (u,v) = (C0,C1), then one
// induction step inserting C5).
func TestCyclicFigure17(t *testing.T) {
	ins := platform.MustInstance(5, []float64{5, 4, 4, 4, 3}, nil)
	if opt := OptimalCyclicThroughput(ins); !almostEq(opt, 5) {
		t.Fatalf("T* = %v, want 5", opt)
	}
	s, err := CyclicOpen(ins, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if thr := s.Throughput(nil); !almostEq(thr, 5) {
		t.Fatalf("throughput = %v, want 5", thr)
	}
	want := map[[2]int]float64{
		{0, 1}: 4, {0, 3}: 1,
		{1, 2}: 5,
		{2, 3}: 3, {2, 4}: 1,
		{3, 4}: 2, {3, 5}: 2,
		{4, 1}: 1, {4, 5}: 3,
		{5, 4}: 2, {5, 3}: 1,
	}
	for e, w := range want {
		if got := s.Rate(e[0], e[1]); !almostEq(got, w) {
			t.Errorf("edge (%d,%d) = %v, want %v", e[0], e[1], got, w)
		}
	}
	if s.NumEdges() != len(want) {
		t.Errorf("scheme has %d edges, want %d: %v", s.NumEdges(), len(want), s.Edges())
	}
}

// TestCyclicOpenProperty: random open instances at the cyclic optimum —
// valid scheme, throughput T*, degree bound max(⌈b_i/T⌉+2, 4).
func TestCyclicOpenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(15)
		ins := randomOpenInstance(rng, n)
		T := OptimalCyclicThroughput(ins)
		s, err := CyclicOpen(ins, T, nil)
		if err != nil {
			t.Fatalf("trial %d (%v, T=%v): %v", trial, ins, T, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if thr := s.Throughput(nil); !almostEq(thr, T) {
			t.Fatalf("trial %d (%v): throughput %v, want %v", trial, ins, thr, T)
		}
		for i := 0; i <= n; i++ {
			limit := DegreeLowerBound(ins.Bandwidth(i), T) + 2
			if limit < 4 {
				limit = 4
			}
			if deg := s.OutDegree(i); deg > limit {
				t.Fatalf("trial %d: node %d degree %d > max(⌈b/T⌉+2,4) = %d",
					trial, i, deg, limit)
			}
		}
	}
}

// TestCyclicOpenBelowOptimum: arbitrary feasible T must also work, and
// the cyclic throughput dominates the acyclic one.
func TestCyclicOpenBelowOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(12)
		ins := randomOpenInstance(rng, n)
		T := OptimalCyclicThroughput(ins) * (0.2 + 0.8*rng.Float64())
		s, err := CyclicOpen(ins, T, nil)
		if err != nil {
			t.Fatalf("trial %d (T=%v): %v", trial, T, err)
		}
		if thr := s.Throughput(nil); thr < T-1e-9*(1+T) {
			t.Fatalf("trial %d: throughput %v < requested %v", trial, thr, T)
		}
	}
}

// TestCyclicVsAcyclicOpenRatio checks Theorem 6.1 on random open
// instances: T*_ac / T* ≥ 1 − 1/n.
func TestCyclicVsAcyclicOpenRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(20)
		ins := randomOpenInstance(rng, n)
		tac := AcyclicOpenOptimalThroughput(ins)
		tcy := OptimalCyclicThroughput(ins)
		if tcy <= 0 {
			continue
		}
		if ratio := tac / tcy; ratio < AcyclicRatioLowerBoundOpen(n)-1e-9 {
			t.Fatalf("trial %d (%v): ratio %v < 1-1/%d", trial, ins, ratio, n)
		}
	}
}

// TestCyclicOpenRejects: guarded instances and excessive T are refused.
func TestCyclicOpenRejects(t *testing.T) {
	guarded := platform.MustInstance(4, []float64{2}, []float64{1})
	if _, err := CyclicOpen(guarded, 1, nil); err == nil {
		t.Fatal("expected error on guarded instance")
	}
	open := platform.MustInstance(5, []float64{5, 3, 2}, nil)
	if _, err := CyclicOpen(open, 5.1, nil); err == nil {
		t.Fatal("expected error above T*")
	}
}
