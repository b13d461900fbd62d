package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/generator"
	"repro/internal/platform"
)

// TestWorstCase57 reproduces Theorem 6.2's tight instance: with
// ε = 1/14, T* = 1 and T*_ac = 5/7 exactly, achieved by both σ1 = 0123
// and σ2 = 0213.
func TestWorstCase57(t *testing.T) {
	ins := generator.WorstCase57(1.0 / 14)
	if tc := OptimalCyclicThroughput(ins); !almostEq(tc, 1) {
		t.Fatalf("T* = %v, want 1", tc)
	}
	tac, w, err := OptimalAcyclicThroughput(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tac, 5.0/7) {
		t.Fatalf("T*_ac = %v (word %s), want 5/7", tac, w)
	}
	// The two orderings of the proof: σ1 = ○■■ reaches (2/3)(1+ε) and
	// σ2 = ■○■ reaches 3/4 − ε/2.
	eps := 1.0 / 14
	w1, _ := ParseWord("ogg")
	if got := WordThroughput(ins, w1, nil); !almostEq(got, (2.0/3)*(1+eps)) {
		t.Errorf("T*_ac(σ1) = %v, want %v", got, (2.0/3)*(1+eps))
	}
	w2, _ := ParseWord("gog")
	if got := WordThroughput(ins, w2, nil); !almostEq(got, 3.0/4-eps/2) {
		t.Errorf("T*_ac(σ2) = %v, want %v", got, 3.0/4-eps/2)
	}
}

// TestWorstCase57OtherEps: for ε ≠ 1/14 the ratio stays strictly above
// 5/7 (1/14 is the equalizing choice).
func TestWorstCase57OtherEps(t *testing.T) {
	for _, eps := range []float64{0.01, 0.05, 1.0 / 14, 0.1, 0.2} {
		ins := generator.WorstCase57(eps)
		tac, _, err := OptimalAcyclicThroughput(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratio := tac / OptimalCyclicThroughput(ins)
		if ratio < 5.0/7-1e-9 {
			t.Fatalf("eps=%v: ratio %v below 5/7", eps, ratio)
		}
	}
}

// TestFiveSeventhBoundRandom asserts the Theorem 6.2 bound
// T*_ac/T* ≥ 5/7 on a broad sample of random mixed instances.
func TestFiveSeventhBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	worst := 1.0
	for trial := 0; trial < 400; trial++ {
		nn := rng.Intn(9)
		mm := rng.Intn(9)
		if nn+mm == 0 {
			nn = 1
		}
		ins := randomMixedInstance(rng, nn, mm)
		tc := OptimalCyclicThroughput(ins)
		if tc <= 0 {
			continue
		}
		tac, _, err := OptimalAcyclicThroughput(ins, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ratio := tac / tc
		if ratio < WorstCaseRatio-1e-9 {
			t.Fatalf("trial %d (%v): ratio %v < 5/7", trial, ins, ratio)
		}
		if ratio < worst {
			worst = ratio
		}
	}
	t.Logf("worst observed acyclic/cyclic ratio over 400 random instances: %.4f", worst)
}

// TestSqrt41Family reproduces Theorem 6.3: on I(α, k) with α ≈ (√41−3)/8,
// T* = 1 while T*_ac stays below (1+√41)/8 + ε ≈ 0.9251, for every k —
// i.e. the acyclic gap does not vanish on large instances.
func TestSqrt41Family(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		ins := generator.Sqrt41Default(k)
		if tc := OptimalCyclicThroughput(ins); !almostEq(tc, 1) {
			t.Fatalf("k=%d: T* = %v, want 1", k, tc)
		}
		tac, _, err := OptimalAcyclicThroughput(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		// α = 17/40 is a rational approximation, so allow a small slack
		// above the exact limit.
		if tac > AsymptoticWorstCaseRatio+5e-3 {
			t.Fatalf("k=%d: T*_ac = %v exceeds (1+√41)/8 = %v", k, tac, AsymptoticWorstCaseRatio)
		}
		if tac < WorstCaseRatio-1e-9 {
			t.Fatalf("k=%d: T*_ac = %v below the universal 5/7 bound", k, tac)
		}
	}
}

// TestSqrt41UpperEnvelope checks the f/g envelope analysis in the proof
// of Theorem 6.3: T*_ac ≤ max(f(⌊1/α⌋), g(⌈1/α⌉)) with
// f(x) = (αx+1)/2 and g(x) = (αx + 1/α + 1)/(x+2).
func TestSqrt41UpperEnvelope(t *testing.T) {
	alpha := (math.Sqrt(41) - 3) / 8
	f := func(x float64) float64 { return (alpha*x + 1) / 2 }
	g := func(x float64) float64 { return (alpha*x + 1/alpha + 1) / (x + 2) }
	if fl := f(2); !almostEq(fl, (1+math.Sqrt(41))/8) {
		t.Errorf("f(2) = %v, want (1+√41)/8 = %v", fl, (1+math.Sqrt(41))/8)
	}
	if gl := g(3); !almostEq(gl, (1+math.Sqrt(41))/8) {
		t.Errorf("g(3) = %v, want (1+√41)/8 = %v", gl, (1+math.Sqrt(41))/8)
	}
}

// TestFigure6UnboundedDegree verifies the Figure 6 phenomenon: the
// optimal cyclic throughput of the instance is 1, and any scheme
// reaching it forces the source to serve all m guarded nodes directly
// (outdegree m, against ⌈b0/T*⌉ = 1). We verify the positive direction —
// the direct scheme achieves T* — and that dropping any source→guarded
// edge caps some guarded node's max-flow below T*.
func TestFigure6UnboundedDegree(t *testing.T) {
	const m = 6
	ins, err := generator.Figure6(m)
	if err != nil {
		t.Fatal(err)
	}
	if tc := OptimalCyclicThroughput(ins); !almostEq(tc, 1) {
		t.Fatalf("T* = %v, want 1", tc)
	}
	// The optimal scheme: source sends 1/m to each guarded node plus
	// (m-1)/m... no: source b0 = 1 splits as 1/m to each of the m guarded
	// nodes; the open node (bandwidth m-1) replicates everything onward.
	s := NewScheme(ins)
	for g := 2; g <= m+1; g++ {
		s.Add(0, g, 1.0/m)
	}
	// Each guarded node forwards its fresh 1/m to the open node C1.
	for g := 2; g <= m+1; g++ {
		s.Add(g, 1, 1.0/m)
	}
	// The open node sends everything it has to every guarded node:
	// each guarded node needs (m-1)/m more.
	for g := 2; g <= m+1; g++ {
		s.Add(1, g, float64(m-1)/m)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if thr := s.Throughput(nil); !almostEq(thr, 1) {
		t.Fatalf("throughput = %v, want 1", thr)
	}
	if deg := s.OutDegree(0); deg != m {
		t.Fatalf("source outdegree = %d, want m = %d", deg, m)
	}
	if lb := DegreeLowerBound(ins.B0, 1); lb != 1 {
		t.Fatalf("⌈b0/T*⌉ = %d, want 1", lb)
	}
	// Acyclic optimum is strictly below 1 on this instance.
	tac, _, err := OptimalAcyclicThroughput(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tac >= 1-1e-9 {
		t.Fatalf("T*_ac = %v, expected < 1", tac)
	}
}

// TestTightHomogeneousRatioFloor sweeps small tight homogeneous
// instances (the Figure 7 family) and checks 5/7 ≤ ratio ≤ 1.
func TestTightHomogeneousRatioFloor(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for m := 0; m <= 8; m++ {
			for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
				ins, err := generator.TightHomogeneous(n, m, frac*float64(n))
				if err != nil {
					t.Fatal(err)
				}
				tc := OptimalCyclicThroughput(ins)
				if !almostEq(tc, 1) {
					t.Fatalf("n=%d m=%d Δ=%v: T* = %v, want 1 (tight)", n, m, frac*float64(n), tc)
				}
				tac, _, err := OptimalAcyclicThroughput(ins, nil)
				if err != nil {
					t.Fatal(err)
				}
				if tac < WorstCaseRatio-1e-9 || tac > 1+1e-9 {
					t.Fatalf("n=%d m=%d Δ=%v: T*_ac = %v outside [5/7, 1]", n, m, frac*float64(n), tac)
				}
			}
		}
	}
}

// TestCanonicalWordsBound verifies the constructive half of Theorem 6.2
// on tight homogeneous instances: max(T(ω1), T(ω2)) ≥ 5/7.
func TestCanonicalWordsBound(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for m := 0; m <= 10; m++ {
			for _, frac := range []float64{0, 0.5, 1} {
				ins, err := generator.TightHomogeneous(n, m, frac*float64(n))
				if err != nil {
					t.Fatal(err)
				}
				best, w, err := BestCanonicalThroughput(ins, nil)
				if err != nil {
					t.Fatal(err)
				}
				if best < WorstCaseRatio-1e-9 {
					t.Fatalf("n=%d m=%d Δ=%v: best canonical word %s reaches only %v < 5/7",
						n, m, frac*float64(n), w, best)
				}
			}
		}
	}
}

// TestTheoremWordChoice confirms the proof's dispatch rule on the
// homogeneous extremes: open-rich instances use ω1, guarded-rich use ω2.
func TestTheoremWordChoice(t *testing.T) {
	rich, err := generator.TightHomogeneous(4, 2, 4) // Δ=n ⇒ o=(m-1+n)/n ≥ 1
	if err != nil {
		t.Fatal(err)
	}
	w, err := TheoremWord(rich)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != platform.Open {
		t.Errorf("open-rich instance should use ω1 (starts ○), got %s", w)
	}
	poor, err := generator.TightHomogeneous(6, 3, 0) // o=(m-1)/n < 1
	if err != nil {
		t.Fatal(err)
	}
	w, err = TheoremWord(poor)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != platform.Guarded {
		t.Errorf("guarded-rich instance should use ω2 (starts ■), got %s", w)
	}
}
