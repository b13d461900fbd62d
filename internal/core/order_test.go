package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

// TestLemma42IncreasingOrdersDominate machine-checks Lemma 4.2 on
// hundreds of small instances: the best throughput over ALL (n+m)!
// orders equals the best over increasing orders only.
func TestLemma42IncreasingOrdersDominate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 150; trial++ {
		nn := rng.Intn(4)
		mm := rng.Intn(4)
		if nn+mm == 0 {
			nn = 2
		}
		ins := smallRatInstance(rng, nn, mm)
		allOrders, bestOrder, err := ExhaustiveOrderOptimum(ins)
		if err != nil {
			t.Fatal(err)
		}
		increasing, _, err := ExhaustiveAcyclicOptimumFloat(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(allOrders, increasing) {
			t.Fatalf("trial %d (%v): all-orders optimum %v (order %v) ≠ increasing-orders optimum %v",
				trial, ins, allOrders, bestOrder, increasing)
		}
	}
}

// TestOrderThroughputMatchesWordOnIncreasingOrders: an increasing order
// evaluated through the generic path, which divides on every Lemma 4.4
// candidate, equals the word evaluation's one hull pass bit for bit.
// Words run from a few letters to 1,000, either side of 300: shuffled,
// built by GreedyTest at and below T*, and the canonical ω1/ω2, on every
// bandwidth law and on homogeneous instances whose candidates tie.
func TestOrderThroughputMatchesWordOnIncreasingOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	check := func(what string, ins *platform.Instance, w Word) {
		t.Helper()
		got := WordThroughput(ins, w, nil)
		want := OrderThroughput(ins, w.Order(ins))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: word eval %v ≠ order eval %v (%d letters: %s)", what, got, want, len(w), w)
		}
	}
	shuffled := func(nn, mm int) Word {
		w := append(AllOpenWord(nn), make(Word, mm)...)
		for i := nn; i < nn+mm; i++ {
			w[i] = platform.Guarded
		}
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		return w
	}
	for trial := 0; trial < 100; trial++ {
		nn := rng.Intn(5)
		mm := rng.Intn(5)
		if nn+mm == 0 {
			mm = 2
		}
		check("small", randomMixedInstance(rng, nn, mm), shuffled(nn, mm))
	}

	laws := distribution.All()
	for _, bw := range []float64{1, 0.1, 1.0 / 3} {
		laws = append(laws, distribution.Homogeneous{Value: bw})
	}
	for _, law := range laws {
		for _, size := range []int{40, 299, 302, 650, 1000} {
			ins, err := generator.Random(law, size, 0.2+0.7*rng.Float64(), rng)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s, %d receivers", law.Name(), size)
			check(what+", shuffled", ins, shuffled(ins.N(), ins.M()))
			for _, w := range CanonicalWords(ins) {
				check(what+", canonical", ins, w)
			}
			tStar := OptimalCyclicThroughput(ins)
			for _, f := range []float64{1, 1 - 1e-9, 0.999, 0.9, WorstCaseRatio} {
				if w, ok := GreedyTest(ins, f*tStar); ok {
					check(fmt.Sprintf("%s, greedy at %v·T*", what, f), ins, w)
				}
			}
		}
	}
	for _, nm := range [][2]int{{1, 999}, {999, 1}, {300, 700}, {500, 500}} {
		ins, err := generator.TightHomogeneous(nm[0], nm[1], 0.5)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("tight homogeneous n=%d m=%d", nm[0], nm[1])
		check(what+", shuffled", ins, shuffled(nm[0], nm[1]))
		for _, w := range CanonicalWords(ins) {
			check(what+", canonical", ins, w)
		}
	}
}

// TestOrderThroughputNonIncreasingOrderIsWorse: on the Figure 1
// instance, the non-increasing order σ = 041235 (the paper's example of
// a NON-increasing order in §IV-A) cannot beat its increasing
// counterpart σ = 031245.
func TestOrderThroughputNonIncreasingOrderIsWorse(t *testing.T) {
	ins := figure1()
	// 041235: guarded node 4 (bw 1) placed before guarded node 3 (bw 4).
	nonInc := OrderThroughput(ins, []int{4, 1, 2, 3, 5})
	inc := OrderThroughput(ins, []int{3, 1, 2, 4, 5})
	if nonInc > inc+1e-9 {
		t.Fatalf("non-increasing order beats increasing: %v > %v", nonInc, inc)
	}
}

func TestOrderThroughputPanicsOnBadOrder(t *testing.T) {
	ins := figure1()
	for _, bad := range [][]int{
		{1, 2, 3, 4},    // wrong length
		{1, 1, 2, 3, 4}, // duplicate
		{0, 1, 2, 3, 4}, // includes the source
		{1, 2, 3, 4, 9}, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for order %v", bad)
				}
			}()
			OrderThroughput(ins, bad)
		}()
	}
}

// TestBuildSchemeIsConservative: the Lemma 4.6 builder always produces
// conservative solutions (the property its degree bounds rest on).
func TestBuildSchemeIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		nn := rng.Intn(7)
		mm := rng.Intn(7)
		if nn+mm == 0 {
			nn = 1
		}
		ins := randomMixedInstance(rng, nn, mm)
		T, w, err := OptimalAcyclicThroughput(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildScheme(ins, w, T*(1-1e-12), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !IsConservative(s, w.Order(ins)) {
			t.Fatalf("trial %d (%v, word %s): BuildScheme output not conservative", trial, ins, w)
		}
	}
}

// TestIsConservativeDetectsViolation reconstructs the paper's Figure 4:
// the non-conservative scheme where the source feeds open node C1 while
// guarded node C3 still has capacity.
func TestIsConservativeDetectsViolation(t *testing.T) {
	ins := figure1()
	s := NewScheme(ins)
	// Figure 4 (order σ = 031245, T = 4): C0→C3 4, C0→C1 2, C3→C1 2,
	// C3→C2 2 (wasting guarded capacity timing), C1→C2 2, C2→C4 4... the
	// key violation: C1 is fed 2 by the source while C3 could fully feed
	// it.
	s.Add(0, 3, 4)
	s.Add(0, 1, 2)
	s.Add(3, 1, 2)
	s.Add(3, 2, 2)
	s.Add(1, 2, 2)
	s.Add(1, 4, 3)
	s.Add(2, 4, 1)
	s.Add(2, 5, 4)
	order := []int{3, 1, 2, 4, 5}
	if IsConservative(s, order) {
		t.Fatal("Figure 4-style scheme reported conservative")
	}
}
