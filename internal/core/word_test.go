package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestParseWordGlyphs(t *testing.T) {
	w, err := ParseWord("○■ oG #")
	if err != nil {
		t.Fatal(err)
	}
	if w.String() != "○■○■■" {
		t.Fatalf("parsed %s", w)
	}
	if _, err := ParseWord("ox"); err == nil {
		t.Fatal("expected error on invalid letter")
	} else if !errors.Is(err, ErrInvalidWord) {
		// Part of the v2 API contract: rejections are typed, not stringly.
		t.Fatalf("err = %v, want ErrInvalidWord in chain", err)
	}
}

func TestWordCountsAndValidate(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	w, _ := ParseWord("gogog")
	if w.CountOpen() != 2 || w.CountGuarded() != 3 {
		t.Fatal("counts wrong")
	}
	if err := w.Validate(ins); err != nil {
		t.Fatal(err)
	}
	bad, _ := ParseWord("ggggg")
	if err := bad.Validate(ins); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestWordOrder(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	w, _ := ParseWord("gogog")
	order := w.Order(ins)
	want := []int{3, 1, 4, 2, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s := w.OrderString(ins); s != "031425" {
		t.Fatalf("OrderString = %s", s)
	}
}

func TestWordOrderStringLargeUsesSpaces(t *testing.T) {
	ins := platform.MustInstance(10, make([]float64, 11), nil)
	w := AllOpenWord(11)
	if s := w.OrderString(ins); s == "01234567891011" {
		t.Fatalf("ambiguous OrderString for multi-digit nodes: %s", s)
	}
}

func TestOmegaShapes(t *testing.T) {
	// ω1(2,3) = ○■○■■ (α = ⌊3/2⌋=1, then 3-1=2).
	w1, err := Omega1(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w1.String() != "○■○■■" {
		t.Fatalf("ω1(2,3) = %s", w1)
	}
	// ω2(2,3) = ■○■■○? β1 = ⌈2/3⌉ = 1, β2 = ⌈4/3⌉−⌈2/3⌉ = 1, β3 = 2−2 = 0.
	w2, err := Omega2(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w2.String() != "■○■○■" {
		t.Fatalf("ω2(2,3) = %s", w2)
	}
	// Degenerate shapes.
	if w, _ := Omega1(3, 0); w.String() != "○○○" {
		t.Fatalf("ω1(3,0) = %s", w)
	}
	if w, _ := Omega2(0, 2); w.String() != "■■" {
		t.Fatalf("ω2(0,2) = %s", w)
	}
	if _, err := Omega1(0, 2); err == nil {
		t.Fatal("ω1 needs n ≥ 1")
	}
	if _, err := Omega2(2, 0); err == nil {
		t.Fatal("ω2 needs m ≥ 1")
	}
}

// TestQuickOmegaBalance: for any (n, m), both ω words have exactly n ○
// and m ■, and their interleaving is balanced: every prefix of ω1 ending
// in ○ has seen ⌊i·m/n⌋ ■ after i ○ (the proof's definition).
func TestQuickOmegaBalance(t *testing.T) {
	f := func(a, b uint8) bool {
		n := int(a%20) + 1
		m := int(b % 20)
		w1, err := Omega1(n, m)
		if err != nil || w1.CountOpen() != n || w1.CountGuarded() != m {
			return false
		}
		// After the i-th ○, exactly ⌊i·m/n⌋ ■ have been placed... the
		// ■-block αi follows the i-th ○, so before the (i+1)-th ○ there
		// are ⌊i·m/n⌋ guarded letters.
		opens, guards := 0, 0
		for _, l := range w1 {
			if l == platform.Open {
				if guards != (opens)*m/n {
					return false
				}
				opens++
			} else {
				guards++
			}
		}
		if m == 0 {
			return true
		}
		w2, err := Omega2(n, m)
		return err == nil && w2.CountOpen() == n && w2.CountGuarded() == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickWordThroughputDominatedByOptimum: no word beats the
// dichotomic-search optimum.
func TestQuickWordThroughputDominatedByOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nn := rng.Intn(6)
		mm := rng.Intn(6)
		if nn+mm == 0 {
			nn = 1
		}
		ins := randomMixedInstance(rng, nn, mm)
		opt, _, err := OptimalAcyclicThroughput(ins)
		if err != nil {
			return false
		}
		// Random word of the right shape.
		word := make(Word, 0, nn+mm)
		word = append(word, AllOpenWord(nn)...)
		for i := 0; i < mm; i++ {
			word = append(word, platform.Guarded)
		}
		rng.Shuffle(len(word), func(i, j int) { word[i], word[j] = word[j], word[i] })
		return WordThroughput(ins, word) <= opt*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWordThroughputAgreesWithExact: the float hull pass agrees with the
// exact-rational enumeration (WordThroughputExact) to a few ulps on ω2
// words of 20 to 500 letters.
func TestWordThroughputAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		nn := 10 + rng.Intn(240)
		mm := 10 + rng.Intn(250)
		ins := randomMixedInstance(rng, nn, mm)
		w, err := Omega2(nn, mm)
		if err != nil {
			t.Fatal(err)
		}
		got := WordThroughput(ins, w)
		exact, _ := WordThroughputExact(ins, w).Float64()
		if rel := math.Abs(got-exact) / exact; rel > 1e-14 {
			t.Fatalf("trial %d (%d letters): hull %v vs exact %v, %.3g relative", trial, len(w), got, exact, rel)
		}
	}
}

func TestAllOpenWord(t *testing.T) {
	w := AllOpenWord(4)
	if w.String() != "○○○○" {
		t.Fatalf("AllOpenWord(4) = %s", w)
	}
	if len(AllOpenWord(0)) != 0 {
		t.Fatal("AllOpenWord(0) not empty")
	}
}
