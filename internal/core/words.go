package core

import (
	"fmt"

	"repro/internal/platform"
)

// Omega1 returns the canonical word ω1(n,m) of Theorem 6.2's proof:
//
//	ω1 = ○■^{α1} ○■^{α2} ... ○■^{αn},  αi = ⌊i·m/n⌋ − ⌊(i−1)·m/n⌋,
//
// which interleaves the m guarded letters as evenly as possible after the
// open letters. It requires n ≥ 1 (with m = 0 it degenerates to ○^n).
func Omega1(n, m int) (Word, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: Omega1 needs n ≥ 1, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("core: Omega1 needs m ≥ 0, got %d", m)
	}
	w := make(Word, 0, n+m)
	for i := 1; i <= n; i++ {
		w = append(w, platform.Open)
		ai := i*m/n - (i-1)*m/n
		for k := 0; k < ai; k++ {
			w = append(w, platform.Guarded)
		}
	}
	return w, nil
}

// Omega2 returns the canonical word ω2(n,m) of Theorem 6.2's proof:
//
//	ω2 = ■○^{β1} ■○^{β2} ... ■○^{βm},  βi = ⌈i·n/m⌉ − ⌈(i−1)·n/m⌉,
//
// which interleaves the n open letters as evenly as possible after the
// guarded letters. It requires m ≥ 1 (with n = 0 it degenerates to ■^m).
func Omega2(n, m int) (Word, error) {
	if m < 1 {
		return nil, fmt.Errorf("core: Omega2 needs m ≥ 1, got %d", m)
	}
	if n < 0 {
		return nil, fmt.Errorf("core: Omega2 needs n ≥ 0, got %d", n)
	}
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }
	w := make(Word, 0, n+m)
	for i := 1; i <= m; i++ {
		w = append(w, platform.Guarded)
		bi := ceilDiv(i*n, m) - ceilDiv((i-1)*n, m)
		for k := 0; k < bi; k++ {
			w = append(w, platform.Open)
		}
	}
	return w, nil
}

// CanonicalWords returns the ω1/ω2 pair applicable to the instance (one
// of them may be absent when n = 0 or m = 0).
func CanonicalWords(ins *platform.Instance) []Word {
	n, m := ins.N(), ins.M()
	var ws []Word
	if n >= 1 {
		if w, err := Omega1(n, m); err == nil {
			ws = append(ws, w)
		}
	}
	if m >= 1 {
		if w, err := Omega2(n, m); err == nil {
			ws = append(ws, w)
		}
	}
	return ws
}

// BestCanonicalThroughput returns max(T*_ac(ω1), T*_ac(ω2)) together with
// the winning word — the "blue line" series of the paper's Figure 19.
// Each word is evaluated on ws (nil: a private workspace).
func BestCanonicalThroughput(ins *platform.Instance, ws *Workspace) (float64, Word, error) {
	cands := CanonicalWords(ins)
	if len(cands) == 0 {
		return 0, nil, fmt.Errorf("core: instance %v admits no canonical word", ins)
	}
	bestT := -1.0
	var bestW Word
	for _, w := range cands {
		if t := WordThroughput(ins, w, ws); t > bestT {
			bestT, bestW = t, w
		}
	}
	return bestT, bestW, nil
}

// TheoremWord picks the single word used in the case analysis of Theorem
// 6.2 — the "red line" series of Figure 19: ω1 when the (average) open
// bandwidth reaches the cyclic optimum (the homogeneous proof's "o ≥ 1"
// case after normalizing T* to 1), ω2 otherwise.
func TheoremWord(ins *platform.Instance) (Word, error) {
	n, m := ins.N(), ins.M()
	if n == 0 {
		return Omega2(n, m)
	}
	if m == 0 {
		return Omega1(n, m)
	}
	avgOpen := ins.SumOpen() / float64(n)
	if avgOpen >= OptimalCyclicThroughput(ins) {
		return Omega1(n, m)
	}
	return Omega2(n, m)
}

// TheoremWordThroughput evaluates the TheoremWord series, T*_ac of the
// Theorem 6.2 word, on ws (nil: a private workspace).
func TheoremWordThroughput(ins *platform.Instance, ws *Workspace) (float64, Word, error) {
	w, err := TheoremWord(ins)
	if err != nil {
		return 0, nil, err
	}
	return WordThroughput(ins, w, ws), w, nil
}
