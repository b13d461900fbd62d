package core

import (
	"fmt"
	"math/big"

	"repro/internal/platform"
)

// maxExhaustiveLetters caps exhaustive enumeration: C(22,11) ≈ 705k words,
// each evaluated in O(L²) — comfortably below a second. Larger instances
// must use the dichotomic search.
const maxExhaustiveLetters = 22

// ExhaustiveAcyclicOptimum enumerates every increasing order (all
// C(n+m, m) encoding words, per the Lemma 4.2 dominance) and returns the
// exact optimal acyclic throughput and a witness word. It is the ground
// truth the fast GreedyTest path is validated against; it errors out on
// instances with more than maxExhaustiveLetters receivers.
func ExhaustiveAcyclicOptimum(ins *platform.Instance) (*big.Rat, Word, error) {
	if ins.N()+ins.M() == 0 {
		r := new(big.Rat)
		r.SetFloat64(ins.B0)
		return r, Word{}, nil
	}
	var best *big.Rat
	var bestWord Word
	err := eachWord(ins.N(), ins.M(), func(w Word) {
		if t := WordThroughputExact(ins, w); best == nil || t.Cmp(best) > 0 {
			best, bestWord = t, append(Word(nil), w...)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return best, bestWord, nil
}

// ExhaustiveAcyclicOptimumFloat is the float64 variant (same enumeration,
// cheaper evaluation), used by the exhaustive solver and the worst-case
// explorer. Every word is evaluated on ws (nil: a private workspace).
func ExhaustiveAcyclicOptimumFloat(ins *platform.Instance, ws *Workspace) (float64, Word, error) {
	if ins.N()+ins.M() == 0 {
		return ins.B0, Word{}, nil
	}
	ws = ws.ensure()
	best := -1.0
	var bestWord Word
	err := eachWord(ins.N(), ins.M(), func(w Word) {
		if t := WordThroughput(ins, w, ws); t > best {
			best, bestWord = t, append(Word(nil), w...)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return best, bestWord, nil
}

// eachWord calls visit on each of the C(n+m, m) words of n open and m
// guarded letters, in lexicographic order with open before guarded.
// visit must not keep the word: its buffer is reused. It errors out,
// visiting nothing, beyond maxExhaustiveLetters letters.
func eachWord(n, m int, visit func(Word)) error {
	if n+m > maxExhaustiveLetters {
		return fmt.Errorf("core: exhaustive search limited to %d receivers, got %d", maxExhaustiveLetters, n+m)
	}
	word := make(Word, 0, n+m)
	var rec func(openLeft, guardedLeft int)
	rec = func(openLeft, guardedLeft int) {
		if openLeft == 0 && guardedLeft == 0 {
			visit(word)
			return
		}
		if openLeft > 0 {
			word = append(word, platform.Open)
			rec(openLeft-1, guardedLeft)
			word = word[:len(word)-1]
		}
		if guardedLeft > 0 {
			word = append(word, platform.Guarded)
			rec(openLeft, guardedLeft-1)
			word = word[:len(word)-1]
		}
	}
	rec(n, m)
	return nil
}
