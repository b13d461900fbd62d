package core

import (
	"errors"
	"math/big"

	"repro/internal/platform"
)

// searchIterations bounds the dichotomic search. Each GreedyTest is
// Θ(n+m); the bracket normally collapses to the decision fuzz
// (searchDone) after ~27 halvings, so the cap only binds when no
// feasible word is ever found.
const searchIterations = 100

// searchDone is the relative bracket width at which the search stops:
// GreedyTest decides feasibility with a 1e-9-relative slack (tol), so
// probes inside a 4·tol band answer noise, not information — the seed's
// fixed 100 halvings spent ~70 probes below that resolution, which is
// why small instances used to cost 5× the n=1000 fast path. The final
// refinement (WordThroughput of the winning word) is exact per-word
// regardless, so tightening the bracket further cannot improve the
// certified result by more than the greedy fuzz it is already subject
// to.
func searchDone(lo, hi float64) bool { return hi-lo <= 4*tol(hi) }

// OptimalAcyclicThroughput computes T*_ac for a general (open + guarded)
// instance by dichotomic search over GreedyTest, as prescribed after
// Theorem 4.1 ("there is no closed formula for T*_ac, but the algorithm
// can be combined with a dichotomic search").
//
// The returned word is a valid increasing order achieving the returned
// throughput; the throughput itself is refined to the exact per-word
// optimum WordThroughput(word), which is achievable and never exceeds
// T*_ac, so the result is a certified acyclic throughput within bisection
// resolution of the true optimum.
func OptimalAcyclicThroughput(ins *platform.Instance) (float64, Word, error) {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	return OptimalAcyclicThroughputWithWorkspace(ins, ws)
}

// OptimalAcyclicThroughputWithWorkspace is the dichotomic search on
// reusable scratch: feasibility probes write their candidate words into
// the workspace's double buffer (the current survivor lives in one
// buffer while probes overwrite the other) instead of allocating one
// word per probe. Only the winning word is copied out, so the returned
// Word is stable and safe to retain.
func OptimalAcyclicThroughputWithWorkspace(ins *platform.Instance, ws *Workspace) (float64, Word, error) {
	ws = ws.ensure()
	if ins.Total() == 1 {
		return ins.B0, Word{}, nil
	}
	// probe runs one Algorithm 2 feasibility test on the scratch buffer;
	// a successful word is parked via keepWord so later probes cannot
	// clobber it.
	probe := func(T float64) (Word, bool) {
		w, ok := ws.probeWord(ins, T)
		if ok {
			w = ws.keepWord(w)
		}
		return w, ok
	}
	hi := OptimalCyclicThroughput(ins) // T*_ac ≤ T* (acyclic ⊂ cyclic)
	if w, ok := probe(hi); ok {
		return refineWord(ins, w, hi, ws), cloneWord(w), nil
	}
	lo := 0.0
	var loWord Word
	// Descending rungs before committing to the full bracket: on most
	// instances the acyclic optimum sits within a hair of the cyclic one
	// (the 5/7 worst case of Theorem 6.2 needs an adversarial platform),
	// so probing just below hi usually captures T*_ac in a bracket a
	// thousandth the width of [5/7·hi, hi] — each failed rung costs one
	// probe and tightens hi instead. The last rung is the Theorem 6.2
	// guarantee itself (shaved by float tolerance), falling back to 0
	// when even that is shaved away.
	for _, frac := range [...]float64{1 - 1e-6, 1 - 1e-3, WorstCaseRatio * (1 - 1e-9)} {
		rung := hi * frac
		if rung >= hi {
			continue
		}
		if w, ok := probe(rung); ok {
			lo, loWord = rung, w
			break
		}
		hi = rung
	}
	T, word := searchLoop(ins, ws, lo, loWord, hi)
	if word == nil {
		return 0, nil, errors.New("core: no feasible acyclic throughput found")
	}
	return T, cloneWord(word), nil
}

// searchLoop is the dichotomic core shared by the from-scratch search
// and the incremental repair: bisection on [lo, hi] over the Algorithm 2
// feasibility probe, stopping once the bracket is inside the greedy
// decision fuzz (searchDone) or collapses at float resolution. loWord
// optionally witnesses feasibility at lo. It returns the refined
// optimum and the winning word (workspace-buffered — clone before
// retaining); a nil word return means no feasible throughput was found.
func searchLoop(ins *platform.Instance, ws *Workspace, lo float64, loWord Word, hi float64) (float64, Word) {
	for iter := 0; iter < searchIterations && !searchDone(lo, hi); iter++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break // bracket exhausted at float resolution
		}
		if w, ok := ws.probeWord(ins, mid); ok {
			lo, loWord = mid, ws.keepWord(w)
		} else {
			hi = mid
		}
	}
	if loWord == nil {
		return 0, nil
	}
	return refineWord(ins, loWord, lo, ws), loWord
}

// cloneWord copies a workspace-buffered word into stable storage.
func cloneWord(w Word) Word { return append(Word(nil), w...) }

// refineWord returns the per-word exact optimum when it improves on the
// bisection value (it always should — the word is feasible at lo, so
// WordThroughput(word) ≥ lo).
func refineWord(ins *platform.Instance, w Word, lo float64, ws *Workspace) float64 {
	if t := WordThroughputWithWorkspace(ins, w, ws); t > lo {
		return t
	}
	return lo
}

// OptimalAcyclicThroughputExact runs the same dichotomic search and then
// evaluates the winning word with exact rational arithmetic. The result
// is exactly achievable (it is T*_ac(word) for a valid word); it equals
// the global T*_ac whenever the bisection bracket, 2^-100 of T*, contains
// no other word's breakpoint — which holds for every instance the test
// suite cross-checks against exhaustive enumeration.
func OptimalAcyclicThroughputExact(ins *platform.Instance) (*big.Rat, Word, error) {
	_, w, err := OptimalAcyclicThroughput(ins)
	if err != nil {
		return nil, nil, err
	}
	return WordThroughputExact(ins, w), w, nil
}

// FeasibleAcyclic reports whether throughput T is acyclically achievable,
// i.e. T ≤ T*_ac (Theorem 4.1's linear-time decision).
func FeasibleAcyclic(ins *platform.Instance, T float64) bool {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	return FeasibleAcyclicWithWorkspace(ins, T, ws)
}

// FeasibleAcyclicWithWorkspace is the Algorithm 2 decision on reusable
// scratch — the witness word lands in the workspace buffer and is
// discarded, so repeated probing allocates nothing.
func FeasibleAcyclicWithWorkspace(ins *platform.Instance, T float64, ws *Workspace) bool {
	_, ok := ws.ensure().probeWord(ins, T)
	return ok
}
