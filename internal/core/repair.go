package core

import "repro/internal/platform"

// Incremental repair: re-solving after platform churn.
//
// The churn simulator mutates a live instance (node arrivals,
// departures, bandwidth rescales) and needs the new optimal acyclic
// scheme after every event. A full SolveAcyclic dichotomic search
// brackets T*_ac from scratch with ~100 Algorithm 2 probes; after a
// small mutation the previous solution is usually still nearly
// optimal, so RepairAcyclic warm-starts the search instead:
//
//  1. the previous encoding word is adapted to the new class counts
//     (AdaptWord) — any valid word is feasible at *some* throughput,
//     so the adapted word's exact per-word optimum WordThroughput(w₀)
//     is an achievable lower bound T₀;
//  2. one confirmation probe just above T₀'s decision fuzz certifies
//     that the optimum has not moved (the common case, one probe); if
//     it has, the shared bisection (searchLoop) runs on the remaining
//     bracket [T₀, T*] instead of from scratch;
//  3. the winning word's scheme is built and *certified* by cut
//     (Scheme.Certify: for an acyclic scheme the throughput is exactly
//     the smallest receiver in-rate); if it deviates from the claimed
//     one beyond tolerance, the repair is discarded and a full
//     SolveAcyclic runs (fellBack = true).
//
// The contract tested by the churn property suite: the repaired
// scheme's verified throughput equals a full re-solve's within float
// tolerance on every event of every trace.

// AdaptWord returns a valid word for an instance with n open and m
// guarded nodes, derived from prev by trimming surplus class letters
// from the tail and appending missing ones. The adapted word preserves
// prev's prefix structure — after one churn event most of the order is
// still near-optimal — and is always shape-valid, so its per-word
// optimum is an achievable warm-start throughput.
func AdaptWord(prev Word, n, m int) Word {
	w := make(Word, 0, n+m)
	haveO, haveG := 0, 0
	for _, l := range prev {
		if l == platform.Open {
			if haveO < n {
				w = append(w, platform.Open)
				haveO++
			}
		} else if haveG < m {
			w = append(w, platform.Guarded)
			haveG++
		}
	}
	for ; haveO < n; haveO++ {
		w = append(w, platform.Open)
	}
	for ; haveG < m; haveG++ {
		w = append(w, platform.Guarded)
	}
	return w
}

// RepairResult is the outcome of an incremental re-solve.
type RepairResult struct {
	// T is the computed optimal acyclic throughput.
	T float64
	// Scheme is the materialized low-degree scheme.
	Scheme *Scheme
	// Word is the winning encoding word in stable storage — retain it
	// as the warm start for the next event.
	Word Word
	// Verified is Scheme's throughput as Scheme.Certify measures it,
	// the smallest receiver in-rate, on both paths. On the warm-start
	// path T−tol(T) ≤ Verified ≤ T+tol(T) is enforced, the lower bound
	// decided exactly (deviation triggers the fallback); on the
	// fallback path the full re-solve *is* the reference, so Verified
	// is simply the measured value (float dust can put it marginally
	// past tol on large instances).
	Verified float64
	// FellBack reports that the warm-started result failed
	// verification (or there was nothing to warm-start from) and the
	// result comes from a full re-solve instead.
	FellBack bool
}

// RepairAcyclic computes the optimal acyclic throughput and scheme for
// ins, warm-starting from prev, the encoding word of a solution to the
// pre-churn instance. A nil or empty prev degrades to a full solve.
// Probes, build and verify share ws (nil: a private workspace).
func RepairAcyclic(ins *platform.Instance, prev Word, ws *Workspace) (RepairResult, error) {
	ws = ws.ensure()
	if len(prev) == 0 || ins.Total() == 1 {
		return fullAcyclicWithWord(ins, ws)
	}

	w0 := AdaptWord(prev, ins.N(), ins.M())
	T0 := WordThroughput(ins, w0, ws)
	hi := OptimalCyclicThroughput(ins) // T*_ac ≤ T* (acyclic ⊂ cyclic)

	best, bestWord := T0, w0
	if probed, ok := ws.probeWord(ins, hi); ok {
		// The cyclic optimum itself is acyclically feasible: done.
		bestWord = ws.keepWord(probed)
		best = claimAtTStar(ins, bestWord, hi, ws)
	} else if cand := T0 + 3*tol(T0); cand < hi {
		// One confirmation probe just above the greedy decision fuzz:
		// churn events usually leave the optimum within tolerance of
		// the adapted word's breakpoint T0, in which case this single
		// failed probe certifies T0 and no bisection runs at all. A
		// success means the optimum moved materially — warm-bisect the
		// remaining bracket [cand, hi].
		if probed, ok := ws.probeWord(ins, cand); ok {
			w := ws.keepWord(probed)
			if refined, word := searchLoop(ins, ws, cand, w, hi); word != nil && refined > best {
				best, bestWord = refined, word
			}
		}
	}

	built, scheme, err := BuildSchemeShaved(ins, bestWord, best, ws, BuildScheme)
	if err == nil {
		best = built
		// The acceptance band is ±tol(best): Certify decides its lower
		// edge exactly, the upper edge is a float comparison.
		verified, ok := scheme.Certify(best, tol(best)/best, ws)
		if ok && verified <= best+tol(best) {
			return RepairResult{T: best, Scheme: scheme, Word: cloneWord(bestWord), Verified: verified}, nil
		}
	}
	// Repaired scheme failed to build or to verify: full re-solve.
	return fullAcyclicWithWord(ins, ws)
}

// fullAcyclicWithWord is SolveAcyclic keeping the winning word (so a
// repair that fell back still hands the next round a real warm start)
// and measuring the scheme's certified throughput, so every
// RepairResult carries one.
func fullAcyclicWithWord(ins *platform.Instance, ws *Workspace) (RepairResult, error) {
	T, scheme, w, err := SolveAcyclic(ins, ws)
	if err != nil {
		return RepairResult{}, err
	}
	// Certified for its value alone, with the repair's band: a band of
	// zero would send every receiver to Certify's big.Rat pass.
	verified, _ := scheme.Certify(T, tol(T)/T, ws)
	return RepairResult{T: T, Scheme: scheme, Word: w, Verified: verified, FellBack: true}, nil
}
