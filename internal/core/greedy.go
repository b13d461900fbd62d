package core

import (
	"math/big"

	"repro/internal/platform"
)

// TraceStep records the greedy state after one letter has been appended,
// in the shape of the paper's Table I: the prefix word so far and the
// available open bandwidth O(π), available guarded bandwidth G(π) and
// cumulative open→open transfer W(π) of Lemma 4.4.
type TraceStep struct {
	Prefix  Word
	Letter  platform.Kind
	O, G, W float64
}

// GreedyTest implements Algorithm 2 (Section IV-B): it decides whether an
// acyclic broadcast scheme of throughput T exists for the instance and,
// when it does, returns a valid encoding word. The decision is greedy —
// append ■ (the next guarded node) whenever possible, ○ otherwise — and
// Lemma 4.5 shows this is complete: GreedyTest fails only when no
// increasing order reaches throughput T.
//
// Runs in Θ(n+m) time, matching Theorem 4.1's linear-time claim.
func GreedyTest(ins *platform.Instance, T float64) (Word, bool) {
	w, _, ok := greedyTest(ins, T, false, make(Word, 0, ins.N()+ins.M()))
	return w, ok
}

// GreedyTestTrace is GreedyTest plus the per-step (O, G, W) table; it
// reproduces Table I when run on the Figure 1 instance with T = 4.
func GreedyTestTrace(ins *platform.Instance, T float64) (Word, []TraceStep, bool) {
	return greedyTest(ins, T, true, make(Word, 0, ins.N()+ins.M()))
}

// greedyTest is the allocation-free core of Algorithm 2: it runs the
// greedy decision writing letters into word (whose backing array is
// reused — pass a workspace buffer to probe repeatedly without churn)
// and returns the possibly-reallocated slice, plus the per-step table
// when trace is set. The returned word aliases that buffer; callers
// retaining it across further probes must copy it or park it with
// Workspace.keepWord.
func greedyTest(ins *platform.Instance, T float64, trace bool, word Word) (Word, []TraceStep, bool) {
	n, m := ins.N(), ins.M()
	if T <= 0 {
		return nil, nil, false
	}
	eps := tol(T)
	// bO[k] = bandwidth of the k-th open node (1-based), bG likewise.
	// Hoisted locals (slices, T−eps) keep the Θ(n+m) probe loop free of
	// repeated pointer loads — this loop is the single hottest region of
	// the whole sweep profile.
	bO, bG := ins.OpenBW, ins.GuardedBW
	Tme := T - eps
	O := ins.B0
	G := 0.0
	W := 0.0
	i, j := 0, 0 // open and guarded letters already placed
	word = word[:0]
	var steps []TraceStep

	for i+j < n+m {
		if O+G < Tme {
			return word, steps, false
		}
		letter := platform.Guarded
		if i != n {
			switch {
			case j == m:
				letter = platform.Open
			case j == m-1:
				// One guarded node left: pick whichever of the two
				// candidate nodes has the larger bandwidth, unless open
				// capacity cannot cover the guarded node (lines 8-11).
				if O < Tme || bG[j] < bO[i]-eps {
					letter = platform.Open
				}
			default:
				// General case (lines 12-13): take ■ unless it is
				// unaffordable now (O < T) or it would strand the rest
				// (after ■, O+G drops by T−b■; continuing needs ≥ T).
				if O < Tme || O+G-T+bG[j] < Tme {
					letter = platform.Open
				}
			}
		}
		if letter == platform.Guarded {
			// Feed the next guarded node entirely from open capacity.
			O -= T
			G += bG[j]
			j++
		} else {
			// Feed the next open node from guarded capacity first
			// (conservative solutions, Lemma 4.3), then open capacity.
			// Branches instead of math.Max: the hot probe loop spends a
			// quarter of its time in the non-intrinsified NaN-aware call,
			// and the operands here are never NaN.
			fromOpen := T - G
			if fromOpen < 0 {
				fromOpen = 0
			}
			W += fromOpen
			O += bO[i] - fromOpen
			if G -= T; G < 0 {
				G = 0
			}
			i++
		}
		word = append(word, letter)
		if trace {
			steps = append(steps, TraceStep{
				Prefix: append(Word(nil), word...),
				Letter: letter,
				O:      O, G: G, W: W,
			})
		}
		if O < -eps {
			return word, steps, false
		}
	}
	return word, steps, true
}

// GreedyTestExact is the exact-rational twin of GreedyTest, used as the
// reference implementation in tests and by the exhaustive optimizer.
// bands must be the paper-numbered bandwidths (RatBandwidths).
func GreedyTestExact(ins *platform.Instance, T *big.Rat) (Word, bool) {
	n, m := ins.N(), ins.M()
	if T.Sign() <= 0 {
		return nil, false
	}
	bs := ins.RatBandwidths()
	O := new(big.Rat).Set(bs[0])
	G := new(big.Rat)
	i, j := 0, 0
	word := make(Word, 0, n+m)

	nextGuarded := func() *big.Rat { return bs[1+n+j] }
	nextOpen := func() *big.Rat { return bs[1+i] }
	zero := new(big.Rat)

	for i+j < n+m {
		if new(big.Rat).Add(O, G).Cmp(T) < 0 {
			return word, false
		}
		letter := platform.Guarded
		if i != n {
			switch {
			case j == m:
				letter = platform.Open
			case j == m-1:
				if O.Cmp(T) < 0 || nextGuarded().Cmp(nextOpen()) < 0 {
					letter = platform.Open
				}
			default:
				// O+G-T+b■ < T ?
				after := new(big.Rat).Add(O, G)
				after.Sub(after, T)
				after.Add(after, nextGuarded())
				if O.Cmp(T) < 0 || after.Cmp(T) < 0 {
					letter = platform.Open
				}
			}
		}
		if letter == platform.Guarded {
			O.Sub(O, T)
			G.Add(G, nextGuarded())
			j++
		} else {
			fromOpen := new(big.Rat).Sub(T, G)
			if fromOpen.Sign() < 0 {
				fromOpen.Set(zero)
			}
			O.Add(O, nextOpen())
			O.Sub(O, fromOpen)
			G.Sub(G, T)
			if G.Sign() < 0 {
				G.Set(zero)
			}
			i++
		}
		word = append(word, letter)
		if O.Sign() < 0 {
			return word, false
		}
	}
	return word, true
}
