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
	return greedyTest(ins, T, make(Word, 0, ins.N()+ins.M()))
}

// GreedyTestTrace is GreedyTest plus the per-step (O, G, W) table; it
// reproduces Table I when run on the Figure 1 instance with T = 4. The
// table replays the returned word with the probe's own updates, one row
// per letter, the letter that drove O below zero included.
func GreedyTestTrace(ins *platform.Instance, T float64) (Word, []TraceStep, bool) {
	word, ok := GreedyTest(ins, T)
	var steps []TraceStep
	O, G, W := ins.B0, 0.0, 0.0
	i, j := 0, 0
	for k, l := range word {
		if l == platform.Open {
			O, G, W = placeOpen(O, G, W, T, ins.OpenBW[i])
			i++
		} else {
			O -= T
			G += ins.GuardedBW[j]
			j++
		}
		steps = append(steps, TraceStep{Prefix: append(Word(nil), word[:k+1]...), Letter: l, O: O, G: G, W: W})
	}
	return word, steps, ok
}

// placeOpen feeds the next open node, of bandwidth b, from guarded
// capacity first (conservative solutions, Lemma 4.3), then open
// capacity, and returns the new (O, G, W). Branches instead of
// math.Max: the operands are never NaN, and the call is not
// intrinsified.
func placeOpen(O, G, W, T, b float64) (float64, float64, float64) {
	fromOpen := T - G
	if fromOpen < 0 {
		fromOpen = 0
	}
	O += b - fromOpen
	if G -= T; G < 0 {
		G = 0
	}
	return O, G, W + fromOpen
}

// greedyTest is the allocation-free core of Algorithm 2: it runs the
// greedy decision writing letters into word (whose backing array is
// reused — pass a workspace buffer to probe repeatedly without churn)
// and returns the possibly-reallocated slice. On failure the word ends
// at the letter that failed, if any. The returned word aliases that
// buffer; callers retaining it across further probes must copy it or
// park it with Workspace.keepWord.
func greedyTest(ins *platform.Instance, T float64, word Word) (Word, bool) {
	n, m := ins.N(), ins.M()
	if T <= 0 {
		return nil, false
	}
	eps := tol(T)
	// bO[k] = bandwidth of the k-th open node (1-based), bG likewise.
	// Hoisted locals (slices, T−eps) keep the Θ(n+m) probe loop free of
	// repeated pointer loads: this loop runs every letter of every probe
	// of the dichotomic search.
	bO, bG := ins.OpenBW, ins.GuardedBW
	Tme := T - eps
	O, G := ins.B0, 0.0
	i, j := 0, 0 // open and guarded letters already placed
	word = word[:0]
	for i+j < n+m {
		if O+G < Tme {
			return word, false
		}
		open := false
		if i < n && j < m-1 {
			// General case (lines 12-13): take ■ unless it is
			// unaffordable now (O < T) or it would strand the rest
			// (after ■, O+G drops by T−b■; continuing needs ≥ T).
			open = O < Tme || O+G-T+bG[j] < Tme
		} else if i < n {
			// No guarded node left, or one: then pick whichever of the
			// two candidates has the larger bandwidth, unless open
			// capacity cannot cover the guarded node (lines 8-11).
			open = j == m || O < Tme || bG[j] < bO[i]-eps
		}
		if open {
			O, G, _ = placeOpen(O, G, 0, T, bO[i])
			i++
			word = append(word, platform.Open)
		} else {
			// Feed the next guarded node entirely from open capacity.
			O -= T
			G += bG[j]
			j++
			word = append(word, platform.Guarded)
		}
		if O < -eps {
			return word, false
		}
	}
	return word, true
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
