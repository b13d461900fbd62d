package core

import (
	"math"
	"math/big"
	"sort"

	"repro/internal/platform"
)

// WordFeasible reports whether the increasing order encoded by w supports
// an acyclic scheme of throughput T. Per Lemma 4.4 (and the conservative
// dominance of Lemma 4.3), w is valid for T if and only if along the
// conservative filling:
//
//   - before every ■ letter, O(π) ≥ T (guarded nodes eat open capacity),
//   - before every ○ letter, O(π) + G(π) ≥ T.
//
// Both are decided with the tol(T) slack of GreedyTest. The branchy
// clamps are bit-identical to math.Max on these never-NaN operands.
func WordFeasible(ins *platform.Instance, w Word, T float64) bool {
	if w.Validate(ins) != nil || T <= 0 {
		return false
	}
	bO, bG := ins.OpenBW, ins.GuardedBW
	Tme := T - tol(T)
	O := ins.B0
	G := 0.0
	i, j := 0, 0
	for _, l := range w {
		if l == platform.Guarded {
			if O < Tme {
				return false
			}
			O -= T
			G += bG[j]
			j++
		} else {
			if O+G < Tme {
				return false
			}
			fromOpen := T - G
			if fromOpen < 0 {
				fromOpen = 0
			}
			O += bO[i] - fromOpen
			if G -= T; G < 0 {
				G = 0
			}
			i++
		}
	}
	return true
}

// WordThroughput returns T*_ac(w), the optimal acyclic throughput over
// schemes compatible with the order encoded by w. Using the closed forms
// of Lemma 4.4,
//
//	O(π) = S^O_i − j·T − W(π),   O(π)+G(π) = S^O_i + S^G_j − (i+j)·T,
//	W(π) = max(0, max over ○-prefixes π'○ of (i'·T − S^G_{j'})),
//
// each validity condition expands into linear inequalities k·T ≤ B, so
// the per-word optimum is a minimum of B/k ratios: one per ○ letter, and
// one per earlier ○ letter (plus W = 0) before each ■ letter.
//
// Those last ratios are slopes. Before a ■ letter at counts (i, j), the
// candidate (S^O_i + g)/(j+1+i') is the slope from (−(j+1), −S^O_i) to
// the point (i', g): either (0, 0) or the counts (i', S^G_{j'}) after an
// earlier ○ letter. The least of them therefore lies on the lower convex
// hull of those points. Their x grows by one per ○ letter, so a monotone
// chain keeps the hull, and each ■ letter finds its tangent by binary
// search and divides on that one candidate — the same float operations
// the full enumeration (OrderThroughput, WordThroughputExact) performs
// on it. One pass, O(L log L), at every word length.
//
// The hull stack comes from ws (nil: a private workspace), so per-word
// evaluation inside search and repair loops allocates nothing.
func WordThroughput(ins *platform.Instance, w Word, ws *Workspace) float64 {
	if err := w.Validate(ins); err != nil {
		panic(err)
	}
	ws = ws.ensure()
	ws.stats.WordEvals++
	best := math.Inf(1)
	oSum := ins.B0 // S^O_i = b0 + b1 + ... + bi
	gSum := 0.0    // S^G_j
	i, j := 0, 0
	hull := append(ws.cands[:0], wCand{}) // W = 0 sits at (0, 0)
	for _, l := range w {
		if l == platform.Guarded {
			// Constraint: O(prefix) ≥ T at counts (i, j). Along the
			// hull the slopes fall to the tangent, then rise: it is the
			// first point whose successor's ratio is no smaller.
			c := hull[sort.Search(len(hull)-1, func(k int) bool {
				a, b := hull[k], hull[k+1]
				return (oSum+b.gSum)*float64(j+1+a.iS) >= (oSum+a.gSum)*float64(j+1+b.iS)
			})]
			best = min(best, (oSum+c.gSum)/float64(j+1+c.iS))
			gSum += ins.GuardedBW[j]
			j++
		} else {
			// Constraint: O+G ≥ T with counts (i, j).
			best = min(best, (oSum+gSum)/float64(i+j+1))
			oSum += ins.OpenBW[i]
			i++
			// Pop every point on or above the chord to the new one.
			p := wCand{iS: i, gSum: gSum}
			for k := len(hull) - 1; k > 0; k-- {
				a, b := hull[k-1], hull[k]
				if float64(b.iS-a.iS)*(p.gSum-a.gSum) > (b.gSum-a.gSum)*float64(p.iS-a.iS) {
					break
				}
				hull = hull[:k]
			}
			hull = append(hull, p)
		}
	}
	ws.cands = hull[:0]
	if math.IsInf(best, 1) {
		// Empty word: no receivers; throughput is capped by the source.
		return ins.B0
	}
	return best
}

// WordThroughputExact is the exact-rational twin of WordThroughput.
func WordThroughputExact(ins *platform.Instance, w Word) *big.Rat {
	if err := w.Validate(ins); err != nil {
		panic(err)
	}
	bs := ins.RatBandwidths()
	n := ins.N()
	var best *big.Rat
	consider := func(bound *big.Rat, coeff int64) {
		v := new(big.Rat).Quo(bound, new(big.Rat).SetInt64(coeff))
		if best == nil || v.Cmp(best) < 0 {
			best = v
		}
	}
	type wCand struct {
		iS   int
		gSum *big.Rat
	}
	var cands []wCand
	oSum := new(big.Rat).Set(bs[0])
	gSum := new(big.Rat)
	i, j := 0, 0
	for _, l := range w {
		if l == platform.Guarded {
			consider(oSum, int64(j+1))
			for _, c := range cands {
				consider(new(big.Rat).Add(oSum, c.gSum), int64(j+1+c.iS))
			}
			gSum = new(big.Rat).Add(gSum, bs[1+n+j])
			j++
		} else {
			consider(new(big.Rat).Add(oSum, gSum), int64(i+j+1))
			oSum = new(big.Rat).Add(oSum, bs[1+i])
			i++
			cands = append(cands, wCand{iS: i, gSum: gSum})
		}
	}
	if best == nil {
		return new(big.Rat).Set(bs[0])
	}
	return best
}
