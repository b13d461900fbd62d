package core

import (
	"math"
	"math/big"
)

// Certify decides whether the scheme's throughput reaches
// claimed·(1−relTol) and returns the throughput it measured on the way.
// engine.Execute runs it on every plan of a request with a tolerance,
// and RepairAcyclic on every scheme it repairs.
//
// An acyclic scheme needs no max-flow. Take a receiver v and any node
// set X that holds v but not the source, and let u be X's
// topologically first node. Every edge into u comes from outside X, so
// the cut around X carries at least u's in-rate. The max-flow to v is
// therefore at least the smallest receiver in-rate, and no receiver
// gets more than its own in-rate: the throughput min_i maxflow(C0 → Ci)
// is exactly the smallest receiver in-rate. Certify finds it with one
// pass over the edges and one Kahn pass, on ws scratch.
//
// The acyclic decision is exact: claimed, relTol and every rate count
// as the rationals they are. A receiver whose float in-rate clears the
// float threshold by more than both sides' rounding error is decided in
// floats; only the receivers inside that margin are summed again in
// big.Rat. verified is the float in-rate minimum, which may differ from
// Throughput's max-flow value by a few ulps: over the 2239 acyclic
// plans of the cold benchmark at seed 1, 564 differed, by at most
// 8.8·10⁻¹⁶ relative (about 7 ulps at T ≈ 60).
//
// A cyclic scheme keeps the max-flow value of Throughput and its float
// comparison.
func (s *Scheme) Certify(claimed, relTol float64, ws *Workspace) (verified float64, ok bool) {
	ws = ws.ensure()
	thr := claimed * (1 - relTol)
	total := len(s.out)
	if total <= 1 {
		return 0, !(0 < thr)
	}
	indeg, in, order := ws.certifyScratch(total)
	for i := range s.out {
		for _, e := range s.out[i] {
			indeg[e.to]++
			in[e.to] += e.rate
		}
	}

	// A threshold without a rational value (an infinite or NaN
	// product) is decided in floats alone.
	exact := !math.IsInf(thr, 0) && !math.IsNaN(thr)
	verified = math.Inf(1)
	short := false
	unsure := ws.unsure[:0]
	for v := 1; v < total; v++ {
		sum := in[v]
		verified = min(verified, sum)
		if !exact {
			continue
		}
		// Summing k non-negative rates in floats errs by at most about
		// (k−1)·2⁻⁵³·sum, and the threshold's two roundings by about
		// 2·2⁻⁵³·|thr|. The slack takes eight times both, plus an
		// absolute floor against underflow, so a float decision outside
		// it is the exact one.
		slack := (float64(indeg[v])*sum+2*math.Abs(thr))*0x1p-50 + 0x1p-1022
		switch d := sum - thr; {
		case d > slack:
		case -d > slack:
			short = true
		default:
			unsure = append(unsure, int32(v))
		}
	}
	if cap(unsure) > cap(ws.unsure) {
		ws.stats.Grows++
	}
	ws.unsure = unsure

	if len(s.kahn(indeg, order)) != total {
		v := s.Throughput(ws)
		return v, !(v < thr)
	}
	switch {
	case !exact:
		return verified, !(verified < thr)
	case short:
		return verified, false
	case len(unsure) == 0:
		return verified, true
	}
	// Kahn released every node, so indeg is all zeros again: it serves
	// as the receiver → accumulator map of the exact pass.
	return verified, s.meetsExactly(claimed, relTol, unsure, indeg)
}

// meetsExactly sums the in-rates of the receivers in unsure in big.Rat,
// in one pass over the edges, and reports whether every sum reaches
// claimed·(1−relTol) as a rational. slot must be zero on every node; it
// is left dirty.
func (s *Scheme) meetsExactly(claimed, relTol float64, unsure, slot []int32) bool {
	thr := new(big.Rat).SetFloat64(relTol)
	thr.Sub(big.NewRat(1, 1), thr)
	thr.Mul(thr, new(big.Rat).SetFloat64(claimed))
	for k, v := range unsure {
		slot[v] = int32(k + 1)
	}
	sums := make([]big.Rat, len(unsure))
	var r big.Rat
	for i := range s.out {
		for _, e := range s.out[i] {
			if k := slot[e.to]; k > 0 {
				if r.SetFloat64(e.rate) == nil {
					return false // a NaN rate has no rational value
				}
				sums[k-1].Add(&sums[k-1], &r)
			}
		}
	}
	for k := range sums {
		if sums[k].Cmp(thr) < 0 {
			return false
		}
	}
	return true
}
