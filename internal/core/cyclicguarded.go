package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/platform"
)

// PackCyclicGuarded approaches the optimal cyclic throughput of Lemma
// 5.1 on general (open + guarded) instances — the fourth quadrant of the
// paper's problem grid, where optimal solutions may require arbitrarily
// large degrees (Section V, Figure 6) and the paper gives no explicit
// constructor.
//
// The packer peels acyclic layers: each round solves the acyclic problem
// on the residual capacities (Theorem 4.1 machinery) and superposes the
// resulting sub-scheme. Because every peel ships a genuine rate-w flow
// from the source to every node on capacity the accounting reserves for
// it, the union certifies throughput Σw — the achieved value is correct
// by construction, whatever the policy does.
//
// Three details make the peeling converge to T* instead of stalling:
//
//   - suppliers inside a peel are drained source-last (the source's
//     bandwidth is the scarcest multi-round resource: every future peel
//     needs w of it, while ordinary node capacity is only useful after
//     the node has been served), and latest-first among ordinary nodes,
//     which rotates capacity use across rounds the way cyclic optima do;
//   - each layer is chosen under reserve conditions (bestFrugalPeel):
//     after the peel, the residual capacities must still satisfy all
//     three Lemma 5.1 budgets for the remaining target — this is what
//     steers the packer away from locally-maximal layers that strand
//     guarded capacity (compare ω1 vs ω2 on the Figure 6 family);
//   - each peel's rate is clamped to the remaining target, so the last
//     layer lands exactly on T.
//
// It returns the packed scheme and the throughput actually certified
// (≤ T). Tests measure the optimality gap; on every instance family we
// draw it is < 1e-6 relative.
//
// The residual-capacity vector, the per-peel supplier pools, the
// pending rate list and every feasibility probe's word buffer come from
// ws (nil: a private workspace).
func PackCyclicGuarded(ins *platform.Instance, T float64, ws *Workspace) (*Scheme, float64, error) {
	if T <= 0 {
		return nil, 0, fmt.Errorf("core: PackCyclicGuarded needs positive throughput, got %v", T)
	}
	ws = ws.ensure()
	tstar := OptimalCyclicThroughput(ins)
	if T > tstar+tol(tstar) {
		return nil, 0, fmt.Errorf("core: throughput %v exceeds cyclic optimum %v", T, tstar)
	}
	// The open-only quadrant has the dedicated Theorem 5.2 constructor.
	if ins.M() == 0 {
		s, err := CyclicOpen(ins, T, ws)
		if err != nil {
			return nil, 0, err
		}
		return s, T, nil
	}
	// With no open nodes the source must feed every guarded node
	// directly: a star at rate T ≤ b0/m (Lemma 5.1).
	if ins.N() == 0 {
		s := NewScheme(ins)
		for j := 1; j <= ins.M(); j++ {
			s.Add(0, j, T)
		}
		if err := s.Validate(); err != nil {
			return nil, 0, err
		}
		return s, T, nil
	}

	resid := ws.residFor(ins)
	scheme := NewScheme(ins)
	packed := 0.0
	eps := tol(T)
	const maxRounds = 400

	for round := 0; round < maxRounds && packed < T-eps; round++ {
		if resid[0] <= eps {
			break // the source is exhausted; no acyclic layer can ship more
		}
		rIns, openIDs, guardedIDs := residualInstance(ins, resid)
		wRem := T - packed

		// Final layer: if the whole remainder fits acyclically, take it.
		// The probe word lives in the workspace buffer: it is consumed by
		// peelOnce before the next probe can overwrite it.
		if word, ok := ws.probeWord(rIns, wRem*(1-1e-13)); ok {
			w := wRem * (1 - 1e-13)
			if peelOnce(scheme, rIns, word, w, resid, openIDs, guardedIDs, ws) {
				packed += w
				continue
			}
		}

		// Otherwise pick the source-frugal layer: among the candidate
		// words, the largest w that is feasible AND leaves the source
		// enough bandwidth for the remaining target (every future layer
		// must ship ≥ its rate from the source).
		w, word := bestFrugalPeel(rIns, wRem, eps, ws)
		if w <= eps {
			// No reserve-respecting layer: fall back to a plain maximal
			// acyclic peel (progress beats stalling; the reserve test
			// re-engages next round).
			var err error
			w, word, err = OptimalAcyclicThroughput(rIns, ws)
			if err != nil || w <= eps {
				break
			}
			w = math.Min(w, wRem) * (1 - 1e-13)
		}
		if w <= eps || !peelOnce(scheme, rIns, word, w, resid, openIDs, guardedIDs, ws) {
			break
		}
		packed += w
	}
	if err := scheme.Validate(); err != nil {
		return nil, 0, fmt.Errorf("core: packed scheme invalid: %w", err)
	}
	return scheme, packed, nil
}

// bestFrugalPeel maximizes the layer rate over the candidate words
// subject to feasibility and the reserve condition: after the peel, the
// residual capacities must still satisfy all three Lemma 5.1 budgets for
// the remaining target (source rate, open capacity for guarded demand,
// total capacity). Bisection per candidate — feasibility and every class
// spend are monotone in w.
func bestFrugalPeel(rIns *platform.Instance, wRem, eps float64, ws *Workspace) (float64, Word) {
	n, m := rIns.N(), rIns.M()
	sumOpen, sumGuarded := rIns.SumOpen(), rIns.SumGuarded()
	var bestW float64
	var bestWord Word
	candidates := frugalWords(rIns)
	for ci := 0; ci <= len(candidates); ci++ {
		// Candidate ci < len: a fixed ω word. Candidate ci == len: the
		// GreedyTest word recomputed at each probed rate on the workspace
		// buffer (a feasible word is parked via keepWord until the next
		// success, matching the dichotomic search's double-buffering).
		wordAt := func(w float64) (Word, bool) {
			if ci < len(candidates) {
				return candidates[ci], WordFeasible(rIns, candidates[ci], w)
			}
			cand, feasible := ws.probeWord(rIns, w)
			if feasible {
				cand = ws.keepWord(cand)
			}
			return cand, feasible
		}
		var lastWord Word
		ok := func(w float64) bool {
			if w <= 0 {
				return false
			}
			cand, feasible := wordAt(w)
			if !feasible {
				return false
			}
			src, open, guarded := classSpends(rIns, cand, w, ws)
			rem := wRem - w
			r0 := rIns.B0 - src
			o := sumOpen - open
			g := sumGuarded - guarded
			if r0 < rem-eps {
				return false
			}
			if m > 0 && r0+o < float64(m)*rem-eps {
				return false
			}
			if r0+o+g < float64(n+m)*rem-eps {
				return false
			}
			lastWord = cand
			return true
		}
		lo, hi := 0.0, wRem
		if ok(hi) {
			lo = hi
		} else {
			for iter := 0; iter < 60; iter++ {
				mid := lo + (hi-lo)/2
				if ok(mid) {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		if lo > bestW && lastWord != nil && ok(lo) {
			bestW = lo * (1 - 1e-13)
			// lastWord may alias the workspace buffer later probes reuse;
			// the surviving layer word is copied into stable storage.
			bestWord = cloneWord(lastWord)
		}
	}
	return bestW, bestWord
}

// frugalWords lists the candidate layer orders: the guarded-first ω2
// interleaving (one guarded node rides the source, open relays carry the
// rest — the rotation structure optimal cyclic schemes use) and ω1 as
// the open-rich alternative.
func frugalWords(rIns *platform.Instance) []Word {
	var ws []Word
	if w2, err := Omega2(rIns.N(), rIns.M()); err == nil {
		ws = append(ws, w2)
	}
	if w1, err := Omega1(rIns.N(), rIns.M()); err == nil {
		ws = append(ws, w1)
	}
	return ws
}

// classSpends simulates the conservative source-last filling for
// (word, w) and returns the bandwidth consumed from the source, from the
// ordinary open nodes, and from the guarded nodes (∞ source spend when
// the filling fails). Pool storage comes from the workspace: the
// bisection probes this ~180 times per peel round.
func classSpends(rIns *platform.Instance, word Word, w float64, ws *Workspace) (src, open, guarded float64) {
	eps := tol(w)
	// Pools hold remaining capacities; the source sits at the bottom of
	// the open pool, ordinary suppliers stack on top (drained first).
	openPool := append(ws.poolA[:0], rIns.B0)
	guardedPool := ws.poolB[:0]
	defer func() {
		ws.poolA = openPool[:0]
		ws.poolB = guardedPool[:0]
	}()
	draw := func(pool []float64, need float64, fromOpen bool) ([]float64, float64) {
		for need > eps {
			top := -1
			for k := len(pool) - 1; k >= 0; k-- {
				if pool[k] > eps {
					top = k
					break
				}
			}
			if top < 0 {
				return pool, need
			}
			take := math.Min(need, pool[top])
			if fromOpen {
				if top == 0 {
					src += take
				} else {
					open += take
				}
			} else {
				guarded += take
			}
			pool[top] -= take
			need -= take
		}
		return pool, 0
	}
	i, j := 0, 0
	for _, l := range word {
		if l == platform.Guarded {
			var rest float64
			openPool, rest = draw(openPool, w, true)
			if rest > eps {
				return math.Inf(1), open, guarded
			}
			guardedPool = append(guardedPool, rIns.GuardedBW[j])
			j++
		} else {
			var rest float64
			guardedPool, rest = draw(guardedPool, w, false)
			if rest > eps {
				openPool, rest = draw(openPool, rest, true)
			}
			if rest > eps {
				return math.Inf(1), open, guarded
			}
			openPool = append(openPool, rIns.OpenBW[i])
			i++
		}
	}
	return src, open, guarded
}

// residualInstance builds the sorted residual instance plus the maps
// from residual ranks back to original node ids.
func residualInstance(ins *platform.Instance, resid []float64) (*platform.Instance, []int, []int) {
	n := ins.N()
	openIDs := make([]int, n)
	for i := range openIDs {
		openIDs[i] = 1 + i
	}
	sort.SliceStable(openIDs, func(a, b int) bool { return resid[openIDs[a]] > resid[openIDs[b]] })
	guardedIDs := make([]int, ins.M())
	for i := range guardedIDs {
		guardedIDs[i] = 1 + n + i
	}
	sort.SliceStable(guardedIDs, func(a, b int) bool { return resid[guardedIDs[a]] > resid[guardedIDs[b]] })

	open := make([]float64, len(openIDs))
	for i, id := range openIDs {
		open[i] = resid[id]
	}
	guarded := make([]float64, len(guardedIDs))
	for i, id := range guardedIDs {
		guarded[i] = resid[id]
	}
	rIns := platform.MustInstance(resid[0], open, guarded)
	return rIns, openIDs, guardedIDs
}

// peelOnce runs the conservative filling for (word, w) on the residual
// instance, draining ordinary suppliers latest-first and the source
// last, and transcribes the resulting rates into the accumulated scheme
// under original node ids. It returns false if the filling failed (in
// which case nothing was committed — the caller simply stops peeling).
// Supplier stacks and the pending rate list reuse workspace storage
// (the supplier queues are idle here: nothing below this frame builds a
// scheme from a word).
func peelOnce(scheme *Scheme, rIns *platform.Instance, word Word, w float64,
	resid []float64, openIDs, guardedIDs []int, ws *Workspace) bool {

	eps := tol(w)
	openPool := ws.openQ[:0] // stacks: drain from the back
	guardedPool := ws.guardedQ[:0]
	pending := ws.pending[:0]
	defer func() {
		ws.openQ = openPool[:0]
		ws.guardedQ = guardedPool[:0]
		ws.pending = pending[:0]
	}()
	openPool = append(openPool, supplier{id: 0, rem: resid[0]})

	draw := func(pool []supplier, to int, need float64) ([]supplier, float64) {
		for need > eps {
			top := -1
			for k := len(pool) - 1; k >= 0; k-- {
				if pool[k].rem > eps {
					top = k
					break
				}
			}
			if top < 0 {
				return pool, need
			}
			take := math.Min(need, pool[top].rem)
			pending = append(pending, pendingRate{from: pool[top].id, to: to, r: take})
			pool[top].rem -= take
			need -= take
		}
		return pool, 0
	}

	nextOpen, nextGuarded := 0, 0
	for _, l := range word {
		if l == platform.Guarded {
			id := guardedIDs[nextGuarded]
			nextGuarded++
			var rest float64
			openPool, rest = draw(openPool, id, w)
			if rest > eps {
				return false
			}
			guardedPool = append(guardedPool, supplier{id: id, rem: resid[id]})
		} else {
			id := openIDs[nextOpen]
			nextOpen++
			var rest float64
			guardedPool, rest = draw(guardedPool, id, w)
			if rest > eps {
				openPool, rest = draw(openPool, id, rest)
			}
			if rest > eps {
				return false
			}
			// Keep the source at the bottom of the stack: ordinary
			// nodes are pushed on top and therefore drained first.
			openPool = append(openPool, supplier{id: id, rem: resid[id]})
		}
	}
	// Commit: transcribe rates and debit residual capacities.
	for _, p := range pending {
		scheme.Add(p.from, p.to, p.r)
		resid[p.from] -= p.r
		if resid[p.from] < 0 {
			resid[p.from] = 0
		}
	}
	return true
}
