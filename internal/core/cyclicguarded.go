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
// The residual-capacity vector, the filling's supplier stacks and every
// feasibility probe's word buffer come from ws (nil: a private
// workspace).
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

// classSpends runs the conservative source-last filling for (word, w)
// and returns the bandwidth consumed from the source, from the ordinary
// open nodes, and from the guarded nodes (∞ source spend when the
// filling fails). The bisection probes this ~180 times per peel round,
// so the tally allocates nothing.
func classSpends(rIns *platform.Instance, word Word, w float64, ws *Workspace) (src, open, guarded float64) {
	n := rIns.N()
	ok := fillLatestFirst(rIns, word, w, ws, func(from, _ int, r float64) {
		switch {
		case from == 0:
			src += r
		case from <= n:
			open += r
		default:
			guarded += r
		}
	})
	if !ok {
		return math.Inf(1), open, guarded
	}
	return src, open, guarded
}

// fillLatestFirst is the guarded packer's conservative filling of word
// at rate w on the residual instance: nodes are served in word order,
// guarded receivers from open capacity, open receivers from guarded
// capacity first, then open. Within a class it drains the latest
// placed supplier first and the source last (the source sits at the
// bottom of the open stack). It reports every transfer to take, in
// draw order and in residual ids (source 0, open rank i as 1+i,
// guarded rank j as 1+n+j), and returns false when a receiver falls
// short; the transfers reported before that stand. The supplier
// stacks are the workspace's supplier lists.
func fillLatestFirst(rIns *platform.Instance, word Word, w float64, ws *Workspace,
	take func(from, to int, r float64)) bool {

	eps := tol(w)
	n := rIns.N()
	open, guarded := ws.supplierLists(rIns)
	open = append(open, supplier{id: 0, rem: rIns.B0})
	// draw pops suppliers drained to eps off the top of the stack: a
	// drained supplier never recovers, so none is ever picked again.
	draw := func(stack []supplier, to int, need float64) ([]supplier, float64) {
		for need > eps {
			top := len(stack) - 1
			for top >= 0 && stack[top].rem <= eps {
				top--
			}
			stack = stack[:top+1]
			if top < 0 {
				return stack, need
			}
			r := min(need, stack[top].rem)
			take(stack[top].id, to, r)
			stack[top].rem -= r
			need -= r
		}
		return stack, 0
	}
	i, j := 0, 0
	for _, l := range word {
		var rest float64
		if l == platform.Guarded {
			to := 1 + n + j
			if open, rest = draw(open, to, w); rest > eps {
				return false
			}
			guarded = append(guarded, supplier{id: to, rem: rIns.GuardedBW[j]})
			j++
		} else {
			to := 1 + i
			if guarded, rest = draw(guarded, to, w); rest > eps {
				open, rest = draw(open, to, rest)
			}
			if rest > eps {
				return false
			}
			open = append(open, supplier{id: to, rem: rIns.OpenBW[i]})
			i++
		}
	}
	return true
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

// peelOnce runs the packer's filling for (word, w) on the residual
// instance and transcribes the resulting rates into the accumulated
// scheme under original node ids, debiting their residual capacities.
// It returns false if the filling failed, in which case nothing was
// committed (the caller simply stops peeling): a dry run checks the
// filling first, and only then does a second, identical run commit.
func peelOnce(scheme *Scheme, rIns *platform.Instance, word Word, w float64,
	resid []float64, openIDs, guardedIDs []int, ws *Workspace) bool {

	if !fillLatestFirst(rIns, word, w, ws, func(int, int, float64) {}) {
		return false
	}
	n := rIns.N()
	orig := func(id int) int {
		switch {
		case id == 0:
			return 0
		case id <= n:
			return openIDs[id-1]
		default:
			return guardedIDs[id-1-n]
		}
	}
	fillLatestFirst(rIns, word, w, ws, func(from, to int, r float64) {
		from = orig(from)
		scheme.Add(from, orig(to), r)
		resid[from] -= r
		if resid[from] < 0 {
			resid[from] = 0
		}
	})
	return true
}
