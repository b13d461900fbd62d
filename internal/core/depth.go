package core

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// BuildSchemeDepthAware is a depth-optimizing variant of BuildScheme,
// addressing the paper's closing remark that "optimizing the depth of
// produced schemes in order to minimize delays" is a natural follow-up
// objective.
//
// Like BuildScheme it satisfies the nodes in word order and keeps the
// conservative class discipline (guarded receivers draw open capacity;
// open receivers drain guarded capacity first), so it is feasible for
// exactly the same (word, T) pairs — class totals evolve identically.
// Within a class, however, it draws from the supplier of minimum stream
// depth (the source has depth 0; a receiver's depth is one more than the
// deepest supplier it uses) instead of the earliest-placed one. This
// trades the Lemma 4.6 degree bounds — which the earliest-first rule is
// needed for — against shallower trees; tests measure the trade and the
// ablation benchmark quantifies it.
func BuildSchemeDepthAware(ins *platform.Instance, w Word, T float64) (*Scheme, error) {
	if err := w.Validate(ins); err != nil {
		return nil, err
	}
	if T <= 0 {
		return nil, fmt.Errorf("core: BuildSchemeDepthAware needs positive throughput, got %v", T)
	}
	eps := tol(T)
	scheme := NewScheme(ins)
	depth := make([]int, ins.Total())

	type pool struct {
		ids []int
		rem map[int]float64
	}
	newPool := func() *pool { return &pool{rem: make(map[int]float64)} }
	openSup, guardedSup := newPool(), newPool()
	openSup.ids = append(openSup.ids, 0)
	openSup.rem[0] = ins.B0

	// draw satisfies `need` for receiver `to` from the pool, always
	// taking from the currently shallowest supplier (ties: earliest).
	draw := func(p *pool, to int, need float64) float64 {
		for need > eps {
			best := -1
			for _, id := range p.ids {
				if p.rem[id] <= eps {
					continue
				}
				if best < 0 || depth[id] < depth[best] {
					best = id
				}
			}
			if best < 0 {
				return need
			}
			take := math.Min(need, p.rem[best])
			scheme.Add(best, to, take)
			p.rem[best] -= take
			need -= take
			if d := depth[best] + 1; d > depth[to] {
				depth[to] = d
			}
		}
		return 0
	}

	nextOpen, nextGuarded := 1, ins.N()+1
	for pos, l := range w {
		if l == platform.Guarded {
			id := nextGuarded
			nextGuarded++
			if rest := draw(openSup, id, T); rest > eps {
				return nil, fmt.Errorf("core: word %s infeasible at T=%v: guarded node %d (position %d) short by %v",
					w, T, id, pos, rest)
			}
			guardedSup.ids = append(guardedSup.ids, id)
			guardedSup.rem[id] = ins.Bandwidth(id)
		} else {
			id := nextOpen
			nextOpen++
			rest := draw(guardedSup, id, T)
			if rest > eps {
				rest = draw(openSup, id, rest)
			}
			if rest > eps {
				return nil, fmt.Errorf("core: word %s infeasible at T=%v: open node %d (position %d) short by %v",
					w, T, id, pos, rest)
			}
			openSup.ids = append(openSup.ids, id)
			openSup.rem[id] = ins.Bandwidth(id)
		}
	}
	return scheme, nil
}
