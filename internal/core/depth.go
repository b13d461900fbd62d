package core

import "repro/internal/platform"

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
//
// It runs BuildScheme's walk, supplier queues from ws included (nil: a
// private workspace); only the draw differs.
func BuildSchemeDepthAware(ins *platform.Instance, w Word, T float64, ws *Workspace) (*Scheme, error) {
	return buildWord(ins, w, T, ws, make([]int, ins.Total()))
}

// drawShallowest feeds need to receiver to from q, always taking from
// the supplier of least depth with capacity left (ties: the earliest),
// records each transfer in recs, and raises depth[to] to one more than
// each supplier it uses. It returns the need left unmet when q runs dry.
func drawShallowest(recs *transfers, q *queue, to int, need, eps float64, depth []int) float64 {
	for need > eps {
		best := q.front(eps)
		if best == nil {
			return need
		}
		for k := q.head + 1; k < len(q.items); k++ {
			if sup := &q.items[k]; sup.rem > eps && depth[sup.id] < depth[best.id] {
				best = sup
			}
		}
		take := min(need, best.rem)
		recs.add(best.id, to, take)
		best.rem -= take
		need -= take
		if d := depth[best.id] + 1; d > depth[to] {
			depth[to] = d
		}
	}
	return 0
}
