package core

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// supplier is a placed node with unused upload bandwidth, kept in
// placement order so receivers always draw from the earliest one.
type supplier struct {
	id  int
	rem float64
}

// queue is a FIFO of suppliers with lazy head advancement.
type queue struct {
	items []supplier
	head  int
}

func (q *queue) push(id int, rem float64) {
	if rem > 0 {
		q.items = append(q.items, supplier{id: id, rem: rem})
	}
}

// front returns the earliest supplier with remaining capacity > eps,
// or nil when none is left.
func (q *queue) front(eps float64) *supplier {
	for q.head < len(q.items) {
		if q.items[q.head].rem > eps {
			return &q.items[q.head]
		}
		q.head++
	}
	return nil
}

// totalRem sums the remaining capacity (for diagnostics).
func (q *queue) totalRem() float64 {
	var s float64
	for i := q.head; i < len(q.items); i++ {
		s += q.items[i].rem
	}
	return s
}

// BuildScheme turns a valid encoding word into a concrete low-degree
// broadcast scheme of throughput T (Lemma 4.6). Nodes are satisfied in
// word order; every receiver is fed by the earliest placed nodes with
// unused upload bandwidth, with guarded capacity used before open
// capacity for open receivers (conservative solutions, Lemma 4.3).
// The firewall constraint is structural: guarded receivers only draw
// from the open queue.
//
// When the word comes from GreedyTest the outdegrees satisfy
// Theorem 4.1: o_j ≤ ⌈b_j/T⌉+1 for guarded nodes, o_i ≤ ⌈b_i/T⌉+3 for at
// most one open node and o_i ≤ ⌈b_i/T⌉+2 for the others.
//
// It returns an error when the word cannot support throughput T.
//
// The supplier queues come from ws (nil: a private workspace); the
// scheme itself is freshly allocated, since it escapes to the caller.
func BuildScheme(ins *platform.Instance, w Word, T float64, ws *Workspace) (*Scheme, error) {
	return buildWord(ins, w, T, ws, nil)
}

// buildWord is Lemma 4.6's walk, shared by both builders: it serves
// the nodes in word order under the conservative class discipline and
// stops a receiver's draw once its unmet need is at most tol(T). Only
// the supplier a draw takes from differs: with a nil depth the
// earliest placed one (BuildScheme), otherwise the shallowest one
// (drawShallowest, which keeps each node's depth in depth).
func buildWord(ins *platform.Instance, w Word, T float64, ws *Workspace, depth []int) (*Scheme, error) {
	if err := w.Validate(ins); err != nil {
		return nil, err
	}
	if T <= 0 {
		return nil, fmt.Errorf("core: BuildScheme needs positive throughput, got %v", T)
	}
	ws = ws.ensure()
	ws.stats.Builds++
	eps := tol(T)
	total := ins.Total()
	// Theorem 4.1 bounds every outdegree by ⌈b_i/T⌉+3, so one slab
	// reservation at that size covers the whole construction; a word
	// from another source that exceeds it merely costs a reallocation.
	scheme := NewSchemeSized(ins, func(i int) int {
		b := ins.Bandwidth(i)
		if b > T*float64(total) {
			return total - 1 // degree can never exceed the receiver count
		}
		c := DegreeLowerBound(b, T) + 3
		if c > total-1 {
			c = total - 1
		}
		return c
	})
	open := queue{items: ws.openQ[:0]}
	guarded := queue{items: ws.guardedQ[:0]}
	defer func() {
		ws.openQ = open.items[:0]
		ws.guardedQ = guarded.items[:0]
	}()
	open.push(0, ins.B0)

	draw := func(q *queue, to int, need float64) float64 {
		if depth != nil {
			return drawShallowest(scheme, q, to, need, eps, depth)
		}
		for need > eps {
			sup := q.front(eps)
			if sup == nil {
				return need
			}
			take := math.Min(need, sup.rem)
			scheme.Add(sup.id, to, take)
			sup.rem -= take
			need -= take
		}
		return 0
	}

	nextOpen, nextGuarded := 1, ins.N()+1
	for pos, l := range w {
		if l == platform.Guarded {
			id := nextGuarded
			nextGuarded++
			if rest := draw(&open, id, T); rest > eps {
				return nil, fmt.Errorf("core: word %s infeasible at T=%v: guarded node %d (position %d) short by %v (open rem %v)",
					w, T, id, pos, rest, open.totalRem())
			}
			guarded.push(id, ins.Bandwidth(id))
		} else {
			id := nextOpen
			nextOpen++
			rest := draw(&guarded, id, T)
			if rest > eps {
				rest = draw(&open, id, rest)
			}
			if rest > eps {
				return nil, fmt.Errorf("core: word %s infeasible at T=%v: open node %d (position %d) short by %v",
					w, T, id, pos, rest)
			}
			open.push(id, ins.Bandwidth(id))
		}
	}
	return scheme, nil
}

// SolveAcyclic computes the optimal acyclic throughput and materializes
// the corresponding low-degree scheme — the end-to-end pipeline of
// Section IV (GreedyTest + dichotomic search + Lemma 4.6 construction).
// It also returns the winning encoding word, the witness a caller
// retains to warm-start a later RepairAcyclic (sessions do between
// churn events, the plan store does across daemon restarts). Search and
// construction share ws (nil: a private workspace).
func SolveAcyclic(ins *platform.Instance, ws *Workspace) (float64, *Scheme, Word, error) {
	ws = ws.ensure()
	T, w, err := OptimalAcyclicThroughput(ins, ws)
	if err != nil {
		return 0, nil, nil, err
	}
	T, s, err := BuildSchemeShaved(ins, w, T, ws, BuildScheme)
	if err != nil {
		return 0, nil, nil, err
	}
	return T, s, w, nil
}

// BuildSchemeShaved materializes word w at throughput T with build
// (BuildScheme, or the depth-aware builder), retrying a hair below T
// when float dust makes the exact optimum infeasible — the one retry
// policy shared by the full solve, both repair paths and the engine's
// word-search solvers. It returns the throughput actually built
// (possibly shaved).
func BuildSchemeShaved(ins *platform.Instance, w Word, T float64, ws *Workspace,
	build func(*platform.Instance, Word, float64, *Workspace) (*Scheme, error)) (float64, *Scheme, error) {
	scheme, err := build(ins, w, T, ws)
	if err != nil {
		T *= 1 - 1e-12
		if scheme, err = build(ins, w, T, ws); err != nil {
			return 0, nil, err
		}
	}
	return T, scheme, nil
}
