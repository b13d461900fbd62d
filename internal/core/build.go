package core

import (
	"fmt"

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
// The supplier lists, the transfer record and the layout counts come
// from ws (nil: a private workspace); the scheme itself is one freshly
// allocated, exactly sized arc slab, since it escapes to the caller.
func BuildScheme(ins *platform.Instance, w Word, T float64, ws *Workspace) (*Scheme, error) {
	return buildWord(ins, w, T, ws, nil)
}

// buildWord is Lemma 4.6's walk, shared by both builders: it serves
// the nodes in word order under the conservative class discipline and
// stops a receiver's draw once its unmet need is at most tol(T). Only
// the supplier a draw takes from differs: with a nil depth the
// earliest placed one (BuildScheme), otherwise the shallowest one
// (drawShallowest, which keeps each node's depth in depth). Draws record
// their transfers; a walk that succeeds lays them out once.
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
	openItems, guardedItems := ws.supplierLists(ins)
	open, guarded := queue{items: openItems}, queue{items: guardedItems}
	if ws.sizeBuild(total) {
		ws.stats.Grows++
	}
	recs := ws.xfers[:0]
	open.push(0, ins.B0)

	draw := func(q *queue, to int, need float64) float64 {
		if depth != nil {
			return drawShallowest(&recs, q, to, need, eps, depth)
		}
		for need > eps {
			sup := q.front(eps)
			if sup == nil {
				return need
			}
			take := min(need, sup.rem)
			recs.add(sup.id, to, take)
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
	return recs.layout(ins, ws.deg[:total]), nil
}

// transfer is one rate a Lemma 4.6 walk sends from a supplier to a
// receiver.
type transfer struct {
	from, to int32
	rate     float64
}

// transfers is a walk's record, in walk order; layout turns it into the
// scheme once the walk has succeeded.
type transfers []transfer

// add records rate from i to j unless Scheme.Add would drop it as dust.
func (t *transfers) add(i, j int, rate float64) {
	if !isDust(rate) {
		*t = append(*t, transfer{from: int32(i), to: int32(j), rate: rate})
	}
}

// layout lays the record out as the scheme that adding each transfer
// with Scheme.Add would give; deg is scratch, one entry per node.
// One counting pass sizes each node's window of one exact arc slab;
// then each supplier's open receivers (ids 1..n) are written before its
// guarded ones. A walk visits each (supplier, receiver) pair at most
// once, and a supplier's receivers of one class arrive in word order,
// which is increasing id order, so every adjacency comes out sorted by
// destination. Windows are three-index slices: a later Add reallocates
// instead of writing into the neighbour's window.
func (t transfers) layout(ins *platform.Instance, deg []int32) *Scheme {
	clear(deg)
	for _, r := range t {
		deg[r.from]++
	}
	s := NewScheme(ins)
	slab := make([]arc, len(t))
	off := int32(0)
	for i, d := range deg {
		s.out[i] = slab[off : off+d : off+d]
		deg[i] = off // now the node's write cursor
		off += d
	}
	n := int32(ins.N())
	for _, openPass := range [2]bool{true, false} {
		for _, r := range t {
			if (r.to <= n) == openPass {
				slab[deg[r.from]] = arc{to: int(r.to), rate: r.rate}
				deg[r.from]++
			}
		}
	}
	return s
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
