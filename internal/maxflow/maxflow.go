// Package maxflow implements maximum s-t flow on small directed networks.
//
// Broadcast-scheme throughput in the paper is defined as
// T = min_i maxflow(C0 → Ci) over the weighted overlay graph, so a flow
// solver is the verification substrate for every constructive algorithm
// in internal/core. Two implementations are provided:
//
//   - Dinic on float64 capacities — fast path used by the experiment
//     harness (thousands of nodes);
//   - Edmonds–Karp on *big.Rat capacities — exact path used by tests and
//     the exhaustive optimizer, immune to rounding noise.
//
// The float64 path is built for repeated evaluation. Arcs are stored in
// flat CSR (compressed sparse row) arrays — one offset array plus
// parallel to/rev/cap/init arrays indexed by a global arc id — rather
// than a slice of per-node edge slices: AddEdge accumulates a raw edge
// list and the first query compiles it into CSR form (a stable counting
// sort that preserves each node's append order, so augmenting-path
// discovery is bit-identical to the old representation). Every arc
// carries its original capacity alongside the residual, so Reset is one
// copy(cap, init) memcpy, and a Workspace holds the BFS/DFS scratch
// (plus a reusable Network) so thousands of throughput evaluations run
// with zero steady-state allocations. Node and arc counts must fit in
// an int32 — ample headroom for the 100k-node workloads on the roadmap.
package maxflow

import (
	"math"
	"math/big"
)

// Eps is the tolerance used by the float64 solver when deciding whether a
// residual capacity is usable. Capacities in the experiments are O(1e3),
// so 1e-9 leaves ~6 orders of magnitude of headroom.
const Eps = 1e-9

// Network is a flow network on nodes 0..n-1 with float64 capacities,
// stored as flat CSR arrays (see the package comment for the layout).
type Network struct {
	n     int
	built bool  // CSR arrays reflect the raw edge list
	grows int64 // backing-array (re)allocations, surfaced via Workspace.Grows

	// Raw edge list in AddEdge call order; finalize compiles it.
	rawFrom, rawTo []int32
	rawCap         []float64

	// CSR arc arrays. Node v's arcs occupy indices start[v]..start[v+1].
	// Each raw edge contributes two arcs: the forward arc (cap=init=c)
	// and its residual twin (cap=init=0), mutually linked through rev.
	start []int32   // len n+1
	to    []int32   // arc head
	rev   []int32   // global index of the paired reverse arc
	cap   []float64 // residual capacity, consumed by Max
	init  []float64 // original capacity, restored by Reset

	next []int32 // finalize scratch: per-node fill cursor
}

// NewNetwork returns an empty network on n nodes.
func NewNetwork(n int) *Network {
	return &Network{n: n}
}

// N returns the number of nodes.
func (g *Network) N() int { return g.n }

// AddEdge adds a directed edge with the given capacity. Non-positive
// capacities and self-loops are ignored.
func (g *Network) AddEdge(from, to int, c float64) {
	if c <= 0 || from == to {
		return
	}
	if len(g.rawFrom) == cap(g.rawFrom) { // at capacity: append will grow
		g.grows++
	}
	g.rawFrom = append(g.rawFrom, int32(from))
	g.rawTo = append(g.rawTo, int32(to))
	g.rawCap = append(g.rawCap, c)
	g.built = false
}

// growI32 resizes p to n, reallocating (and counting the growth) only
// when the backing array is too small.
func growI32(p []int32, n int, grows *int64) []int32 {
	if cap(p) < n {
		*grows++
		return make([]int32, n)
	}
	return p[:n]
}

// growF64 is growI32 for float64 scratch.
func growF64(p []float64, n int, grows *int64) []float64 {
	if cap(p) < n {
		*grows++
		return make([]float64, n)
	}
	return p[:n]
}

// finalize compiles the raw edge list into the CSR arrays. The fill
// walks raw edges in AddEdge call order with per-node cursors, so every
// node's arc order is exactly the append order of the previous
// slice-of-slices representation: within one AddEdge the forward arc
// lands at from before the residual twin lands at to, and successive
// calls append in sequence. Dinic therefore discovers augmenting paths
// in the identical order, making the CSR kernel bit-identical to the
// pre-refactor one (pinned by the engine solver-fingerprint test).
func (g *Network) finalize() {
	if g.built {
		return
	}
	g.start = growI32(g.start, g.n+1, &g.grows)
	g.next = growI32(g.next, g.n, &g.grows)
	for i := range g.next {
		g.next[i] = 0
	}
	m := len(g.rawFrom)
	for i := 0; i < m; i++ {
		g.next[g.rawFrom[i]]++
		g.next[g.rawTo[i]]++
	}
	g.start[0] = 0
	for v := 0; v < g.n; v++ {
		g.start[v+1] = g.start[v] + g.next[v]
		g.next[v] = g.start[v]
	}
	na := 2 * m
	g.to = growI32(g.to, na, &g.grows)
	g.rev = growI32(g.rev, na, &g.grows)
	g.cap = growF64(g.cap, na, &g.grows)
	g.init = growF64(g.init, na, &g.grows)
	for i := 0; i < m; i++ {
		u, v, c := g.rawFrom[i], g.rawTo[i], g.rawCap[i]
		fi := g.next[u]
		g.next[u]++
		ri := g.next[v]
		g.next[v]++
		g.to[fi], g.rev[fi], g.cap[fi], g.init[fi] = v, ri, c, c
		g.to[ri], g.rev[ri], g.cap[ri], g.init[ri] = u, fi, 0, 0
	}
	g.built = true
}

// Reset restores every residual capacity to its original value, undoing
// all flow pushed by Max since construction — one flat memcpy on the
// CSR capacity array, which is what keeps the min-over-targets
// throughput functional cheap (it Resets once per target).
func (g *Network) Reset() {
	if !g.built {
		g.finalize() // a fresh build is already in the reset state
		return
	}
	copy(g.cap, g.init)
}

// Max computes the maximum flow from s to t with Dinic's algorithm.
// The network's residual capacities are consumed: Reset the network for
// repeated queries (Workspace.MinFromSource does, per target).
func (g *Network) Max(s, t int) float64 {
	var w Workspace
	return g.maxBounded(s, t, math.Inf(1), &w)
}

// maxBounded runs Dinic using w's scratch slices and stops as soon as
// the accumulated flow reaches bound, returning the flow so far
// (MinFromSource passes its running minimum: a target whose flow meets
// it cannot lower the minimum). It adds two phase-level heuristics to
// the textbook algorithm (both prune only provably-dead work, so
// augmenting-path order and every float64 rounding decision are
// unchanged):
//
//   - BFS truncation (the global-relabel analogue): the layering stops
//     the moment t is labeled — nodes at deeper levels cannot lie on a
//     shortest s-t path, so labeling them is wasted work;
//   - dead-node retirement (the gap analogue): a node whose DFS visit
//     exhausts all arcs without reaching t is unlabeled for the rest of
//     the phase, and arcs into t's level that do not hit t itself are
//     never entered.
func (g *Network) maxBounded(s, t int, bound float64, w *Workspace) float64 {
	if s == t {
		return math.Inf(1)
	}
	if bound <= 0 {
		return 0
	}
	g.finalize()
	level := w.ints(&w.level, g.n)
	iter := w.ints(&w.iter, g.n)
	queue := w.ints(&w.queue, g.n)[:0]
	var total float64
	for {
		// BFS layering, truncated once t is reached.
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, s)
		level[s] = 0
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			lv := level[v] + 1
			for ai := g.start[v]; ai < g.start[v+1]; ai++ {
				to := g.to[ai]
				if g.cap[ai] > Eps && level[to] < 0 {
					level[to] = lv
					if int(to) == t {
						break bfs
					}
					queue = append(queue, int(to))
				}
			}
		}
		if level[t] < 0 {
			return total
		}
		for i := range iter {
			iter[i] = int(g.start[i])
		}
		for {
			f := g.dfs(s, t, level[t], math.Inf(1), level, iter)
			if f <= Eps {
				break
			}
			total += f
			if total >= bound {
				return total
			}
		}
	}
}

// dfs pushes one blocking-flow augmentation from v toward t. iter holds
// each node's resume position as a global arc index; tl is t's level
// this phase (arcs into that level are dead ends unless they hit t).
func (g *Network) dfs(v, t, tl int, f float64, level, iter []int) float64 {
	if v == t {
		return f
	}
	lv := level[v] + 1
	end := int(g.start[v+1])
	for ; iter[v] < end; iter[v]++ {
		ai := iter[v]
		to := int(g.to[ai])
		if g.cap[ai] <= Eps || level[to] != lv || (lv == tl && to != t) {
			continue
		}
		d := g.dfs(to, t, tl, math.Min(f, g.cap[ai]), level, iter)
		if d > Eps {
			g.cap[ai] -= d
			g.cap[g.rev[ai]] += d
			return d
		}
	}
	level[v] = -1 // dead this phase: no remaining arc reaches t
	return 0
}

// Clone returns a deep copy of the network (for repeated max-flow queries
// from the same base capacities). Residual state is preserved.
func (g *Network) Clone() *Network {
	g.finalize()
	return &Network{
		n:       g.n,
		built:   true,
		rawFrom: append([]int32(nil), g.rawFrom...),
		rawTo:   append([]int32(nil), g.rawTo...),
		rawCap:  append([]float64(nil), g.rawCap...),
		start:   append([]int32(nil), g.start...),
		to:      append([]int32(nil), g.to...),
		rev:     append([]int32(nil), g.rev...),
		cap:     append([]float64(nil), g.cap...),
		init:    append([]float64(nil), g.init...),
	}
}

// MinFromSource returns min over targets of maxflow(s→target). This is
// the paper's throughput functional. Targets with target == s are
// skipped. The network is left with its original capacities (queries
// run on in-place Reset instead of per-target clones).
func (g *Network) MinFromSource(s int, targets []int) float64 {
	var w Workspace
	return w.MinFromSource(g, s, targets)
}

// ---------------------------------------------------------------------------
// Exact solver.

type ratEdge struct {
	to  int
	cap *big.Rat
	rev int
}

// RatNetwork is a flow network with exact rational capacities.
type RatNetwork struct {
	n   int
	adj [][]ratEdge
}

// NewRatNetwork returns an empty exact network on n nodes.
func NewRatNetwork(n int) *RatNetwork {
	return &RatNetwork{n: n, adj: make([][]ratEdge, n)}
}

// AddEdge adds a directed edge with exact capacity (copied). Non-positive
// capacities are ignored.
func (g *RatNetwork) AddEdge(from, to int, cap *big.Rat) {
	if cap.Sign() <= 0 || from == to {
		return
	}
	g.adj[from] = append(g.adj[from], ratEdge{to: to, cap: new(big.Rat).Set(cap), rev: len(g.adj[to])})
	g.adj[to] = append(g.adj[to], ratEdge{to: from, cap: new(big.Rat), rev: len(g.adj[from]) - 1})
}

// Clone returns a deep copy.
func (g *RatNetwork) Clone() *RatNetwork {
	c := &RatNetwork{n: g.n, adj: make([][]ratEdge, g.n)}
	for i := range g.adj {
		c.adj[i] = make([]ratEdge, len(g.adj[i]))
		for j, e := range g.adj[i] {
			c.adj[i][j] = ratEdge{to: e.to, cap: new(big.Rat).Set(e.cap), rev: e.rev}
		}
	}
	return c
}

// Max computes the exact maximum s-t flow with Edmonds–Karp (BFS shortest
// augmenting paths). Residual capacities are consumed.
func (g *RatNetwork) Max(s, t int) *big.Rat {
	total := new(big.Rat)
	if s == t {
		return total
	}
	prevNode := make([]int, g.n)
	prevEdge := make([]int, g.n)
	for {
		for i := range prevNode {
			prevNode[i] = -1
		}
		prevNode[s] = s
		queue := []int{s}
		for qi := 0; qi < len(queue) && prevNode[t] < 0; qi++ {
			v := queue[qi]
			for ei := range g.adj[v] {
				e := &g.adj[v][ei]
				if e.cap.Sign() > 0 && prevNode[e.to] < 0 {
					prevNode[e.to] = v
					prevEdge[e.to] = ei
					queue = append(queue, e.to)
				}
			}
		}
		if prevNode[t] < 0 {
			return total
		}
		// Bottleneck along the path.
		var bottleneck *big.Rat
		for v := t; v != s; v = prevNode[v] {
			e := &g.adj[prevNode[v]][prevEdge[v]]
			if bottleneck == nil || e.cap.Cmp(bottleneck) < 0 {
				bottleneck = e.cap
			}
		}
		aug := new(big.Rat).Set(bottleneck)
		for v := t; v != s; v = prevNode[v] {
			e := &g.adj[prevNode[v]][prevEdge[v]]
			e.cap.Sub(e.cap, aug)
			rev := &g.adj[v][e.rev]
			rev.cap.Add(rev.cap, aug)
		}
		total.Add(total, aug)
	}
}

// MinFromSource returns the exact min over targets of maxflow(s→target).
func (g *RatNetwork) MinFromSource(s int, targets []int) *big.Rat {
	var minFlow *big.Rat
	for _, t := range targets {
		if t == s {
			continue
		}
		f := g.Clone().Max(s, t)
		if minFlow == nil || f.Cmp(minFlow) < 0 {
			minFlow = f
		}
	}
	if minFlow == nil {
		return new(big.Rat)
	}
	return minFlow
}
