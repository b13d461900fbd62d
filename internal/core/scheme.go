package core

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"repro/internal/maxflow"
	"repro/internal/platform"
)

// Eps is the base tolerance used by float64 feasibility comparisons.
// All comparisons are scale-aware: a quantity x is treated as ≥ y when
// x ≥ y − tol(T), with tol growing with the throughput magnitude.
const Eps = 1e-9

// tol returns the comparison slack for values of magnitude around scale.
func tol(scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	return Eps * scale
}

// arc is one outgoing edge of the sparse rate matrix.
type arc struct {
	to   int
	rate float64
}

// adjacency is one node's outgoing edges kept sorted by destination.
// Compared to a map[int]float64 it is cache-friendly, allocation-cheap
// (one backing array per node instead of map buckets) and iterates in
// deterministic order, which removes the per-call sort from Edges — the
// hot build/validate/maxflow paths all walk it.
type adjacency []arc

// find returns the slice position of destination j and whether it is
// present; when absent, the position is the insertion point keeping the
// adjacency sorted.
func (a adjacency) find(j int) (int, bool) {
	pos := sort.Search(len(a), func(k int) bool { return a[k].to >= j })
	return pos, pos < len(a) && a[pos].to == j
}

// set writes rate r for destination j, inserting in sorted position.
func (a *adjacency) set(j int, r float64) {
	pos, ok := a.find(j)
	if ok {
		(*a)[pos].rate = r
		return
	}
	a.insert(pos, j, r)
}

// insert puts a new arc to j at position pos, which must keep the
// adjacency sorted. The first insert reserves room for a handful of
// arcs: the paper's schemes keep outdegrees near ⌈b_i/T⌉+O(1), so most
// nodes never reallocate.
func (a *adjacency) insert(pos, j int, r float64) {
	if *a == nil {
		*a = make(adjacency, 0, 4)
	}
	*a = append(*a, arc{})
	copy((*a)[pos+1:], (*a)[pos:])
	(*a)[pos] = arc{to: j, rate: r}
}

// remove deletes destination j if present.
func (a *adjacency) remove(j int) {
	pos, ok := a.find(j)
	if !ok {
		return
	}
	*a = append((*a)[:pos], (*a)[pos+1:]...)
}

// Edge is one positive-rate entry c[From][To] = Weight of a scheme.
type Edge struct {
	From, To int
	Weight   float64
}

// Scheme is a broadcast scheme: the rate matrix {c_ij} of Section II-D
// attached to its instance. Rates are kept sparse (only positive entries
// are stored, since c_ij = 0 means "no connection" and must not count
// toward outdegrees).
type Scheme struct {
	ins *platform.Instance
	out []adjacency
}

// NewScheme returns an empty scheme for the instance.
func NewScheme(ins *platform.Instance) *Scheme {
	return &Scheme{ins: ins, out: make([]adjacency, ins.Total())}
}

// Instance returns the instance this scheme was built for.
func (s *Scheme) Instance() *platform.Instance { return s.ins }

// Add increases c[i][j] by rate. Rates below the numeric floor are
// dropped so float dust never inflates a node's outdegree. Self-loops
// and negative rates are programming errors and panic.
func (s *Scheme) Add(i, j int, rate float64) {
	if i == j {
		panic(fmt.Sprintf("core: self-loop on node %d", i))
	}
	if rate < 0 {
		panic(fmt.Sprintf("core: negative rate %v on edge (%d,%d)", rate, i, j))
	}
	if isDust(rate) {
		return
	}
	a := &s.out[i]
	// A destination past the last arc appends without a search.
	pos := len(*a)
	if pos > 0 && (*a)[pos-1].to >= j {
		var ok bool
		if pos, ok = a.find(j); ok {
			(*a)[pos].rate += rate
			return
		}
	}
	a.insert(pos, j, rate)
}

// isDust reports whether rate lies at or below the numeric floor under
// which a scheme keeps no edge.
func isDust(rate float64) bool { return rate <= tol(rate) }

// shift adjusts c[i][j] by delta (possibly negative); used by the cyclic
// constructor's rerouting steps. Results within tolerance of zero delete
// the edge; going materially negative panics (it would mean the
// construction's invariants were violated).
func (s *Scheme) shift(i, j int, delta float64) {
	if i == j {
		panic(fmt.Sprintf("core: self-loop on node %d", i))
	}
	cur := s.Rate(i, j)
	next := cur + delta
	if next < -tol(math.Abs(delta)+cur) {
		panic(fmt.Sprintf("core: edge (%d,%d) driven negative: %v + %v", i, j, cur, delta))
	}
	if next <= tol(math.Abs(next)) {
		s.out[i].remove(j)
		return
	}
	s.out[i].set(j, next)
}

// Rate returns c[i][j] (zero when absent).
func (s *Scheme) Rate(i, j int) float64 {
	if pos, ok := s.out[i].find(j); ok {
		return s.out[i][pos].rate
	}
	return 0
}

// OutRate returns Σ_j c[i][j].
func (s *Scheme) OutRate(i int) float64 {
	var sum float64
	for _, e := range s.out[i] {
		sum += e.rate
	}
	return sum
}

// InRate returns Σ_i c[i][j].
func (s *Scheme) InRate(j int) float64 {
	var sum float64
	for i := range s.out {
		if pos, ok := s.out[i].find(j); ok {
			sum += s.out[i][pos].rate
		}
	}
	return sum
}

// OutDegree returns o_i = |{j : c[i][j] > 0}|.
func (s *Scheme) OutDegree(i int) int { return len(s.out[i]) }

// MaxOutDegree returns max_i o_i.
func (s *Scheme) MaxOutDegree() int {
	best := 0
	for i := range s.out {
		if len(s.out[i]) > best {
			best = len(s.out[i])
		}
	}
	return best
}

// Edges returns all edges sorted by (From, To). The adjacency slices are
// already destination-sorted, so this is a single ordered copy.
func (s *Scheme) Edges() []Edge {
	es := make([]Edge, 0, s.NumEdges())
	for i := range s.out {
		for _, e := range s.out[i] {
			es = append(es, Edge{From: i, To: e.to, Weight: e.rate})
		}
	}
	return es
}

// InEdges appends every positive-rate edge into j to buf (in sender
// order) and returns the extended slice.
func (s *Scheme) InEdges(j int, buf []Edge) []Edge {
	for i := range s.out {
		if pos, ok := s.out[i].find(j); ok {
			buf = append(buf, Edge{From: i, To: j, Weight: s.out[i][pos].rate})
		}
	}
	return buf
}

// NumEdges returns the number of positive-rate edges.
func (s *Scheme) NumEdges() int {
	c := 0
	for i := range s.out {
		c += len(s.out[i])
	}
	return c
}

// topoOrder runs Kahn's algorithm over the sparse adjacency and returns
// the nodes in the order it released them. The order holds every node
// exactly when the scheme is acyclic; on a cycle it stops short.
func (s *Scheme) topoOrder() []int32 {
	n := len(s.out)
	indeg := make([]int32, n)
	for i := range s.out {
		for _, e := range s.out[i] {
			indeg[e.to]++
		}
	}
	return s.kahn(indeg, make([]int32, 0, n))
}

// kahn is topoOrder on caller scratch: indeg holds every node's
// in-degree and is consumed (a released node ends at zero), and the
// release order is appended to order.
func (s *Scheme) kahn(indeg, order []int32) []int32 {
	for v := range indeg {
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for qi := 0; qi < len(order); qi++ {
		for _, e := range s.out[order[qi]] {
			if indeg[e.to]--; indeg[e.to] == 0 {
				order = append(order, int32(e.to))
			}
		}
	}
	return order
}

// IsAcyclic reports whether the communication graph is a DAG.
func (s *Scheme) IsAcyclic() bool { return len(s.topoOrder()) == len(s.out) }

// SchemeDepth returns the longest hop path from the source (−1 for
// cyclic schemes) — the streaming delay metric of the paper's
// conclusion. Nodes the source does not reach are ignored.
func SchemeDepth(s *Scheme) int {
	order := s.topoOrder()
	if len(order) != len(s.out) {
		return -1
	}
	dist := make([]int, len(s.out))
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	maxd := 0
	for _, v := range order {
		if dist[v] < 0 {
			continue
		}
		for _, e := range s.out[v] {
			if d := dist[v] + 1; d > dist[e.to] {
				dist[e.to] = d
				maxd = max(maxd, d)
			}
		}
	}
	return maxd
}

// Throughput computes T = min_i maxflow(C0 → Ci) with the float64
// max-flow solver (the paper's definition of scheme throughput). The
// flow network, the Dinic solver state and the target list all come
// from ws (nil: a private workspace), so repeated verification (every
// solver runs one per instance, sweeps run thousands) allocates nothing
// once the workspace is warm.
func (s *Scheme) Throughput(ws *Workspace) float64 {
	ws = ws.ensure()
	total := s.ins.Total()
	if total <= 1 {
		return 0
	}
	net := ws.flow.Network(total)
	for i := range s.out {
		for _, e := range s.out[i] {
			net.AddEdge(i, e.to, e.rate)
		}
	}
	return ws.flow.MinFromSource(net, 0, ws.broadcastTargets(total))
}

// ThroughputExact computes the throughput with exact rational max-flow.
// Rates are converted from float64 exactly (every float64 is a rational).
func (s *Scheme) ThroughputExact() *big.Rat {
	total := s.ins.Total()
	net := maxflow.NewRatNetwork(total)
	r := new(big.Rat)
	for i := range s.out {
		for _, e := range s.out[i] {
			r.SetFloat64(e.rate)
			net.AddEdge(i, e.to, r) // AddEdge copies the capacity
		}
	}
	return net.MinFromSource(0, fillBroadcastTargets(make([]int, total-1)))
}

// fillBroadcastTargets writes the node list {1, ..., len(buf)} — the
// "every receiver" target set of the throughput functional, shared by
// Throughput and ThroughputExact — into buf.
func fillBroadcastTargets(buf []int) []int {
	for i := range buf {
		buf[i] = i + 1
	}
	return buf
}

// Validate checks the model constraints of Section II-D:
//
//   - bandwidth: Σ_j c[i][j] ≤ b_i (within tolerance),
//   - firewall: no guarded→guarded edge,
//   - sanity: all rates positive, no self-loops (enforced structurally).
func (s *Scheme) Validate() error {
	for i := range s.out {
		outSum := s.OutRate(i)
		bi := s.ins.Bandwidth(i)
		if outSum > bi+tol(bi+outSum) {
			return fmt.Errorf("core: node %d exceeds bandwidth: sends %v > b=%v", i, outSum, bi)
		}
		if s.ins.KindOf(i) == platform.Guarded {
			for _, e := range s.out[i] {
				if s.ins.KindOf(e.to) == platform.Guarded {
					return fmt.Errorf("core: firewall violation on edge (%d,%d): both guarded", i, e.to)
				}
			}
		}
	}
	return nil
}

// DegreeSlack returns, for a target throughput T, the per-node slack
// o_i − ⌈b_i/T⌉ for nodes that send anything (0 for the others), and
// the maximum slack. This is the paper's additive-resource-augmentation
// measure: Algorithm 1 guarantees max slack ≤ 1, Theorem 4.1 ≤ 3 (≤ 1
// on guarded nodes), Theorem 5.2 ≤ 2 (with an absolute floor of 4 on
// the degree itself).
func (s *Scheme) DegreeSlack(T float64) (perNode []int, maxSlack int) {
	perNode = make([]int, s.ins.Total())
	for i := range s.out {
		if len(s.out[i]) > 0 {
			perNode[i] = s.nodeSlack(i, T)
		}
	}
	return perNode, s.MaxDegreeSlack(T)
}

// MaxDegreeSlack returns DegreeSlack's maximum without the per-node
// slice: the largest o_i − ⌈b_i/T⌉ over the nodes that send anything,
// 0 when none does.
func (s *Scheme) MaxDegreeSlack(T float64) int {
	maxSlack := math.MinInt
	for i := range s.out {
		if len(s.out[i]) > 0 {
			maxSlack = max(maxSlack, s.nodeSlack(i, T))
		}
	}
	if maxSlack == math.MinInt {
		return 0
	}
	return maxSlack
}

// nodeSlack is o_i − ⌈b_i/T⌉, the slack of one node.
func (s *Scheme) nodeSlack(i int, T float64) int {
	return len(s.out[i]) - DegreeLowerBound(s.ins.Bandwidth(i), T)
}

// DegreeLowerBound returns ⌈b/T⌉, the minimum outdegree a node of
// bandwidth b can have in any scheme of throughput T that uses all of b
// (no edge usefully carries more than T). Float dust just below an
// integer boundary is rounded down so the bound matches the exact value.
func DegreeLowerBound(b, T float64) int {
	if T <= 0 {
		panic("core: DegreeLowerBound with non-positive throughput")
	}
	q := b / T
	c := math.Ceil(q - 1e-9)
	if c < 0 {
		return 0
	}
	return int(c)
}

// String summarizes the scheme.
func (s *Scheme) String() string {
	return fmt.Sprintf("Scheme{%d nodes, %d edges, maxdeg=%d}", s.ins.Total(), s.NumEdges(), s.MaxOutDegree())
}
