package maxflow

import "math"

// Workspace holds the scratch state of the float64 Dinic solver — the
// BFS level/queue and DFS iterator slices plus one reusable Network —
// so a caller evaluating thousands of flows (the throughput functional
// sits under every solver) reaches a steady state with zero allocations
// per evaluation. The zero value is ready to use.
//
// A Workspace is not safe for concurrent use; pool one per goroutine
// (internal/engine owns such a pool).
type Workspace struct {
	level, iter, queue []int
	net                Network
	grows              int64
	flowEvals          int64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// ints returns *p resized to n, reallocating only on growth.
func (w *Workspace) ints(p *[]int, n int) []int {
	if cap(*p) < n {
		*p = make([]int, n)
		w.grows++
	}
	*p = (*p)[:n]
	return *p
}

// Network returns the workspace's reusable network reset to n empty
// nodes. The raw edge list and CSR arrays keep their backing storage
// across calls, so rebuilding a similarly-shaped network allocates
// nothing once warm. The returned network aliases the workspace: it is
// only valid until the next Network call and must not be retained.
func (w *Workspace) Network(n int) *Network {
	net := &w.net
	net.n = n
	net.rawFrom = net.rawFrom[:0]
	net.rawTo = net.rawTo[:0]
	net.rawCap = net.rawCap[:0]
	net.built = false
	return net
}

// MinFromSource returns min over targets of maxflow(s→target), the
// paper's throughput functional, with three evaluation-loop savings
// over the naive form:
//
//   - per-target Clone is replaced by in-place Reset (a flat memcpy on
//     the CSR capacity array), skipped entirely when the previous query
//     pushed no flow;
//   - BFS/DFS scratch is reused across targets (and across calls);
//   - each target's Dinic stops early once its flow reaches the running
//     minimum (a flow that provably meets the current min cannot lower
//     it, so its exact value is irrelevant).
//
// Targets equal to s are skipped; g is left with its original
// capacities.
func (w *Workspace) MinFromSource(g *Network, s int, targets []int) float64 {
	minFlow := math.Inf(1)
	consumed := false
	for _, t := range targets {
		if t == s {
			continue
		}
		if consumed {
			g.Reset()
		}
		w.flowEvals++
		f := g.maxBounded(s, t, minFlow, w)
		consumed = f > 0 // a zero-flow query leaves the residuals untouched
		if f < minFlow {
			minFlow = f
		}
	}
	if consumed {
		g.Reset()
	}
	if math.IsInf(minFlow, 1) {
		return 0
	}
	return minFlow
}

// FlowEvals returns the number of s-t flow queries answered so far.
func (w *Workspace) FlowEvals() int64 { return w.flowEvals }

// Grows returns how many times scratch storage had to (re)allocate —
// zero growth across a steady-state run is what "zero-allocation
// pipeline" means, and the engine surfaces this counter per solve. The
// reusable network's raw-edge and CSR backing arrays count too.
func (w *Workspace) Grows() int64 { return w.grows + w.net.grows }
