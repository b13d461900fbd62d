package core

import (
	"sync"

	"repro/internal/maxflow"
	"repro/internal/platform"
)

// Workspace bundles every scratch buffer the hot constructive and
// verification paths need — the max-flow solver state, the broadcast
// target list, the BuildScheme supplier queues, the dichotomic search's
// word double-buffer and the per-word evaluation candidates — so a
// caller running thousands of solves (sweeps, Figure 7/19 grids) reuses
// one set of allocations instead of re-allocating per call.
//
// Every exported function that runs on scratch (OptimalAcyclicThroughput,
// BuildScheme, Scheme.Throughput, ...) takes a workspace as its last
// argument; a nil workspace means a private one, allocated for that
// call alone.
//
// A Workspace is not safe for concurrent use; internal/engine leases one
// per worker from the package pool (AcquireWorkspace).
type Workspace struct {
	flow     maxflow.Workspace
	targets  []int
	openQ    []supplier
	guardedQ []supplier
	wordCur  Word // probe buffer for feasibility tests
	wordBest Word // survivor buffer the search keeps across probes
	cands    []wCand
	edges    []Edge
	resid    []float64
	poolA    []float64
	poolB    []float64
	pending  []pendingRate
	indeg    []int32   // Certify: in-degrees, then Kahn's counters
	order    []int32   // Certify: Kahn's release order
	inRate   []float64 // Certify: float in-rate sums
	unsure   []int32   // Certify: receivers left to the exact recheck
	stats    WorkspaceStats
}

// pendingRate is one uncommitted transfer of the guarded packer's peel.
type pendingRate struct {
	from, to int
	r        float64
}

// wCand is one W(π) candidate of the Lemma 4.4 closed forms, the counts
// (i', S^G_{j'}) after a ○ letter: a point of the lower hull that
// WordThroughput keeps.
type wCand struct {
	iS   int
	gSum float64
}

// WorkspaceStats counts the expensive inner evaluations routed through
// a workspace. The engine reports the per-solve delta in Result.Evals,
// making throughput-verification cost and scratch churn observable in
// sweeps.
type WorkspaceStats struct {
	// FlowEvals is the number of s-t max-flow queries answered.
	FlowEvals int64
	// GreedyTests is the number of Algorithm 2 feasibility probes.
	GreedyTests int64
	// WordEvals is the number of per-word throughput evaluations.
	WordEvals int64
	// Builds is the number of scheme constructions.
	Builds int64
	// Grows is how many times a scratch buffer had to (re)allocate;
	// zero across a warm run is the zero-allocation steady state.
	Grows int64
}

// Sub returns s - prev, the evaluation cost between two snapshots.
func (s WorkspaceStats) Sub(prev WorkspaceStats) WorkspaceStats {
	return WorkspaceStats{
		FlowEvals:   s.FlowEvals - prev.FlowEvals,
		GreedyTests: s.GreedyTests - prev.GreedyTests,
		WordEvals:   s.WordEvals - prev.WordEvals,
		Builds:      s.Builds - prev.Builds,
		Grows:       s.Grows - prev.Grows,
	}
}

// Add returns the component-wise sum s + other (for sweep aggregation).
func (s WorkspaceStats) Add(other WorkspaceStats) WorkspaceStats {
	return WorkspaceStats{
		FlowEvals:   s.FlowEvals + other.FlowEvals,
		GreedyTests: s.GreedyTests + other.GreedyTests,
		WordEvals:   s.WordEvals + other.WordEvals,
		Builds:      s.Builds + other.Builds,
		Grows:       s.Grows + other.Grows,
	}
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Prealloc grows the workspace's scratch buffers to serve instances of
// up to total nodes (source + receivers) without further reallocation,
// so a solve at n=100k starts from right-sized scratch instead of
// paying a cascade of mid-solve reallocations. It is a deliberate
// sizing hint, not scratch churn, so it does not count toward
// WorkspaceStats.Grows. Preallocating for a total the workspace already
// serves is a no-op; contents are untouched either way.
func (ws *Workspace) Prealloc(total int) {
	if ws == nil || total <= 1 {
		return
	}
	if cap(ws.targets) < total-1 {
		ws.targets = make([]int, 0, total-1)
	}
	if cap(ws.resid) < total {
		ws.resid = make([]float64, 0, total)
	}
	if cap(ws.wordCur) < total-1 {
		ws.wordCur = make(Word, 0, total-1)
	}
	if cap(ws.wordBest) < total-1 {
		ws.wordBest = make(Word, 0, total-1)
	}
	if cap(ws.cands) < total {
		ws.cands = make([]wCand, 0, total)
	}
	if cap(ws.openQ) < total {
		ws.openQ = make([]supplier, 0, total)
	}
	if cap(ws.guardedQ) < total {
		ws.guardedQ = make([]supplier, 0, total)
	}
	if cap(ws.poolA) < total {
		ws.poolA = make([]float64, 0, total)
	}
	if cap(ws.poolB) < total {
		ws.poolB = make([]float64, 0, total)
	}
	ws.flow.Prealloc(total)
}

// wsPool is the one workspace pool: internal/engine leases its
// per-worker workspaces from it, and so do the root package's search,
// solve and repair conveniences, so those callers amortize scratch
// storage across calls instead of paying a cold allocation set per
// solve.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// AcquireWorkspace takes a workspace from the pool; return it with
// ReleaseWorkspace when done.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// ReleaseWorkspace returns a non-nil workspace to the pool.
func ReleaseWorkspace(ws *Workspace) { wsPool.Put(ws) }

// Stats returns a snapshot of the cumulative evaluation counters
// (including the flow solver's growth counter).
func (ws *Workspace) Stats() WorkspaceStats {
	if ws == nil {
		return WorkspaceStats{}
	}
	s := ws.stats
	s.FlowEvals = ws.flow.FlowEvals()
	s.Grows += ws.flow.Grows()
	return s
}

// ensure returns ws, or a fresh private workspace when ws is nil.
func (ws *Workspace) ensure() *Workspace {
	if ws == nil {
		return NewWorkspace()
	}
	return ws
}

// broadcastTargets returns the node list {1, ..., total-1} — the
// "every receiver" target set of the throughput functional, shared by
// Throughput and ThroughputExact — reusing the workspace's buffer.
func (ws *Workspace) broadcastTargets(total int) []int {
	if cap(ws.targets) < total-1 {
		ws.targets = make([]int, total-1)
		ws.stats.Grows++
	}
	ws.targets = ws.targets[:total-1]
	return fillBroadcastTargets(ws.targets)
}

// certifyScratch returns Certify's per-node scratch for a total-node
// scheme: zeroed in-degree and in-rate vectors and an empty order
// buffer with room for every node.
func (ws *Workspace) certifyScratch(total int) (indeg []int32, in []float64, order []int32) {
	if cap(ws.indeg) < total {
		ws.indeg = make([]int32, total)
		ws.order = make([]int32, 0, total)
		ws.inRate = make([]float64, total)
		ws.stats.Grows++
	}
	ws.indeg, ws.inRate = ws.indeg[:total], ws.inRate[:total]
	clear(ws.indeg)
	clear(ws.inRate)
	return ws.indeg, ws.inRate, ws.order[:0]
}

// residFor returns the workspace's residual-capacity vector filled with
// the instance's bandwidths in paper numbering.
func (ws *Workspace) residFor(ins *platform.Instance) []float64 {
	total := ins.Total()
	if cap(ws.resid) < total {
		ws.resid = make([]float64, total)
		ws.stats.Grows++
	}
	ws.resid = ws.resid[:total]
	for i := range ws.resid {
		ws.resid[i] = ins.Bandwidth(i)
	}
	return ws.resid
}

// scratchWord returns the probe word buffer, emptied.
func (ws *Workspace) scratchWord() Word { return ws.wordCur[:0] }

// noteWordBuffer stores a probe's (possibly reallocated) buffer back as
// the current word scratch, counting the regrowth.
func (ws *Workspace) noteWordBuffer(w Word) {
	if w == nil {
		return
	}
	if cap(w) > cap(ws.wordCur) {
		ws.stats.Grows++
	}
	ws.wordCur = w
}

// probeWord runs one Algorithm 2 feasibility test on the workspace's
// probe buffer, bundling the counter and buffer bookkeeping every call
// site needs. The returned word aliases the buffer: park it with
// keepWord (or clone it) before the next probe if it must survive.
func (ws *Workspace) probeWord(ins *platform.Instance, T float64) (Word, bool) {
	ws.stats.GreedyTests++
	w, _, ok := greedyTest(ins, T, false, ws.scratchWord())
	ws.noteWordBuffer(w)
	return w, ok
}

// keepWord marks the probe buffer's current content (w, which grew from
// scratchWord) as the survivor: the buffers swap, so later probes write
// into the other buffer and w stays intact until the next keepWord.
func (ws *Workspace) keepWord(w Word) Word {
	ws.wordCur, ws.wordBest = ws.wordBest, w
	return w
}
