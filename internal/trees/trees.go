// Package trees decomposes acyclic broadcast schemes into weighted
// broadcast (spanning arborescence) trees.
//
// Section II-C of the paper notes that the weighted overlay produced by
// the algorithms "can be decomposed into a set of weighted broadcast
// trees" (Schrijver, Combinatorial Optimization, ch. 53): the scheme
// sustains rate T iff T units of arborescences rooted at the source can
// be packed into the edge capacities. For the acyclic schemes built in
// this repository the decomposition is particularly simple — every
// non-source node receives exactly T, and choosing any positive-residual
// in-edge per node yields an arborescence because all edges point forward
// in the topological order. Each extraction zeroes at least one edge, so
// at most |E| trees are produced.
//
// The decomposition specifies which data goes where at which time: tree
// k of weight w_k carries a w_k-fraction of the stream along its edges.
package trees

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// eps is the float tolerance for residual capacities.
const eps = 1e-9

// Tree is one weighted broadcast tree: Parent[v] is the node v receives
// from (Parent[root] = -1). Nodes outside the tree's span never occur —
// trees returned by Decompose always span all nodes.
type Tree struct {
	Weight float64
	Parent []int
}

// Depth returns the number of hops on the longest root-to-leaf path —
// the streaming delay of this tree (the paper's conclusion lists depth
// optimization as future work; we expose the metric).
func (t *Tree) Depth() int {
	depth := make([]int, len(t.Parent))
	var maxd int
	var rec func(v int) int
	rec = func(v int) int {
		if t.Parent[v] < 0 {
			return 0
		}
		if depth[v] == 0 {
			depth[v] = rec(t.Parent[v]) + 1
		}
		return depth[v]
	}
	for v := range t.Parent {
		if d := rec(v); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Decompose splits an acyclic scheme of throughput T into weighted
// spanning arborescences rooted at the source, with Σ weights = T and
// per-edge usage within the scheme's rates. It errors out when the
// scheme is cyclic or when some node's in-rate falls short of T.
func Decompose(s *core.Scheme, T float64) ([]Tree, error) {
	if T <= 0 {
		return nil, errors.New("trees: non-positive target throughput")
	}
	if !s.IsAcyclic() {
		return nil, errors.New("trees: scheme is cyclic; arborescence extraction requires a DAG")
	}
	total := s.Instance().Total()
	for v := 1; v < total; v++ {
		if in := s.InRate(v); in < T-eps*(1+T) {
			return nil, fmt.Errorf("trees: node %d receives %v < T=%v", v, in, T)
		}
	}

	// Residual rates, mutable.
	type edgeKey struct{ from, to int }
	residual := make(map[edgeKey]float64)
	for _, e := range s.Edges() {
		residual[edgeKey{e.From, e.To}] = e.Weight
	}

	var out []Tree
	remaining := T
	for remaining > eps*(1+T) {
		parent := make([]int, total)
		parent[0] = -1
		w := remaining
		// Pick the max-residual in-edge for each node (greedy: fewer,
		// fatter trees) and track the bottleneck.
		for v := 1; v < total; v++ {
			bestFrom, bestRes := -1, eps
			for u := 0; u < total; u++ {
				if u == v {
					continue
				}
				if r := residual[edgeKey{u, v}]; r > bestRes {
					bestFrom, bestRes = u, r
				}
			}
			if bestFrom < 0 {
				return nil, fmt.Errorf("trees: node %d has no residual in-edge with %v of %v left", v, remaining, T)
			}
			parent[v] = bestFrom
			if bestRes < w {
				w = bestRes
			}
		}
		for v := 1; v < total; v++ {
			k := edgeKey{parent[v], v}
			residual[k] -= w
			if residual[k] <= eps {
				delete(residual, k)
			}
		}
		out = append(out, Tree{Weight: w, Parent: parent})
		remaining -= w
	}
	return out, nil
}

// Verify checks that a decomposition is consistent with the scheme: the
// weights sum to T, every tree is a spanning arborescence rooted at the
// source, and per-edge usage stays within the scheme's rates.
func Verify(s *core.Scheme, T float64, ts []Tree) error {
	total := s.Instance().Total()
	sum := 0.0
	type edgeKey struct{ from, to int }
	usage := make(map[edgeKey]float64)
	for idx, tr := range ts {
		if len(tr.Parent) != total {
			return fmt.Errorf("trees: tree %d has %d nodes, want %d", idx, len(tr.Parent), total)
		}
		if tr.Parent[0] != -1 {
			return fmt.Errorf("trees: tree %d not rooted at the source", idx)
		}
		if tr.Weight <= 0 {
			return fmt.Errorf("trees: tree %d has weight %v", idx, tr.Weight)
		}
		sum += tr.Weight
		// Walk each node to the root, bounding steps to detect cycles.
		for v := 1; v < total; v++ {
			u, steps := v, 0
			for u != 0 {
				u = tr.Parent[u]
				if u < 0 || steps > total {
					return fmt.Errorf("trees: tree %d: node %d does not reach the source", idx, v)
				}
				steps++
			}
			usage[edgeKey{tr.Parent[v], v}] += tr.Weight
		}
	}
	if sum < T-eps*(1+T) || sum > T+eps*(1+T) {
		return fmt.Errorf("trees: weights sum to %v, want %v", sum, T)
	}
	for k, u := range usage {
		if c := s.Rate(k.from, k.to); u > c+eps*(1+u) {
			return fmt.Errorf("trees: edge (%d,%d) used %v > rate %v", k.from, k.to, u, c)
		}
	}
	return nil
}
