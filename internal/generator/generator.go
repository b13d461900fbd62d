// Package generator builds the broadcast instances used throughout the
// paper: the random tight instances of the average-case study (Appendix
// XII), the tight homogeneous family of the worst-case exploration
// (Figure 7), the extremal instances of Theorems 6.2 and 6.3, the
// NP-completeness reduction of Theorem 3.1 (Figure 8), and the concrete
// instances of Figures 1 and 6.
package generator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/distribution"
	"repro/internal/platform"
)

// TightSourceBandwidth returns the source bandwidth b0 that makes the
// optimal cyclic throughput equal to b0 (the paper's "difficult
// instances" rule in Appendix XII: the source is not a strong limiting
// bottleneck, yet cannot feed everybody by itself). It solves
//
//	b0 = min( (b0+O)/m, (b0+O+G)/(n+m) )
//
// i.e. b0 = min( O/(m-1) [m ≥ 2], (O+G)/(n+m-1) [n+m ≥ 2] ).
// It returns an error when neither constraint binds (n+m < 2) or when the
// resulting bandwidth would not be positive (no open capacity at all).
func TightSourceBandwidth(sumOpen, sumGuarded float64, n, m int) (float64, error) {
	b0 := math.Inf(1)
	if m >= 2 {
		b0 = math.Min(b0, sumOpen/float64(m-1))
	}
	if n+m >= 2 {
		b0 = math.Min(b0, (sumOpen+sumGuarded)/float64(n+m-1))
	}
	if math.IsInf(b0, 1) {
		return 0, errors.New("generator: tight source bandwidth undefined for fewer than 2 receivers")
	}
	if b0 <= 0 {
		return 0, errors.New("generator: tight source bandwidth not positive (no usable capacity)")
	}
	return b0, nil
}

// Random draws a random instance in the style of the paper's average-case
// study: `total` receiver nodes, each independently open with probability
// pOpen, bandwidths drawn from dist, and the source bandwidth set by
// TightSourceBandwidth so that T* = b0. Each node draws its bandwidth
// first, then its coin; the classes are preallocated at full size, so
// the 10k–100k-node draws of LargeScale and FromMeasurements do no
// append-doubling.
//
// Degenerate draws with zero open nodes cannot form tight instances when
// m ≥ 2 (guarded nodes can only be fed by open capacity), so — as a
// documented deviation kept out of the paper's parameter range p ≥ 0.1 —
// one node is re-classified as open when the draw produces none.
func Random(dist distribution.Distribution, total int, pOpen float64, rng *rand.Rand) (*platform.Instance, error) {
	if total < 2 {
		return nil, errors.New("generator: need at least 2 receiver nodes")
	}
	if pOpen < 0 || pOpen > 1 {
		return nil, fmt.Errorf("generator: open probability %v out of [0,1]", pOpen)
	}
	open := make([]float64, 0, total)
	guarded := make([]float64, 0, total)
	for i := 0; i < total; i++ {
		bw := dist.Sample(rng)
		if rng.Float64() < pOpen {
			open = append(open, bw)
		} else {
			guarded = append(guarded, bw)
		}
	}
	return tightInstance(open, guarded)
}

// tightInstance closes a classified draw: it promotes the last guarded
// node when no node is open (Random's documented deviation) and sets a
// tight source.
func tightInstance(open, guarded []float64) (*platform.Instance, error) {
	if len(open) == 0 {
		open = append(open, guarded[len(guarded)-1])
		guarded = guarded[:len(guarded)-1]
	}
	sumO, sumG := 0.0, 0.0
	for _, v := range open {
		sumO += v
	}
	for _, v := range guarded {
		sumG += v
	}
	b0, err := TightSourceBandwidth(sumO, sumG, len(open), len(guarded))
	if err != nil {
		return nil, err
	}
	return platform.NewInstance(b0, open, guarded)
}

// TightHomogeneous builds the tight homogeneous instance of Section VI-A:
// b0 = 1, n open nodes of bandwidth o = (m-1+delta)/n and m guarded nodes
// of bandwidth g = (n-delta)/m, for 0 ≤ delta ≤ n. Every such instance has
// optimal cyclic throughput T* = 1 with no wasted bandwidth.
//
// The m = 0 boundary (open-only) uses o = (n-1)/n, the unique tight
// homogeneous open bandwidth; delta is ignored there. n must be ≥ 1.
func TightHomogeneous(n, m int, delta float64) (*platform.Instance, error) {
	if n < 1 {
		return nil, errors.New("generator: tight homogeneous instances need n ≥ 1 open nodes")
	}
	if m == 0 {
		if n == 1 {
			// Single open node: tight means b0 = (b0+O)/1, i.e. O = 0.
			return platform.NewInstance(1, []float64{0}, nil)
		}
		o := float64(n-1) / float64(n)
		return platform.NewInstance(1, repeat(o, n), nil)
	}
	if delta < 0 || delta > float64(n) {
		return nil, fmt.Errorf("generator: delta %v out of [0,%d]", delta, n)
	}
	o := (float64(m-1) + delta) / float64(n)
	g := (float64(n) - delta) / float64(m)
	return platform.NewInstance(1, repeat(o, n), repeat(g, m))
}

func repeat(v float64, k int) []float64 {
	s := make([]float64, k)
	for i := range s {
		s[i] = v
	}
	return s
}

// WorstCase57 is the Theorem 6.2 witness: b0 = 1, one open node of
// bandwidth 1+2ε, two guarded nodes of bandwidth 1/2−ε each. With
// ε = 1/14 the optimal acyclic throughput is exactly 5/7 of the optimal
// cyclic throughput T* = 1.
func WorstCase57(eps float64) *platform.Instance {
	return platform.MustInstance(1, []float64{1 + 2*eps}, []float64{0.5 - eps, 0.5 - eps})
}

// Sqrt41Family is the Theorem 6.3 family I(α, k) with α = p/q < 1:
// b0 = 1, n = k·q open nodes of bandwidth α and m = k·p guarded nodes of
// bandwidth 1/α. Its optimal cyclic throughput is 1 while the optimal
// acyclic throughput stays below (1+√41)/8 + ε ≈ 0.925 when p/q
// approximates (√41−3)/8 ≈ 0.4254.
func Sqrt41Family(k, p, q int) (*platform.Instance, error) {
	if k < 1 || p < 1 || q < 1 || p >= q {
		return nil, fmt.Errorf("generator: invalid Sqrt41Family parameters k=%d p=%d q=%d", k, p, q)
	}
	alpha := float64(p) / float64(q)
	return platform.NewInstance(1, repeat(alpha, k*q), repeat(1/alpha, k*p))
}

// Sqrt41Default calls Sqrt41Family with p/q = 17/40 = 0.425, the closest
// small-denominator approximation of (√41−3)/8 used in our experiments.
func Sqrt41Default(k int) *platform.Instance {
	ins, err := Sqrt41Family(k, 17, 40)
	if err != nil {
		panic(err)
	}
	return ins
}

// ThreePartition encodes a 3-PARTITION instance (Theorem 3.1 / Figure 8)
// as a broadcast instance: a source of bandwidth 3pT, 3p open
// intermediate nodes with bandwidths a_i, and p open final nodes with
// bandwidth 0. The 3-PARTITION instance has a solution iff the broadcast
// instance admits a scheme of throughput T with outdegrees o_i ≤ ⌈b_i/T⌉.
//
// It validates the 3-PARTITION promise: Σa_i = pT and T/4 < a_i < T/2.
func ThreePartition(a []int, T int) (*platform.Instance, error) {
	if len(a)%3 != 0 || len(a) == 0 {
		return nil, fmt.Errorf("generator: 3-PARTITION needs 3p integers, got %d", len(a))
	}
	p := len(a) / 3
	sum := 0
	for _, ai := range a {
		if 4*ai <= T || 2*ai >= T {
			return nil, fmt.Errorf("generator: 3-PARTITION element %d violates T/4 < a < T/2 for T=%d", ai, T)
		}
		sum += ai
	}
	if sum != p*T {
		return nil, fmt.Errorf("generator: 3-PARTITION sum %d != p*T = %d", sum, p*T)
	}
	open := make([]float64, 0, 4*p)
	for _, ai := range a {
		open = append(open, float64(ai))
	}
	for i := 0; i < p; i++ {
		open = append(open, 0)
	}
	return platform.NewInstance(float64(3*p*T), open, nil)
}

// Figure1 is the running example of the paper (Figure 1): b0 = 6, open
// bandwidths {5, 5}, guarded bandwidths {4, 1, 1}. Its optimal cyclic
// throughput is 4.4 and its optimal acyclic throughput is 4.
func Figure1() *platform.Instance {
	return platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
}

// Figure6 is the unbounded-degree witness for the cyclic guarded case
// (Figure 6): b0 = 1, one open node of bandwidth m−1, and m guarded nodes
// of bandwidth 1/m. The optimal cyclic throughput is 1 but any optimal
// solution forces the source's outdegree to m while ⌈b0/T*⌉ = 1.
func Figure6(m int) (*platform.Instance, error) {
	if m < 2 {
		return nil, errors.New("generator: Figure6 needs m ≥ 2")
	}
	return platform.NewInstance(1, []float64{float64(m - 1)}, repeat(1/float64(m), m))
}

// HomogeneousRandom builds an instance with `total` nodes of identical
// bandwidth bw, each open with probability pOpen, and a tight source.
// Used by ablation benchmarks to separate heterogeneity effects from
// connectivity effects.
func HomogeneousRandom(bw float64, total int, pOpen float64, rng *rand.Rand) (*platform.Instance, error) {
	return Random(distribution.Homogeneous{Value: bw}, total, pOpen, rng)
}
