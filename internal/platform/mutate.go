package platform

import (
	"fmt"
	"slices"
	"sort"
)

// Mutation API. The churn simulator (internal/sim) replays node
// arrivals, departures and bandwidth rescales against a live Instance;
// these methods perform those mutations while preserving the two
// invariants every algorithm in internal/core relies on:
//
//   - each class's bandwidths stay sorted non-increasing, and
//   - the prefix-sum caches stay bit-identical to what NewInstance
//     would build for the mutated bandwidths (entries at ranks below
//     the mutation point are untouched; entries from the mutation rank
//     on are re-accumulated left to right, which is exactly the order
//     prefixSums uses).
//
// Each operation takes the node's Kind: Open selects the open class
// and any other Kind the guarded one.

// Clone returns a deep copy sharing no backing storage with ins.
func (ins *Instance) Clone() *Instance {
	return &Instance{
		B0:         ins.B0,
		OpenBW:     append([]float64(nil), ins.OpenBW...),
		GuardedBW:  append([]float64(nil), ins.GuardedBW...),
		srcPre:     append([]float64(nil), ins.srcPre...),
		openSum:    append([]float64(nil), ins.openSum...),
		guardedPre: append([]float64(nil), ins.guardedPre...),
	}
}

// class returns the bandwidth slice of kind k's class.
func (ins *Instance) class(k Kind) *[]float64 {
	if k == Open {
		return &ins.OpenBW
	}
	return &ins.GuardedBW
}

// Add inserts a node of kind k and bandwidth bw and returns its rank
// within its class (0 = largest bandwidth).
func (ins *Instance) Add(k Kind, bw float64) (int, error) {
	if err := checkBandwidth(k.String(), bw); err != nil {
		return 0, err
	}
	if err := checkSource(ins.B0, ins.N()+ins.M()+1); err != nil {
		return 0, err
	}
	bs := ins.class(k)
	rank := insertRank(*bs, bw)
	*bs = slices.Insert(*bs, rank, bw)
	ins.refresh(k, rank)
	return rank, nil
}

// Remove removes the node of kind k at the given rank and returns its
// bandwidth.
func (ins *Instance) Remove(k Kind, rank int) (float64, error) {
	bs := ins.class(k)
	if rank < 0 || rank >= len(*bs) {
		return 0, fmt.Errorf("platform: Remove(%v, %d) out of range [0,%d)", k, rank, len(*bs))
	}
	bw := (*bs)[rank]
	*bs = slices.Delete(*bs, rank, rank+1)
	ins.refresh(k, rank)
	return bw, nil
}

// Rescale multiplies the bandwidth of the node of kind k at the given
// rank by factor and returns the node's new rank (the class is kept
// sorted, so a rescaled node may move).
func (ins *Instance) Rescale(k Kind, rank int, factor float64) (int, error) {
	bs := ins.class(k)
	if rank < 0 || rank >= len(*bs) {
		return 0, fmt.Errorf("platform: Rescale(%v, %d) out of range [0,%d)", k, rank, len(*bs))
	}
	bw := (*bs)[rank] * factor
	if err := checkBandwidth(k.String(), bw); err != nil {
		return 0, err
	}
	*bs = slices.Delete(*bs, rank, rank+1)
	newRank := insertRank(*bs, bw)
	*bs = slices.Insert(*bs, newRank, bw)
	ins.refresh(k, min(rank, newRank))
	return newRank, nil
}

// SetSourceBandwidth replaces b0. The source must stay positive while
// receivers exist.
func (ins *Instance) SetSourceBandwidth(b0 float64) error {
	if err := checkSource(b0, ins.N()+ins.M()); err != nil {
		return err
	}
	ins.B0 = b0
	ins.refresh(Open, 0)
	return nil
}

// insertRank returns the position where bw belongs in the
// non-increasing slice bs (after any equal values, matching the stable
// order a re-sort would keep).
func insertRank(bs []float64, bw float64) int {
	return sort.Search(len(bs), func(i int) bool { return bs[i] < bw })
}

// refresh re-establishes kind k's prefix caches from the first rank
// whose bandwidth changed.
func (ins *Instance) refresh(k Kind, from int) {
	if k != Open {
		ins.guardedPre = reaccumulate(ins.guardedPre, 0, ins.GuardedBW, from)
		return
	}
	ins.srcPre = reaccumulate(ins.srcPre, ins.B0, ins.OpenBW, from)
	ins.openSum = reaccumulate(ins.openSum, 0, ins.OpenBW, from)
}

// reaccumulate makes pre equal prefixSums(seed, bs), reusing the backing
// array and recomputing only entries from rank `from` on (earlier
// entries are unaffected by the mutation and left bit-identical).
func reaccumulate(pre []float64, seed float64, bs []float64, from int) []float64 {
	if want := len(bs) + 1; cap(pre) < want {
		pre = slices.Grow(pre, want-len(pre))
	}
	pre = pre[:len(bs)+1]
	pre[0] = seed
	for i := from; i < len(bs); i++ {
		pre[i+1] = pre[i] + bs[i]
	}
	return pre
}
