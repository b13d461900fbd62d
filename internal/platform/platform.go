// Package platform models LastMile (bounded multi-port) broadcast
// instances: one source node, n open nodes and m guarded nodes, each with
// an outgoing bandwidth limit. Incoming bandwidth is assumed sufficient,
// matching the paper's model (Section II-D).
//
// Node numbering follows the paper: node 0 is the source (always open),
// nodes 1..n are the open nodes, nodes n+1..n+m are the guarded nodes.
// Within each class, bandwidths are kept sorted in non-increasing order —
// every algorithm in internal/core relies on this ("increasing orders",
// Lemma 4.2), and NewInstance establishes it.
package platform

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
)

// Kind classifies a node's connectivity.
type Kind uint8

const (
	// Open nodes sit in the open Internet and may exchange data with
	// anybody (subject to bandwidth limits).
	Open Kind = iota
	// Guarded nodes sit behind a NAT or firewall: guarded→guarded
	// transfers are forbidden (the firewall constraint).
	Guarded
)

func (k Kind) String() string {
	switch k {
	case Open:
		return "open"
	case Guarded:
		return "guarded"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Instance is a broadcast problem instance. Construct with NewInstance so
// the sortedness invariant holds; the fields are exported for tests and
// serialization but must not be written directly afterwards — dynamic
// platforms evolve through the mutation API (AddOpen, RemoveGuarded,
// RescaleOpen, SetSourceBandwidth, ... in mutate.go), which keeps the
// sorted invariant and the prefix-sum caches intact.
type Instance struct {
	// B0 is the outgoing bandwidth of the source C0.
	B0 float64
	// OpenBW holds the open nodes' bandwidths, sorted non-increasing.
	OpenBW []float64
	// GuardedBW holds the guarded nodes' bandwidths, sorted non-increasing.
	GuardedBW []float64

	// Prefix-sum caches making OpenPrefix, GuardedPrefix, SumOpen and
	// SumGuarded O(1) — they sit under the search and packing inner
	// loops. srcPre[k] = S_k = b0 + OpenBW[0] + ... + OpenBW[k-1] and
	// openSum[k] = OpenBW[0] + ... + OpenBW[k-1] are kept separately so
	// each accessor returns bit-identical values to the summation loops
	// it replaces (float addition is order-sensitive). Built by
	// NewInstance; instances assembled field-by-field (tests) fall back
	// to summation.
	srcPre     []float64
	openSum    []float64
	guardedPre []float64
}

// prefixSums returns [seed, seed+v0, seed+v0+v1, ...] (len(bs)+1
// entries), accumulated left to right.
func prefixSums(seed float64, bs []float64) []float64 {
	pre := make([]float64, len(bs)+1)
	pre[0] = seed
	for i, v := range bs {
		pre[i+1] = pre[i] + v
	}
	return pre
}

// ErrInvalidInstance reports bandwidth data that cannot form an
// instance (negative, NaN or infinite values; a non-positive source
// with receivers present). NewInstance and Validate failures wrap it,
// so callers branch with errors.Is instead of matching messages.
var ErrInvalidInstance = errors.New("platform: invalid instance")

// NewInstance builds an instance, copying and sorting the bandwidth
// slices (non-increasing). It returns an error wrapping
// ErrInvalidInstance if any bandwidth is negative, NaN or infinite, or
// if the source bandwidth is not positive while receivers exist.
func NewInstance(b0 float64, open, guarded []float64) (*Instance, error) {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s bandwidth %v is not finite", ErrInvalidInstance, name, v)
		}
		if v < 0 {
			return fmt.Errorf("%w: %s bandwidth %v is negative", ErrInvalidInstance, name, v)
		}
		return nil
	}
	if err := check("source", b0); err != nil {
		return nil, err
	}
	if b0 <= 0 && len(open)+len(guarded) > 0 {
		return nil, fmt.Errorf("%w: source bandwidth must be positive when receivers exist", ErrInvalidInstance)
	}
	ins := &Instance{
		B0:        b0,
		OpenBW:    append([]float64(nil), open...),
		GuardedBW: append([]float64(nil), guarded...),
	}
	for _, v := range ins.OpenBW {
		if err := check("open", v); err != nil {
			return nil, err
		}
	}
	for _, v := range ins.GuardedBW {
		if err := check("guarded", v); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(ins.OpenBW, descending)
	slices.SortFunc(ins.GuardedBW, descending)
	ins.srcPre = prefixSums(ins.B0, ins.OpenBW)
	ins.openSum = prefixSums(0, ins.OpenBW)
	ins.guardedPre = prefixSums(0, ins.GuardedBW)
	return ins, nil
}

// descending orders bandwidths non-increasing. NewInstance rejects NaN
// before sorting, so cmp.Compare's NaN rule never applies, and ±0 compare
// equal, as under sort.Reverse(sort.Float64Slice(…)): slices.SortFunc
// runs the same pdqsort as sort.Sort and leaves the same order.
func descending(a, b float64) int { return cmp.Compare(b, a) }

// MustInstance is NewInstance that panics on error; for tests and
// literals of known-good data.
func MustInstance(b0 float64, open, guarded []float64) *Instance {
	ins, err := NewInstance(b0, open, guarded)
	if err != nil {
		panic(err)
	}
	return ins
}

// N returns the number of open nodes (excluding the source).
func (ins *Instance) N() int { return len(ins.OpenBW) }

// M returns the number of guarded nodes.
func (ins *Instance) M() int { return len(ins.GuardedBW) }

// Total returns the total number of nodes, source included (1 + n + m).
func (ins *Instance) Total() int { return 1 + ins.N() + ins.M() }

// KindOf returns the kind of node i in paper numbering. The source is Open.
func (ins *Instance) KindOf(i int) Kind {
	switch {
	case i >= 0 && i <= ins.N():
		return Open
	case i > ins.N() && i <= ins.N()+ins.M():
		return Guarded
	default:
		panic(fmt.Sprintf("platform: node %d out of range [0,%d]", i, ins.N()+ins.M()))
	}
}

// Bandwidth returns b_i in paper numbering.
func (ins *Instance) Bandwidth(i int) float64 {
	n := ins.N()
	switch {
	case i == 0:
		return ins.B0
	case i >= 1 && i <= n:
		return ins.OpenBW[i-1]
	case i > n && i <= n+ins.M():
		return ins.GuardedBW[i-n-1]
	default:
		panic(fmt.Sprintf("platform: node %d out of range [0,%d]", i, n+ins.M()))
	}
}

// Bandwidths returns all bandwidths indexed by paper numbering
// (a fresh slice).
func (ins *Instance) Bandwidths() []float64 {
	bs := make([]float64, 0, ins.Total())
	bs = append(bs, ins.B0)
	bs = append(bs, ins.OpenBW...)
	bs = append(bs, ins.GuardedBW...)
	return bs
}

// SumOpen returns O = Σ_{i=1..n} b_i (source excluded); O(1) on
// instances built by NewInstance.
func (ins *Instance) SumOpen() float64 {
	if ins.openSum != nil {
		return ins.openSum[len(ins.openSum)-1]
	}
	var s float64
	for _, v := range ins.OpenBW {
		s += v
	}
	return s
}

// SumGuarded returns G = Σ_{i=n+1..n+m} b_i; O(1) on instances built by
// NewInstance.
func (ins *Instance) SumGuarded() float64 {
	if ins.guardedPre != nil {
		return ins.guardedPre[len(ins.guardedPre)-1]
	}
	var s float64
	for _, v := range ins.GuardedBW {
		s += v
	}
	return s
}

// OpenPrefix returns S_k = b_0 + b_1 + ... + b_k for k in [0, n]
// (paper notation from Section III-B). O(1) on instances built by
// NewInstance (the prefix sums are cached — this accessor sits in the
// dichotomic search's inner loop).
func (ins *Instance) OpenPrefix(k int) float64 {
	if k < 0 || k > ins.N() {
		panic(fmt.Sprintf("platform: OpenPrefix(%d) out of range [0,%d]", k, ins.N()))
	}
	if ins.srcPre != nil {
		return ins.srcPre[k]
	}
	s := ins.B0
	for i := 0; i < k; i++ {
		s += ins.OpenBW[i]
	}
	return s
}

// GuardedPrefix returns b_{n+1} + ... + b_{n+k} for k in [0, m]; O(1)
// on instances built by NewInstance.
func (ins *Instance) GuardedPrefix(k int) float64 {
	if k < 0 || k > ins.M() {
		panic(fmt.Sprintf("platform: GuardedPrefix(%d) out of range [0,%d]", k, ins.M()))
	}
	if ins.guardedPre != nil {
		return ins.guardedPre[k]
	}
	var s float64
	for i := 0; i < k; i++ {
		s += ins.GuardedBW[i]
	}
	return s
}

// RatBandwidths returns the bandwidths as exact rationals in paper
// numbering; used by the exact algorithm twins in internal/core.
func (ins *Instance) RatBandwidths() []*big.Rat {
	bs := ins.Bandwidths()
	rs := make([]*big.Rat, len(bs))
	for i, v := range bs {
		r := new(big.Rat)
		if r.SetFloat64(v) == nil {
			panic(fmt.Sprintf("platform: bandwidth %v not representable", v))
		}
		rs[i] = r
	}
	return rs
}

// Validate re-checks the invariants (useful after deserialization).
func (ins *Instance) Validate() error {
	if math.IsNaN(ins.B0) || math.IsInf(ins.B0, 0) || ins.B0 < 0 {
		return fmt.Errorf("%w: invalid source bandwidth %v", ErrInvalidInstance, ins.B0)
	}
	if ins.B0 <= 0 && ins.Total() > 1 {
		return fmt.Errorf("%w: source bandwidth must be positive when receivers exist", ErrInvalidInstance)
	}
	checkSorted := func(name string, bs []float64) error {
		for i, v := range bs {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%w: invalid %s bandwidth %v at rank %d", ErrInvalidInstance, name, v, i)
			}
			if i > 0 && bs[i-1] < v {
				return fmt.Errorf("%w: %s bandwidths not sorted non-increasing at rank %d (%v < %v)", ErrInvalidInstance, name, i, bs[i-1], v)
			}
		}
		return nil
	}
	if err := checkSorted("open", ins.OpenBW); err != nil {
		return err
	}
	return checkSorted("guarded", ins.GuardedBW)
}

// String formats a compact human-readable summary.
func (ins *Instance) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Instance{b0=%g, n=%d open, m=%d guarded", ins.B0, ins.N(), ins.M())
	if ins.N() > 0 {
		fmt.Fprintf(&sb, ", O=%g", ins.SumOpen())
	}
	if ins.M() > 0 {
		fmt.Fprintf(&sb, ", G=%g", ins.SumGuarded())
	}
	sb.WriteString("}")
	return sb.String()
}

// instanceJSON is the serialization shape (stable field names).
type instanceJSON struct {
	B0      float64   `json:"b0"`
	Open    []float64 `json:"open"`
	Guarded []float64 `json:"guarded"`
}

// MarshalJSON implements json.Marshaler.
func (ins *Instance) MarshalJSON() ([]byte, error) {
	return json.Marshal(instanceJSON{B0: ins.B0, Open: ins.OpenBW, Guarded: ins.GuardedBW})
}

// UnmarshalJSON implements json.Unmarshaler, re-establishing invariants.
func (ins *Instance) UnmarshalJSON(data []byte) error {
	var raw instanceJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	tmp, err := NewInstance(raw.B0, raw.Open, raw.Guarded)
	if err != nil {
		return err
	}
	*ins = *tmp
	return nil
}
