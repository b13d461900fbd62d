package core

import (
	"fmt"

	"repro/internal/platform"
)

// AcyclicOpen implements Algorithm 1 (Section III-B): the optimal acyclic
// broadcast scheme for instances without guarded nodes. Nodes are
// satisfied one after the other in non-increasing bandwidth order, each
// sender feeding a consecutive run of receivers, so every node's
// outdegree is at most ⌈b_i/T⌉ + 1.
//
// T must satisfy 0 < T ≤ min(b0, S_{n-1}/n) (use
// AcyclicOpenOptimalThroughput for the optimum). The returned scheme is
// acyclic and every node receives at rate exactly T.
func AcyclicOpen(ins *platform.Instance, T float64) (*Scheme, error) {
	if ins.M() != 0 {
		return nil, fmt.Errorf("core: AcyclicOpen requires an open-only instance, got m=%d", ins.M())
	}
	n := ins.N()
	if n == 0 {
		return NewScheme(ins), nil
	}
	if T <= 0 {
		return nil, fmt.Errorf("core: AcyclicOpen needs positive throughput, got %v", T)
	}
	opt := AcyclicOpenOptimalThroughput(ins)
	if T > opt+tol(opt) {
		return nil, fmt.Errorf("core: throughput %v exceeds acyclic optimum %v", T, opt)
	}
	scheme, lastFull, _ := acyclicOpenFill(ins, T, n)
	if lastFull != n {
		return nil, fmt.Errorf("core: internal: only served %d of %d nodes at T=%v", lastFull, n, T)
	}
	return scheme, nil
}

// acyclicOpenFill runs Algorithm 1's greedy fill: senders i = 0..maxSender
// (in order, each pouring its whole bandwidth) feed receivers t = 1..n in
// order, each to rate T. The fill stops when senders are exhausted or all
// receivers are served; at that point at most one receiver is partially
// fed (the paper's "(k)-partial solution" shape).
//
// It returns the scheme, the index of the last fully served receiver
// (0 when none), and the amount still missing at receiver lastFull+1
// (T when it received nothing, 0 when lastFull == n).
func acyclicOpenFill(ins *platform.Instance, T float64, maxSender int) (*Scheme, int, float64) {
	scheme := NewScheme(ins)
	n := ins.N()
	if maxSender > n {
		maxSender = n
	}
	eps := tol(T)
	t := 1    // next receiver to satisfy
	need := T // remaining need of receiver t
	for i := 0; i <= maxSender && t <= n; i++ {
		s := ins.Bandwidth(i)
		// A sender never feeds itself or earlier nodes: receivers are
		// always ahead of senders here because S_{i-1} ≥ i·T holds for
		// every sender the caller allows (checked by the callers).
		for s > eps && t <= n {
			if t <= i {
				panic(fmt.Sprintf("core: Algorithm 1 ordering violated: sender %d would feed receiver %d", i, t))
			}
			c := min(need, s)
			scheme.Add(i, t, c)
			s -= c
			need -= c
			if need <= eps {
				t++
				need = T
			}
		}
	}
	lastFull := t - 1
	missing := 0.0
	if lastFull < n {
		missing = need
	}
	return scheme, lastFull, missing
}

// firstShortIndex returns the smallest i in [1, n] with S_{i-1} < i·T
// (the i0 of Theorem 5.2's proof: the first receiver the acyclic greedy
// cannot fully serve from earlier nodes), or 0 when no such index exists
// and Algorithm 1 alone reaches throughput T.
func firstShortIndex(ins *platform.Instance, T float64) int {
	n := ins.N()
	s := ins.B0
	eps := tol(T * float64(n+1))
	for i := 1; i <= n; i++ {
		if s < float64(i)*T-eps {
			return i
		}
		s += ins.Bandwidth(i)
	}
	return 0
}
