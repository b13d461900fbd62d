package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// Tolerances of the output checks.
const (
	// boundTol is the relative slack on the paper's bounds: T ≤ T* (Lemma
	// 5.1) and T ≥ (5/7)·T* for acyclic-optimal solvers (Theorem 6.2).
	boundTol = 1e-9
	// warmTol is how far a warm-repaired throughput may sit from a
	// from-scratch solve, relative to max(1, T).
	warmTol = 1e-6
)

// Expect is what the benchmark knows about one request before the
// service answers it: the requested solver, the instance's T*, and the
// digests of the same commit's in-process answer.
type Expect struct {
	// Solver is the requested solver name.
	Solver string
	// Acyclic marks solvers that are acyclic-optimal, so Theorem 6.2's
	// lower bound applies.
	Acyclic bool
	// TStar is core.OptimalCyclicThroughput of the posted instance.
	TStar float64
	// RefOK reports that the in-process engine.Execute succeeded; the
	// fields below are only meaningful then.
	RefOK bool
	// RefSum is the SHA-256 of engine.Execute + wire.EncodePlan.
	RefSum [sha256.Size]byte
	// RefCoreSum is RefSum with the provenance fields zeroed (see
	// coreDigest), for answers a stored neighbour seeded.
	RefCoreSum [sha256.Size]byte
	// RefT is the from-scratch throughput.
	RefT float64
	// First, when set, is the digest of the first answer ever served
	// for this body (the priming answer for a primed body). A hit must
	// repeat it byte for byte.
	First *[sha256.Size]byte
}

// Answer is one served plan: the document bytes and, for /v1/solve,
// the X-Bmpcast-Cache label ("hit", "warm", "miss"). Batch and stream
// items carry no label and are checked like misses.
type Answer struct {
	Label string
	Doc   []byte
}

// CheckError names the check an answer failed.
type CheckError struct {
	Check  string
	Detail string
}

func (e *CheckError) Error() string { return e.Check + ": " + e.Detail }

func failed(check, format string, args ...any) error {
	return &CheckError{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// NewExpect builds the expectation for a request from the same
// commit's in-process answer (plan, err := engine.Execute(req)).
func NewExpect(req engine.Request, plan *engine.Plan, err error) (*Expect, error) {
	exp := &Expect{
		Solver:  req.Solver,
		Acyclic: acyclicOptimal(req.Solver),
		TStar:   core.OptimalCyclicThroughput(req.Instance),
	}
	if err != nil {
		return exp, nil
	}
	doc, err := wire.EncodePlan(plan)
	if err != nil {
		return nil, fmt.Errorf("encoding the reference plan: %w", err)
	}
	exp.RefOK = true
	exp.RefSum = sha256.Sum256(doc)
	exp.RefT = plan.Throughput
	if exp.RefCoreSum, err = coreDigest(wire.FromPlan(plan)); err != nil {
		return nil, err
	}
	return exp, nil
}

// acyclicOptimal reports whether the named solver is exact and
// acyclic, so Theorem 6.2's lower bound binds its answers.
func acyclicOptimal(solver string) bool {
	s, err := engine.Get(solver)
	if err != nil {
		return false
	}
	caps := s.Capabilities()
	return caps.Has(engine.CapExact) && !caps.Has(engine.CapCyclic)
}

// coreDigest hashes a plan document with its provenance fields zeroed:
// warm_started, neighbor_distance, repaired and evals describe how an
// answer was reached, not what it is.
func coreDigest(p wire.Plan) ([sha256.Size]byte, error) {
	p.WarmStarted, p.NeighborDistance, p.Repaired = false, 0, false
	p.Evals = wire.EvalCounts{}
	doc, err := wire.Marshal(p)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(doc), nil
}

// Check verifies one answer against its request's expectation:
//
//   - the answer decodes as a v1 plan for the requested solver;
//   - tstar equals the posted instance's T*;
//   - T ≤ T*·(1+1e-9), and for acyclic solvers T ≥ (5/7)·T*·(1−1e-9);
//   - a miss (or unlabelled item) is byte-identical to the in-process
//     answer, provenance exempt when a neighbour seeded it;
//   - a hit repeats the first answer for its body byte for byte;
//   - a warm answer's T is within 1e-6·max(1,T) of a from-scratch solve.
func Check(exp *Expect, ans Answer) error {
	plan, err := wire.DecodePlan(ans.Doc)
	if err != nil {
		return failed("decode", "%v", err)
	}
	if plan.Solver != exp.Solver {
		return failed("solver", "answered by %q, requested %q", plan.Solver, exp.Solver)
	}
	if plan.TStar != exp.TStar {
		return failed("tstar", "tstar %v, instance T* is %v", plan.TStar, exp.TStar)
	}
	T := plan.Throughput
	if T > exp.TStar*(1+boundTol) {
		return failed("lemma-5.1", "T = %v exceeds T* = %v", T, exp.TStar)
	}
	if exp.Acyclic && T < 5.0/7.0*exp.TStar*(1-boundTol) {
		return failed("theorem-6.2", "T = %v below (5/7)·T* = %v", T, 5.0/7.0*exp.TStar)
	}
	switch ans.Label {
	case "", "miss":
		if !exp.RefOK {
			return failed("miss-bytes", "served a plan the in-process solve refuses")
		}
		if plan.WarmStarted {
			sum, err := coreDigest(plan)
			if err != nil {
				return failed("miss-bytes", "re-encoding: %v", err)
			}
			if sum != exp.RefCoreSum {
				return failed("miss-bytes", "neighbour-seeded answer differs from the in-process solve beyond provenance")
			}
			return nil
		}
		if sha256.Sum256(ans.Doc) != exp.RefSum {
			return failed("miss-bytes", "answer differs from in-process engine.Execute + wire.EncodePlan")
		}
	case "hit":
		if exp.First == nil {
			return failed("hit-bytes", "hit on a body never answered before")
		}
		if sha256.Sum256(ans.Doc) != *exp.First {
			return failed("hit-bytes", "hit differs from the first answer for this body")
		}
	case "warm":
		if !exp.RefOK {
			return failed("warm-throughput", "warm answer for a request the in-process solve refuses")
		}
		if math.Abs(T-exp.RefT) > warmTol*math.Max(1, exp.RefT) {
			return failed("warm-throughput", "T = %v, from-scratch T = %v", T, exp.RefT)
		}
	default:
		return failed("label", "unknown X-Bmpcast-Cache label %q", ans.Label)
	}
	return nil
}

// CheckSequence verifies that a job stream delivered want items as
// 0..want−1 in order, or that a batch answered want plans.
func CheckSequence(what string, want int, got []int) error {
	if len(got) != want {
		return failed(what+"-count", "%d items for %d requests", len(got), want)
	}
	for i, idx := range got {
		if idx != i {
			return failed(what+"-order", "item %d arrived at position %d", idx, i)
		}
	}
	return nil
}

// ResultDigest fingerprints a solver result bit for bit: solver name,
// throughput bits, word, every scheme edge with its rate bits, the
// degree statistics and the evaluation counters. Wall time and scratch
// growths are left out; they depend on the clock and on how warm the
// workspace was, not on the answer. The fields stream into the hash, so
// checking a 100k-node result adds no multi-megabyte buffer to the peak
// RSS that large measures.
func ResultDigest(r engine.Result) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(r.Solver))
	put(math.Float64bits(r.Throughput))
	put(math.Float64bits(r.Verified))
	word := make([]byte, len(r.Word))
	for i, l := range r.Word {
		word[i] = byte(l)
	}
	h.Write(word)
	h.Write([]byte{'|'})
	if r.Scheme != nil {
		for _, e := range r.Scheme.Edges() {
			put(uint64(e.From))
			put(uint64(e.To))
			put(math.Float64bits(e.Weight))
		}
	}
	for _, v := range []int64{
		int64(r.MaxOutDegree), int64(r.MaxDegreeSlack), int64(r.Edges),
		r.Evals.FlowEvals, r.Evals.GreedyTests, r.Evals.WordEvals, r.Evals.Builds,
	} {
		put(uint64(v))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// CheckLarge verifies an in-process large-instance result against the
// digest of engine.SolveIsolated on a fresh workspace and against the
// paper's bounds.
func CheckLarge(want [sha256.Size]byte, tstar float64, plan *engine.Plan) error {
	if plan.TStar != tstar {
		return failed("tstar", "tstar %v, instance T* is %v", plan.TStar, tstar)
	}
	if plan.Throughput > tstar*(1+boundTol) {
		return failed("lemma-5.1", "T = %v exceeds T* = %v", plan.Throughput, tstar)
	}
	if plan.Throughput < 5.0/7.0*tstar*(1-boundTol) {
		return failed("theorem-6.2", "T = %v below (5/7)·T* = %v", plan.Throughput, 5.0/7.0*tstar)
	}
	if ResultDigest(plan.Result) != want {
		return failed("isolated-bits", "result differs from engine.SolveIsolated on a fresh workspace")
	}
	return nil
}
