package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/platform"
	"repro/internal/wire"
)

// Request shape shared by every /v1/solve op: the CI golden request's
// solver and tolerance.
const (
	solveSolver = "acyclic"
	solveTol    = 1e-9
	sweepSolver = "acyclic-search"
)

// warmupSeed seeds the warm-up slices of cold and sweep: a stream of
// its own, separate from every --seed list, and the same on every run,
// so set-up time does not move with the seed.
const warmupSeed = 0x5eed_a11

// solveOp is one /v1/solve request with what the checks expect of it.
type solveOp struct {
	req  engine.Request
	body []byte            // canonical request document: what the SDK sends
	key  [sha256.Size]byte // SHA-256 of body: the daemon's cache address
	exp  *Expect
}

func newSolveOp(ins *platform.Instance) (*solveOp, error) {
	req := engine.NewRequest(ins, engine.WithSolver(solveSolver), engine.WithTolerance(solveTol))
	body, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	return &solveOp{req: req, body: body, key: sha256.Sum256(body)}, nil
}

// laws are the bandwidth distributions of the daemon workloads.
var laws = []distribution.Distribution{distribution.Unif100(), distribution.PlanetLab()}

// randomInstance draws generator.Random with n receivers under a random
// law and an open share in [0.2, 0.9].
func randomInstance(rng *rand.Rand, n int) (*platform.Instance, error) {
	law := laws[rng.Intn(len(laws))]
	return generator.Random(law, n, 0.2+0.7*rng.Float64(), rng)
}

// coldOps draws n distinct /v1/solve requests of about 50–800 receivers
// (log-uniform).
func coldOps(rng *rand.Rand, n int) ([]*solveOp, error) {
	ops := make([]*solveOp, n)
	lo, hi := math.Log(50), math.Log(800)
	for i := range ops {
		size := int(math.Round(math.Exp(lo + rng.Float64()*(hi-lo))))
		ins, err := randomInstance(rng, size)
		if err != nil {
			return nil, err
		}
		if ops[i], err = newSolveOp(ins); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// Repeat traffic.
const (
	repeatBases     = 2048 // twice the 1024-entry memory caches
	repeatBaseShare = 0.80
	repeatMutShare  = 0.15 // the rest are fresh instances
	repeatZipfS     = 1.1
)

// repeatBaseOps draws the bases the store is primed with: 80–120
// receivers each.
func repeatBaseOps(rng *rand.Rand) ([]*solveOp, error) {
	bases := make([]*solveOp, repeatBases)
	for i := range bases {
		ins, err := randomInstance(rng, 80+rng.Intn(41))
		if err != nil {
			return nil, err
		}
		if bases[i], err = newSolveOp(ins); err != nil {
			return nil, err
		}
	}
	return bases, nil
}

// repeatOps draws n ops over the bases: Zipf-skewed repeats of base
// bodies, near-miss mutants of a base with 1–3 bandwidth edits (inside
// the store's edit budget of 4), and fresh instances.
func repeatOps(rng *rand.Rand, bases []*solveOp, n int) ([]*solveOp, error) {
	rank := rng.Perm(len(bases)) // Zipf rank → base, so popularity is not priming order
	zipf := rand.NewZipf(rng, repeatZipfS, 1, uint64(len(bases)-1))
	ops := make([]*solveOp, n)
	for i := range ops {
		u := rng.Float64()
		var err error
		switch {
		case u < repeatBaseShare:
			ops[i] = bases[rank[zipf.Uint64()]]
		case u < repeatBaseShare+repeatMutShare:
			base := bases[rank[zipf.Uint64()]]
			ops[i], err = newSolveOp(mutate(rng, base.req.Instance, 1+rng.Intn(3)))
		default:
			var ins *platform.Instance
			if ins, err = randomInstance(rng, 80+rng.Intn(41)); err == nil {
				ops[i], err = newSolveOp(ins)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// mutate rescales the bandwidth of k distinct receivers by a factor in
// [0.8, 1.2): a node-multiset edit distance of k.
func mutate(rng *rand.Rand, ins *platform.Instance, k int) *platform.Instance {
	open := append([]float64(nil), ins.OpenBW...)
	guarded := append([]float64(nil), ins.GuardedBW...)
	for _, j := range rng.Perm(len(open) + len(guarded))[:k] {
		f := 0.8 + 0.4*rng.Float64()
		if j < len(open) {
			open[j] *= f
		} else {
			guarded[j-len(open)] *= f
		}
	}
	return platform.MustInstance(ins.B0, open, guarded)
}

// batchDoc is the /v1/batch and /v1/jobs request document.
type batchDoc struct {
	V        int            `json:"v"`
	Requests []wire.Request `json:"requests"`
}

// batchOp is one sweep op: a job (submitted, then drained through its
// NDJSON stream) or a synchronous batch.
type batchOp struct {
	job  bool
	reqs []engine.Request
	body []byte // the batch document the SDK sends
	exps []*Expect
}

// sweepOps draws n ops alternating job and batch, each with 24–48
// distinct instances of 10–50 receivers.
func sweepOps(rng *rand.Rand, n int) ([]*batchOp, error) {
	ops := make([]*batchOp, n)
	for i := range ops {
		op := &batchOp{job: i%2 == 0, reqs: make([]engine.Request, 24+rng.Intn(25))}
		doc := batchDoc{V: wire.Version, Requests: make([]wire.Request, len(op.reqs))}
		for j := range op.reqs {
			ins, err := randomInstance(rng, 10+rng.Intn(41))
			if err != nil {
				return nil, err
			}
			op.reqs[j] = engine.NewRequest(ins, engine.WithSolver(sweepSolver))
			doc.Requests[j] = wire.FromRequest(op.reqs[j])
		}
		var err error
		if op.body, err = wire.Marshal(doc); err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// Large instances: sizes × draws per size, cycled in a fixed order.
var largeSizes = []int{10_000, 30_000, 100_000}

const largeDraws = 8

// largeInstances draws the in-process instances: generator.LargeScale,
// Power2, open share 0.7, one seed per draw. Instance i has size
// largeSizes[i % len(largeSizes)].
func largeInstances(seed int64) ([]*platform.Instance, error) {
	out := make([]*platform.Instance, 0, len(largeSizes)*largeDraws)
	for d := 0; d < largeDraws; d++ {
		for s, n := range largeSizes {
			ins, err := generator.LargeScale(generator.LargeScaleConfig{
				Nodes: n, POpen: 0.7, Dist: distribution.Power2(),
				Seed: seed*1000 + int64(d*len(largeSizes)+s),
			})
			if err != nil {
				return nil, err
			}
			out = append(out, ins)
		}
	}
	return out, nil
}

// expectAll computes the expectation of every request from the same
// commit's in-process engine.Execute, on all CPUs (this runs before the
// timed phase).
func expectAll(reqs []engine.Request) ([]*Expect, error) {
	exps := make([]*Expect, len(reqs))
	err := engine.ForEach(context.Background(), len(reqs), 0, func(ctx context.Context, i int) error {
		plan, err := engine.Execute(ctx, reqs[i])
		exp, xerr := NewExpect(reqs[i], plan, err)
		if xerr != nil {
			return fmt.Errorf("request %d: %w", i, xerr)
		}
		exps[i] = exp
		return nil
	})
	return exps, err
}

// expectSolves fills in op.exp for every op that has none yet (several
// ops may share one *solveOp).
func expectSolves(ops []*solveOp) error {
	var todo []*solveOp
	seen := make(map[*solveOp]bool)
	for _, op := range ops {
		if op.exp == nil && !seen[op] {
			seen[op] = true
			todo = append(todo, op)
		}
	}
	reqs := make([]engine.Request, len(todo))
	for i, op := range todo {
		reqs[i] = op.req
	}
	exps, err := expectAll(reqs)
	if err != nil {
		return err
	}
	for i, op := range todo {
		op.exp = exps[i]
	}
	return nil
}
