package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

// equivalenceInstances draws the seeded instance set of the pooled-path
// property test: 200 random tight instances, plus a same-seed open-only
// and small (exhaustive-sized) variant of each for the solvers with
// restricted domains.
const equivalenceSeed = 2026

func equivalenceInstances(t *testing.T) (mixed, openOnly, small []*platform.Instance) {
	t.Helper()
	rng := rand.New(rand.NewSource(equivalenceSeed))
	dists := distribution.All()
	for i := 0; i < 200; i++ {
		dist := dists[i%len(dists)]
		m, err := generator.Random(dist, 6+rng.Intn(10), 0.1+0.8*rng.Float64(), rng)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		mixed = append(mixed, m)
		o, err := generator.Random(dist, 6+rng.Intn(10), 1.0, rng)
		if err != nil {
			t.Fatalf("open instance %d: %v", i, err)
		}
		openOnly = append(openOnly, o)
		s, err := generator.Random(dist, 4+rng.Intn(5), 0.1+0.8*rng.Float64(), rng)
		if err != nil {
			t.Fatalf("small instance %d: %v", i, err)
		}
		small = append(small, s)
	}
	return mixed, openOnly, small
}

// sameResult fails the test unless a and b are byte-identical on every
// deterministic field (throughput bits, word, scheme edge list, degree
// statistics).
func sameResult(t *testing.T, i int, a, b Result) {
	t.Helper()
	if math.Float64bits(a.Throughput) != math.Float64bits(b.Throughput) {
		t.Fatalf("instance %d: pooled throughput %v (bits %x) != fresh %v (bits %x)",
			i, a.Throughput, math.Float64bits(a.Throughput), b.Throughput, math.Float64bits(b.Throughput))
	}
	if a.Word.String() != b.Word.String() {
		t.Fatalf("instance %d: pooled word %s != fresh %s", i, a.Word, b.Word)
	}
	if (a.Scheme == nil) != (b.Scheme == nil) {
		t.Fatalf("instance %d: pooled scheme nil=%v, fresh nil=%v", i, a.Scheme == nil, b.Scheme == nil)
	}
	if a.MaxOutDegree != b.MaxOutDegree || a.MaxDegreeSlack != b.MaxDegreeSlack || a.Edges != b.Edges {
		t.Fatalf("instance %d: degree stats diverge: pooled (%d,%d,%d) fresh (%d,%d,%d)",
			i, a.MaxOutDegree, a.MaxDegreeSlack, a.Edges, b.MaxOutDegree, b.MaxDegreeSlack, b.Edges)
	}
	if a.Scheme == nil {
		return
	}
	ae, be := a.Scheme.Edges(), b.Scheme.Edges()
	if len(ae) != len(be) {
		t.Fatalf("instance %d: pooled %d edges, fresh %d", i, len(ae), len(be))
	}
	for k := range ae {
		if ae[k].From != be[k].From || ae[k].To != be[k].To ||
			math.Float64bits(ae[k].Weight) != math.Float64bits(be[k].Weight) {
			t.Fatalf("instance %d edge %d: pooled %+v != fresh %+v", i, k, ae[k], be[k])
		}
	}
}

// TestPooledSolvesMatchFreshWorkspace is the workspace-reuse property
// test: for every registered solver, solving 200 seeded random
// instances through the engine's pooled workspaces produces results
// byte-identical to solving on a fresh workspace per call. Solver
// subtests run in parallel, so under -race this also exercises
// concurrent pool handout.
func TestPooledSolvesMatchFreshWorkspace(t *testing.T) {
	mixed, openOnly, small := equivalenceInstances(t)
	ctx := context.Background()
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		instances := mixed
		switch name {
		case "acyclic-open", "cyclic-open", "oneport":
			instances = openOnly
		case "exhaustive":
			instances = small
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i, ins := range instances {
				pooled, errP := s.Solve(ctx, ins)
				fresh, errF := SolveIsolated(ctx, s, ins)
				if (errP == nil) != (errF == nil) {
					t.Fatalf("instance %d: pooled err %v, fresh err %v", i, errP, errF)
				}
				if errP != nil {
					if errP.Error() != errF.Error() {
						t.Fatalf("instance %d: pooled error %q != fresh %q", i, errP, errF)
					}
					continue
				}
				sameResult(t, i, pooled, fresh)
				// A warm pooled workspace must not grow scratch anymore
				// once the sweep shape stabilizes; spot-check by solving
				// the same instance again.
				again, err := s.Solve(ctx, ins)
				if err != nil {
					t.Fatalf("instance %d resolve: %v", i, err)
				}
				sameResult(t, i, again, fresh)
			}
		})
	}
}

// TestPooledAcrossSizesMatchesFresh: one workspace carries its scratch
// from a 100k-receiver solve to a 12-receiver one and then to 10k, the
// way a pooled workspace moves between large and small requests; each
// result must equal SolveIsolated's bit for bit.
func TestPooledAcrossSizesMatchesFresh(t *testing.T) {
	s, err := Get("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ws := core.NewWorkspace()
	for i, nodes := range []int{100_000, 12, 10_000} {
		ins, err := generator.LargeScale(generator.LargeScaleConfig{Nodes: nodes, POpen: 0.7, Seed: int64(26 + i)})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := s.run(ctx, ins, nil, false, ws)
		if err != nil {
			t.Fatalf("%d receivers, pooled: %v", nodes, err)
		}
		fresh, err := SolveIsolated(ctx, s, ins)
		if err != nil {
			t.Fatalf("%d receivers, fresh: %v", nodes, err)
		}
		sameResult(t, i, pooled, fresh)
	}
}

// TestResultEvalsCounters checks the Result.Evals plumbing: a
// search-based solve reports its probes and its scheme builds (the
// depth builder's too, on the workspace the engine hands it), and a
// warm workspace stops growing scratch.
func TestResultEvalsCounters(t *testing.T) {
	ins := generator.Figure1()
	for _, name := range []string{"acyclic", "depth"} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ws := core.NewWorkspace()
		var last Result
		for i := 0; i < 3; i++ {
			last, err = s.run(context.Background(), ins, nil, false, ws)
			if err != nil {
				t.Fatal(err)
			}
			if last.Evals.GreedyTests == 0 {
				t.Fatalf("%s run %d: no greedy probes recorded: %+v", name, i, last.Evals)
			}
			if last.Evals.Builds == 0 {
				t.Fatalf("%s run %d: no builds recorded: %+v", name, i, last.Evals)
			}
		}
		if last.Evals.Grows != 0 {
			t.Fatalf("%s: warm workspace still grew scratch: %+v", name, last.Evals)
		}
	}
}

// TestExhaustiveCountsWordEvals: the exhaustive solver evaluates every
// word on the workspace the engine hands it, so Result.Evals counts all
// of them: Figure 1 (n = 2, m = 3) has C(5,2) = 10 interleavings.
func TestExhaustiveCountsWordEvals(t *testing.T) {
	s, err := Get("exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), generator.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals.WordEvals != 10 {
		t.Fatalf("exhaustive on Figure 1 reports %d word evaluations, want 10: %+v", res.Evals.WordEvals, res.Evals)
	}
}
