package trees

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

func solveFigure1(t *testing.T) (*core.Scheme, float64) {
	t.Helper()
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	T, s, _, err := core.SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, T
}

func TestDecomposeFigure1(t *testing.T) {
	s, T := solveFigure1(t)
	ts, err := Decompose(context.Background(), s, T)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatal("no trees")
	}
	if err := Verify(s, T, ts); err != nil {
		t.Fatal(err)
	}
	// A scheme of E edges yields at most E trees.
	if len(ts) > s.NumEdges() {
		t.Fatalf("%d trees from %d edges", len(ts), s.NumEdges())
	}
}

func TestDecomposeRandomAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		nn := rng.Intn(8)
		mm := rng.Intn(8)
		if nn+mm == 0 {
			nn = 2
		}
		open := make([]float64, nn)
		for i := range open {
			open[i] = 1 + 20*rng.Float64()
		}
		guarded := make([]float64, mm)
		for i := range guarded {
			guarded[i] = 1 + 20*rng.Float64()
		}
		ins := platform.MustInstance(5+20*rng.Float64(), open, guarded)
		T, s, _, err := core.SolveAcyclic(ins, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if T <= 0 {
			continue
		}
		ts, err := Decompose(context.Background(), s, T)
		if err != nil {
			t.Fatalf("trial %d (%v, T=%v): %v", trial, ins, T, err)
		}
		if err := Verify(s, T, ts); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDecomposePartialTarget(t *testing.T) {
	// Decomposing at half the throughput must also work (slack edges).
	s, T := solveFigure1(t)
	ts, err := Decompose(context.Background(), s, T/2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s, T/2, ts); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeRejectsCyclic(t *testing.T) {
	ins := platform.MustInstance(5, []float64{5, 3, 2}, nil)
	_, s, err := core.SolveCyclicOpen(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.IsAcyclic() {
		t.Skip("instance unexpectedly produced an acyclic scheme")
	}
	if _, err := Decompose(context.Background(), s, 5); err == nil {
		t.Fatal("expected rejection of cyclic scheme")
	}
}

func TestDecomposeRejectsShortInRate(t *testing.T) {
	ins := platform.MustInstance(4, []float64{2, 1}, nil)
	s := core.NewScheme(ins)
	s.Add(0, 1, 1)
	s.Add(1, 2, 0.5)
	if _, err := Decompose(context.Background(), s, 1); err == nil {
		t.Fatal("expected error: node 2 receives only 0.5 < 1")
	}
	if _, err := Decompose(context.Background(), s, 0); err == nil {
		t.Fatal("expected error for T = 0")
	}
}

func TestTreeDepth(t *testing.T) {
	// Chain 0→1→2→3: depth 3. Star: depth 1.
	chain := Tree{Weight: 1, Parent: []int{-1, 0, 1, 2}}
	if d := chain.Depth(); d != 3 {
		t.Fatalf("chain depth %d, want 3", d)
	}
	star := Tree{Weight: 1, Parent: []int{-1, 0, 0, 0}}
	if d := star.Depth(); d != 1 {
		t.Fatalf("star depth %d, want 1", d)
	}
}

func TestVerifyCatchesBadDecompositions(t *testing.T) {
	s, T := solveFigure1(t)
	ts, err := Decompose(context.Background(), s, T)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong total weight.
	bad := append([]Tree(nil), ts...)
	bad[0].Weight *= 2
	if err := Verify(s, T, bad); err == nil {
		t.Error("Verify accepted inflated weights")
	}
	// Orphaned node (cycle between 1 and 2).
	orphan := Tree{Weight: T, Parent: make([]int, s.Instance().Total())}
	orphan.Parent[0] = -1
	for v := 1; v < len(orphan.Parent); v++ {
		orphan.Parent[v] = v%2 + 1 // 1→2→1 cycle, never reaching 0
	}
	if err := Verify(s, T, []Tree{orphan}); err == nil {
		t.Error("Verify accepted a non-arborescence")
	}
}

// decomposeReference is Decompose as it was before in-edge lists: each
// tree probes a residual map for all total−1 possible senders of every
// node. Kept verbatim as the reference the current code must equal.
func decomposeReference(s *core.Scheme, T float64) ([]Tree, error) {
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

// sameAsReference decomposes s at T with both functions and requires
// the same trees, weights and parents bit for bit, or the same error.
func sameAsReference(t *testing.T, what string, s *core.Scheme, T float64) {
	t.Helper()
	want, wantErr := decomposeReference(s, T)
	got, err := Decompose(context.Background(), s, T)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", what, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, want %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k].Weight) != math.Float64bits(want[k].Weight) {
			t.Fatalf("%s: tree %d weight %v, want %v", what, k, got[k].Weight, want[k].Weight)
		}
		for v := range want[k].Parent {
			if got[k].Parent[v] != want[k].Parent[v] {
				t.Fatalf("%s: tree %d node %d parent %d, want %d", what, k, v, got[k].Parent[v], want[k].Parent[v])
			}
		}
	}
}

func TestDecomposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{4, 9, 30, 120, 400}
	for _, dist := range distribution.All() {
		for _, n := range sizes {
			ins, err := generator.Random(dist, n, 0.1+0.8*rng.Float64(), rng)
			if err != nil {
				t.Fatal(err)
			}
			T, s, _, err := core.SolveAcyclic(ins, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range []float64{T, T / 2} {
				sameAsReference(t, fmt.Sprintf("%s n=%d T=%v", dist.Name(), n, target), s, target)
			}
		}
	}
	// The largest sizes on the heavy-tailed law the scaling studies use.
	large := []int{1000, 2000}
	if testing.Short() {
		large = large[:1]
	}
	for _, n := range large {
		ins, err := generator.LargeScale(generator.LargeScaleConfig{Nodes: n, POpen: 0.7, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		T, s, _, err := core.SolveAcyclic(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, fmt.Sprintf("LargeScale n=%d", n), s, T)
	}
	// The errors: short in-rate, a target no scheme reaches, T = 0, cyclic.
	short := core.NewScheme(platform.MustInstance(4, []float64{2, 1}, nil))
	short.Add(0, 1, 1)
	short.Add(1, 2, 0.5)
	sameAsReference(t, "short in-rate", short, 1)
	s, T := solveFigure1(t)
	sameAsReference(t, "past T", s, 2*T)
	sameAsReference(t, "T = 0", s, 0)
	_, cyclic, err := core.SolveCyclicOpen(platform.MustInstance(5, []float64{5, 3, 2}, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameAsReference(t, "cyclic", cyclic, 5)
}

// TestDecomposeLinearPerTree bounds a 4,000-receiver decomposition
// (about 50 trees) at 2 s; the quadratic reference took 25.8 s on a
// 2-vCPU guest, and the current code milliseconds.
func TestDecomposeLinearPerTree(t *testing.T) {
	ins, err := generator.LargeScale(generator.LargeScaleConfig{Nodes: 4000, POpen: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	T, s, _, err := core.SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ts, err := Decompose(context.Background(), s, T)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("4,000 receivers decomposed in %v, want under 2s", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s, T, ts); err != nil {
		t.Fatal(err)
	}
}

// cancelAfter is a context whose Err turns to Canceled after n calls.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestDecomposeStopsWhenCanceled: a done context stops a decomposition
// before its first tree and between trees.
func TestDecomposeStopsWhenCanceled(t *testing.T) {
	ins, err := generator.LargeScale(generator.LargeScaleConfig{Nodes: 200, POpen: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	T, s, _, err := core.SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ts, err := Decompose(ctx, s, T); !errors.Is(err, context.Canceled) || ts != nil {
		t.Fatalf("canceled context: %d trees, %v", len(ts), err)
	}
	if ts, err := Decompose(&cancelAfter{Context: context.Background(), n: 2}, s, T); !errors.Is(err, context.Canceled) || ts != nil {
		t.Fatalf("canceled after two trees: %d trees, %v", len(ts), err)
	}
}
