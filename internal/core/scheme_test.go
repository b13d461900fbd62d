package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestSchemeAddAndRate(t *testing.T) {
	ins := platform.MustInstance(10, []float64{5, 5}, nil)
	s := NewScheme(ins)
	s.Add(0, 1, 2)
	s.Add(0, 1, 1.5) // accumulates
	s.Add(0, 2, 0)   // dropped (float dust floor)
	if r := s.Rate(0, 1); r != 3.5 {
		t.Fatalf("Rate = %v, want 3.5", r)
	}
	if s.OutDegree(0) != 1 {
		t.Fatalf("zero-rate edge counted in degree: %d", s.OutDegree(0))
	}
	if s.OutRate(0) != 3.5 || s.InRate(1) != 3.5 {
		t.Fatal("rate sums wrong")
	}
}

func TestSchemeAddPanics(t *testing.T) {
	ins := platform.MustInstance(10, []float64{5}, nil)
	s := NewScheme(ins)
	for _, f := range []func(){
		func() { s.Add(1, 1, 1) },  // self loop
		func() { s.Add(0, 1, -2) }, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSchemeShift(t *testing.T) {
	ins := platform.MustInstance(10, []float64{5, 5}, nil)
	s := NewScheme(ins)
	s.Add(0, 1, 3)
	s.shift(0, 1, -1)
	if r := s.Rate(0, 1); math.Abs(r-2) > 1e-12 {
		t.Fatalf("after shift: %v", r)
	}
	s.shift(0, 1, -2) // drives to exactly zero: edge removed
	if s.OutDegree(0) != 0 {
		t.Fatal("zeroed edge still counted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic driving edge negative")
		}
	}()
	s.shift(0, 1, -1)
}

func TestSchemeValidateBandwidth(t *testing.T) {
	ins := platform.MustInstance(2, []float64{1}, nil)
	s := NewScheme(ins)
	s.Add(0, 1, 2.5) // source exceeds b0 = 2
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds bandwidth") {
		t.Fatalf("Validate = %v, want bandwidth error", err)
	}
}

func TestSchemeValidateFirewall(t *testing.T) {
	ins := platform.MustInstance(4, []float64{2}, []float64{1, 1})
	s := NewScheme(ins)
	s.Add(2, 3, 0.5) // guarded → guarded
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "firewall") {
		t.Fatalf("Validate = %v, want firewall error", err)
	}
	// Guarded → open is fine.
	ok := NewScheme(ins)
	ok.Add(2, 1, 0.5)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeThroughputExactMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		ins := randomMixedInstance(rng, 2+rng.Intn(5), rng.Intn(5))
		_, s, _, err := SolveAcyclic(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := s.Throughput(nil)
		e, _ := s.ThroughputExact().Float64()
		if math.Abs(f-e) > 1e-6*(1+f) {
			t.Fatalf("trial %d: float %v vs exact %v", trial, f, e)
		}
	}
}

func TestDegreeLowerBoundValues(t *testing.T) {
	cases := []struct {
		b, T float64
		want int
	}{
		{6, 4, 2},
		{4, 4, 1},
		{0, 4, 0},
		{4.0000000001, 4, 1}, // float dust rounds down
		{8, 4, 2},
		{8.1, 4, 3},
		{1, 100, 1},
	}
	for _, c := range cases {
		if got := DegreeLowerBound(c.b, c.T); got != c.want {
			t.Errorf("DegreeLowerBound(%v, %v) = %d, want %d", c.b, c.T, got, c.want)
		}
	}
}

func TestDegreeLowerBoundPanicsOnZeroT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DegreeLowerBound(1, 0)
}

func TestDegreeSlack(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	word, _ := GreedyTest(ins, 4)
	s, err := BuildScheme(ins, word, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	per, max := s.DegreeSlack(4)
	if len(per) != 6 {
		t.Fatalf("per-node slice length %d", len(per))
	}
	if max > 3 {
		t.Fatalf("max slack %d > 3", max)
	}
	// Idle nodes report slack 0 regardless of bandwidth.
	idle := NewScheme(ins)
	_, m := idle.DegreeSlack(4)
	if m != 0 {
		t.Fatalf("idle scheme slack %d", m)
	}
}

func TestSchemeGraphAndEdgesDeterministic(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	word, _ := GreedyTest(ins, 4)
	s, err := BuildScheme(ins, word, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1 := s.Edges()
	e2 := s.Edges()
	if len(e1) != len(e2) {
		t.Fatal("non-deterministic edge count")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("non-deterministic edge order")
		}
	}
	if len(e1) != s.NumEdges() {
		t.Fatalf("Edges lists %d edges, NumEdges counts %d", len(e1), s.NumEdges())
	}
}

func TestSchemeStringAndEmptyThroughput(t *testing.T) {
	solo := NewScheme(platform.MustInstance(3, nil, nil))
	if thr := solo.Throughput(nil); thr != 0 {
		t.Fatalf("no-receiver throughput %v", thr)
	}
	if s := solo.String(); !strings.Contains(s, "Scheme{") {
		t.Fatalf("String: %q", s)
	}
}

// schemeWithEdges returns a scheme on an open-only instance of n receivers
// holding the given unit-rate edges.
func schemeWithEdges(n int, edges [][2]int) *Scheme {
	open := make([]float64, n)
	for i := range open {
		open[i] = 1
	}
	s := NewScheme(platform.MustInstance(1, open, nil))
	for _, e := range edges {
		s.Add(e[0], e[1], 1)
	}
	return s
}

func TestSchemeDepth(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		want  int
	}{
		{"source only", 2, nil, 0},
		{"chain", 3, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}, 3},
		{"star", 3, [][2]int{{0, 1}, {0, 2}, {0, 3}}, 1},
		{"diamond", 4, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {2, 4}}, 3},
		{"unreachable ignored", 4, [][2]int{{0, 1}, {2, 3}, {3, 4}}, 1},
		{"cyclic", 3, [][2]int{{0, 1}, {1, 2}, {2, 1}}, -1},
	}
	for _, c := range cases {
		s := schemeWithEdges(c.n, c.edges)
		if d := SchemeDepth(s); d != c.want {
			t.Errorf("%s: SchemeDepth = %d, want %d", c.name, d, c.want)
		}
		if s.IsAcyclic() != (c.want >= 0) {
			t.Errorf("%s: IsAcyclic = %v", c.name, s.IsAcyclic())
		}
	}
}

// TestSchemeCycleDetected: a cycle through the source and a cycle among
// receivers both make IsAcyclic false and SchemeDepth -1.
func TestSchemeCycleDetected(t *testing.T) {
	for _, edges := range [][][2]int{
		{{0, 1}, {1, 2}, {2, 0}},
		{{0, 1}, {1, 2}, {2, 3}, {3, 1}},
	} {
		s := schemeWithEdges(3, edges)
		if s.IsAcyclic() {
			t.Fatalf("%v: cycle not detected", edges)
		}
		if d := SchemeDepth(s); d != -1 {
			t.Fatalf("%v: SchemeDepth = %d, want -1", edges, d)
		}
	}
}

// refAcyclicDepth is a brute-force reference for IsAcyclic and
// SchemeDepth: a colouring DFS over a Rate(i, j) scan finds back edges,
// and a memoized DFS takes the longest hop path from the source.
func refAcyclicDepth(s *Scheme) (bool, int) {
	total := s.Instance().Total()
	const white, grey, black = 0, 1, 2
	colour := make([]int, total)
	longest := make([]int, total)
	cyclic := false
	var visit func(v int)
	visit = func(v int) {
		colour[v] = grey
		for w := 0; w < total; w++ {
			if s.Rate(v, w) <= 0 {
				continue
			}
			switch colour[w] {
			case grey:
				cyclic = true
			case white:
				visit(w)
			}
			longest[v] = max(longest[v], longest[w]+1)
		}
		colour[v] = black
	}
	for v := 0; v < total; v++ {
		if colour[v] == white {
			visit(v)
		}
	}
	if cyclic {
		return false, -1
	}
	return true, longest[0]
}

// randomDAGEdges returns the edges of a random DAG on n+1 nodes: each
// forward pair of a random topological order is an edge with probability
// 0.2.
func randomDAGEdges(rng *rand.Rand, n int) [][2]int {
	perm := rng.Perm(n + 1)
	var edges [][2]int
	for a := 0; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			if rng.Float64() < 0.2 {
				edges = append(edges, [2]int{perm[a], perm[b]})
			}
		}
	}
	return edges
}

// checkAgainstRef compares IsAcyclic and SchemeDepth with the
// brute-force reference, which must report acyclic = wantAcyclic.
func checkAgainstRef(t *testing.T, trial int, s *Scheme, wantAcyclic bool) {
	t.Helper()
	refAcyclic, refDepth := refAcyclicDepth(s)
	if refAcyclic != wantAcyclic {
		t.Fatalf("trial %d: reference says acyclic = %v", trial, refAcyclic)
	}
	if got := s.IsAcyclic(); got != refAcyclic {
		t.Fatalf("trial %d: IsAcyclic = %v, want %v", trial, got, refAcyclic)
	}
	if got := SchemeDepth(s); got != refDepth {
		t.Fatalf("trial %d: SchemeDepth = %d, want %d", trial, got, refDepth)
	}
}

// TestRandomDAGSchemes: random DAG schemes over shuffled node labels
// agree with the brute-force reference.
func TestRandomDAGSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		checkAgainstRef(t, trial, schemeWithEdges(n, randomDAGEdges(rng, n)), true)
	}
}

// TestRandomSchemeCycleDetected: random DAG schemes with one edge
// reversed are cyclic, and agree with the brute-force reference.
func TestRandomSchemeCycleDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		edges := randomDAGEdges(rng, n)
		if len(edges) == 0 {
			edges = [][2]int{{0, n}}
		}
		s := schemeWithEdges(n, edges)
		e := edges[rng.Intn(len(edges))]
		s.Add(e[1], e[0], 1)
		checkAgainstRef(t, trial, s, false)
	}
}
