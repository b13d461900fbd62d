package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

// ratOf is the exact rational value of a float64.
func ratOf(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

// exactThreshold is claimed·(1−tol) in rationals.
func exactThreshold(claimed, tol float64) *big.Rat {
	oneMinus := new(big.Rat).Sub(big.NewRat(1, 1), ratOf(tol))
	return oneMinus.Mul(oneMinus, ratOf(claimed))
}

// exactInRateMin is the smallest receiver in-rate of s, summed in
// big.Rat from the public edge list.
func exactInRateMin(s *Scheme) *big.Rat {
	total := s.Instance().Total()
	sums := make([]big.Rat, total)
	for _, e := range s.Edges() {
		sums[e.To].Add(&sums[e.To], ratOf(e.Weight))
	}
	m := &sums[1]
	for v := 2; v < total; v++ {
		if sums[v].Cmp(m) < 0 {
			m = &sums[v]
		}
	}
	return m
}

// certifySolvers build acyclic schemes the way the engine's acyclic,
// acyclic-open, greedy and depth solvers do. acyclic-open gets an
// open-only instance; the others a mixed one.
var certifySolvers = []struct {
	name     string
	openOnly bool
	build    func(*platform.Instance, *Workspace) (float64, *Scheme, error)
}{
	{"acyclic", false, func(ins *platform.Instance, ws *Workspace) (float64, *Scheme, error) {
		T, s, _, err := SolveAcyclic(ins, ws)
		return T, s, err
	}},
	{"acyclic-open", true, func(ins *platform.Instance, _ *Workspace) (float64, *Scheme, error) {
		T := AcyclicOpenOptimalThroughput(ins)
		s, err := AcyclicOpen(ins, T)
		return T, s, err
	}},
	{"greedy", false, func(ins *platform.Instance, ws *Workspace) (float64, *Scheme, error) {
		T, w, err := BestCanonicalThroughput(ins, ws)
		if err != nil {
			return 0, nil, err
		}
		return BuildSchemeShaved(ins, w, T, ws, BuildScheme)
	}},
	{"depth", false, func(ins *platform.Instance, ws *Workspace) (float64, *Scheme, error) {
		T, w, err := OptimalAcyclicThroughput(ins, ws)
		if err != nil {
			return 0, nil, err
		}
		return BuildSchemeShaved(ins, w, T, ws,
			func(ins *platform.Instance, w Word, T float64, _ *Workspace) (*Scheme, error) {
				return BuildSchemeDepthAware(ins, w, T)
			})
	}},
}

// TestCertifyAcyclicIsExact: on acyclic schemes from four solvers at
// 10–1000 receivers (Unif100 and PlanetLab), the exact in-rate minimum
// is the exact max-flow throughput, and Certify accepts exactly when
// that throughput reaches claimed·(1−tol) in rationals, at thresholds
// placed on and one ulp around it. The exact max-flow reference costs
// about a second per 1000-receiver scheme, so that size runs for the
// acyclic solver alone.
func TestCertifyAcyclicIsExact(t *testing.T) {
	sizes := []int{10, 40, 150, 400, 1000}
	if testing.Short() {
		sizes = sizes[:3]
	}
	laws := []distribution.Distribution{distribution.Unif100(), distribution.PlanetLab()}
	ws := NewWorkspace()
	worst := 0.0
	for k, n := range sizes {
		rng := rand.New(rand.NewSource(int64(1000 + k)))
		law := laws[k%len(laws)]
		mixed, err := generator.Random(law, n, 0.2+0.7*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		open, err := generator.Random(law, n, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range certifySolvers {
			if n >= 1000 && solver.name != "acyclic" {
				continue
			}
			ins := mixed
			if solver.openOnly {
				ins = open
			}
			name := fmt.Sprintf("%s/%s/n=%d", solver.name, law.Name(), n)
			T, s, err := solver.build(ins, ws)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !s.IsAcyclic() {
				t.Fatalf("%s: scheme is cyclic", name)
			}
			exactT := s.ThroughputExact()
			if got := exactInRateMin(s); got.Cmp(exactT) != 0 {
				t.Fatalf("%s: exact in-rate minimum %s ≠ ThroughputExact %s",
					name, got.FloatString(20), exactT.FloatString(20))
			}
			near, _ := exactT.Float64()
			dinic := s.Throughput(ws)
			claims := []struct{ claimed, tol float64 }{
				{near, 0},
				{math.Nextafter(near, math.Inf(1)), 0},
				{math.Nextafter(near, 0), 0},
				{T, 1e-9},
				{near / (1 - 1e-9), 1e-9},
				{math.Nextafter(near/(1-1e-9), math.Inf(1)), 1e-9},
			}
			for _, cl := range claims {
				verified, ok := s.Certify(cl.claimed, cl.tol, ws)
				want := exactT.Cmp(exactThreshold(cl.claimed, cl.tol)) >= 0
				if ok != want {
					t.Fatalf("%s: Certify(%v, %v) = %v, exact decision %v (T = %s)",
						name, cl.claimed, cl.tol, ok, want, exactT.FloatString(20))
				}
				worst = max(worst, math.Abs(verified-dinic)/dinic)
			}
			if _, ok := s.Certify(T, 1e-9, ws); !ok {
				t.Errorf("%s: the solver's own claim %v is refused at tolerance 1e-9", name, T)
			}
		}
	}
	if worst > 1e-14 {
		t.Errorf("float in-rate minimum and max-flow differ by %g relative", worst)
	}
}

// TestCertifyRoundingTable pins cases where the float decision and the
// exact one disagree: Certify must side with the rationals.
func TestCertifyRoundingTable(t *testing.T) {
	const big53 = 1 << 53
	cases := []struct {
		name     string
		in       []float64 // rates into receiver 1, one sender each
		claimed  float64
		tol      float64
		wantOK   bool
		floatSum float64 // the float in-rate, as Certify reports it
	}{
		{
			// 1e8 sits on an even significand, so each half-ulp rate
			// rounds away; their exact sum is one whole ulp.
			name: "half-ulp rates vanish in floats", in: []float64{1e8, 0x1p-27, 0x1p-27},
			claimed: math.Nextafter(1e8, math.Inf(1)), wantOK: true, floatSum: 1e8,
		},
		{
			name: "ties to even drop two units", in: []float64{big53, 1, 1},
			claimed: big53 + 2, wantOK: true, floatSum: big53,
		},
		{
			name: "threshold exactly met through tol", in: []float64{big53, 1, 1},
			claimed: 2 * (big53 + 2), tol: 0.5, wantOK: true, floatSum: big53,
		},
		{
			name: "float sum rounds up past the claim", in: []float64{0.1, 0.2},
			claimed: 0.30000000000000004, wantOK: false, floatSum: 0.30000000000000004,
		},
		{
			name: "odd unit rounds up to even", in: []float64{big53, 3},
			claimed: big53 + 4, wantOK: false, floatSum: big53 + 4,
		},
		{
			// fl(c·fl(1−1e-9)) rounds down onto the rate, while the
			// exact threshold lies above it.
			name: "threshold rounds down onto the rate", in: []float64{52.00604994799395},
			claimed: 52.00605, tol: 1e-9, wantOK: false, floatSum: 52.00604994799395,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Receiver 1 hears from the source and from receivers 2..k,
			// which the source feeds far above the threshold.
			k := len(c.in)
			open := make([]float64, k)
			for i := range open {
				open[i] = 1
			}
			s := NewScheme(platform.MustInstance(1, open, nil))
			s.Add(0, 1, c.in[0])
			for j, r := range c.in[1:] {
				s.Add(0, j+2, 4*c.claimed)
				s.Add(j+2, 1, r)
			}
			exactOK := exactInRateMin(s).Cmp(exactThreshold(c.claimed, c.tol)) >= 0
			if exactOK != c.wantOK {
				t.Fatalf("table row is wrong: exact decision %v", exactOK)
			}
			floatOK := !(s.InRate(1) < c.claimed*(1-c.tol))
			if floatOK == c.wantOK {
				t.Fatalf("row does not separate float from exact: both say %v", floatOK)
			}
			verified, ok := s.Certify(c.claimed, c.tol, NewWorkspace())
			if ok != c.wantOK {
				t.Errorf("Certify ok = %v, want %v", ok, c.wantOK)
			}
			if verified != c.floatSum {
				t.Errorf("verified = %v, want the float in-rate %v", verified, c.floatSum)
			}
		})
	}
}

// TestCertifyCyclicKeepsMaxflow: a cyclic scheme is certified by the
// max-flow value, bit for bit, and the float comparison against it.
func TestCertifyCyclicKeepsMaxflow(t *testing.T) {
	ws := NewWorkspace()
	cyclic := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s *Scheme
		var claimed float64
		var err error
		if seed%2 == 0 {
			ins := randomMixedInstance(rng, 20+rng.Intn(40), 0)
			claimed, s, err = SolveCyclicOpen(ins, ws)
		} else {
			ins := randomMixedInstance(rng, 10+rng.Intn(20), 10+rng.Intn(20))
			s, claimed, err = PackCyclicGuarded(ins, OptimalCyclicThroughput(ins), ws)
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.IsAcyclic() {
			continue
		}
		cyclic++
		want := s.Throughput(ws)
		for _, claim := range []float64{claimed, want, 1.01 * want} {
			got, ok := s.Certify(claim, 1e-9, ws)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: Certify reports %v, max-flow %v", seed, got, want)
			}
			if wantOK := !(want < claim*(1-1e-9)); ok != wantOK {
				t.Fatalf("seed %d: Certify(%v) ok = %v, float comparison %v", seed, claim, ok, wantOK)
			}
		}
	}
	if cyclic < 4 {
		t.Fatalf("only %d cyclic schemes drawn", cyclic)
	}
}

// TestCertifyZeroSteadyStateAllocs: with a warm workspace the acyclic
// path allocates nothing, like the max-flow verify it replaces.
func TestCertifyZeroSteadyStateAllocs(t *testing.T) {
	ins := workspaceTestInstance(7, 30, 30)
	T, s, _, err := SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	if _, ok := s.Certify(T, 1e-9, ws); !ok {
		t.Fatal("warm-up refused")
	}
	before := ws.Stats()
	allocs := testing.AllocsPerRun(20, func() {
		s.Certify(T, 1e-9, ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Certify allocates %.1f/op, want 0", allocs)
	}
	if got := ws.Stats().Sub(before); got.FlowEvals != 0 || got.Grows != 0 {
		t.Fatalf("acyclic Certify ran max-flow or grew scratch: %+v", got)
	}
}

// TestCertifyEdgeCases: a receiver nobody feeds fails any positive
// claim, a single-node instance certifies like the max-flow functional
// (throughput 0), and a non-finite claim is decided in floats.
func TestCertifyEdgeCases(t *testing.T) {
	ins := platform.MustInstance(10, []float64{5, 5}, nil)
	s := NewScheme(ins)
	s.Add(0, 1, 4)
	if v, ok := s.Certify(4, 1e-9, nil); ok || v != 0 {
		t.Fatalf("unfed receiver: Certify = (%v, %v), want (0, false)", v, ok)
	}
	if v, ok := s.Certify(0, 1e-9, nil); !ok || v != 0 {
		t.Fatalf("zero claim: Certify = (%v, %v), want (0, true)", v, ok)
	}
	s.Add(1, 2, 4)
	if v, ok := s.Certify(4, 0, nil); !ok || v != 4 {
		t.Fatalf("chain: Certify = (%v, %v), want (4, true)", v, ok)
	}
	if _, ok := s.Certify(math.Inf(1), 1e-9, nil); ok {
		t.Fatal("infinite claim accepted")
	}
	single := NewScheme(platform.MustInstance(10, nil, nil))
	if v, ok := single.Certify(1, 1e-9, nil); ok || v != 0 {
		t.Fatalf("single node: Certify = (%v, %v), want (0, false)", v, ok)
	}
}
