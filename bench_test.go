// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
// recorded results), plus algorithmic ablations.
//
// Figure/table map:
//
//	BenchmarkTableI          — Table I (Algorithm 2 trace)
//	BenchmarkFigure1*        — Figures 1/2/5 (running example)
//	BenchmarkFigure7Grid     — Figure 7 (tight homogeneous surface)
//	BenchmarkFigure19Cell    — Figure 19 / Appendix XII (average case)
//	BenchmarkTheorem62/63    — worst-case families of Section VI
//
// Ablations:
//
//	BenchmarkGreedyTest      — linear-time feasibility at three scales
//	BenchmarkDichotomicSearch— full T*_ac search
//	BenchmarkWordThroughput  — per-word optimum, one lower-hull pass
//	BenchmarkExactVsFloat    — big.Rat reference vs float64 fast path
//	BenchmarkAlgorithm1 / BenchmarkCyclicOpen / BenchmarkBuildScheme
//	BenchmarkThroughputMaxflow — max-flow verification cost
//	BenchmarkCertifyAcyclic  — the in-rate check that replaces it on
//	                           acyclic plans (same scheme, warm workspace)
//	BenchmarkTreeDecompose / BenchmarkMassoulie — downstream substrates
package repro_test

import (
	"bytes"
	"context"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/bedibe"
	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/experiments"
	"repro/internal/generator"
	"repro/internal/massoulie"
	"repro/internal/planstore"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trees"
	"repro/internal/wire"
)

// randomMixed draws a reproducible random instance for benchmarks.
func randomMixed(seed int64, nn, mm int) *repro.Instance {
	rng := rand.New(rand.NewSource(seed))
	open := make([]float64, nn)
	for i := range open {
		open[i] = 1 + 99*rng.Float64()
	}
	guarded := make([]float64, mm)
	for i := range guarded {
		guarded[i] = 1 + 99*rng.Float64()
	}
	return repro.MustInstance(50+50*rng.Float64(), open, guarded)
}

// ---------------------------------------------------------------------------
// Tables and figures

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Solve(b *testing.B) {
	ins := repro.Figure1Instance()
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.SolveAcyclic(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Exhaustive(b *testing.B) {
	ins := repro.Figure1Instance()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ExhaustiveAcyclicOptimum(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7Grid(b *testing.B) {
	// A 20×20 corner of the Figure 7 grid with 5 Δ-samples; the cmd
	// regenerates the full 100×100 surface.
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(context.Background(), 20, 20, 1, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure19Cell(b *testing.B) {
	cases := []struct {
		name string
		dist distribution.Distribution
		n    int
	}{
		{"Unif100/n=100", distribution.Unif100(), 100},
		{"Power2/n=100", distribution.Power2(), 100},
		{"PLab/n=1000", distribution.PlanetLab(), 1000},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := experiments.AvgCaseConfig{
				Distributions: []distribution.Distribution{c.dist},
				OpenProbs:     []float64{0.7},
				Sizes:         []int{c.n},
				Reps:          20,
				Seed:          1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.AverageCase(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTheorem62Witness(b *testing.B) {
	ins := generator.WorstCase57(1.0 / 14)
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.OptimalAcyclicThroughput(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem63Family(b *testing.B) {
	ins := generator.Sqrt41Default(2) // n=80, m=34
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.OptimalAcyclicThroughput(ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchSweep measures the engine's parallel batch runner on a
// 256-instance sweep (n=30 random tight instances, acyclic dichotomic
// search per instance), the building block of the Figure 7/19 drivers
// and `bmpcast sweep`. The serial variant is the reference its
// deterministic ordering is validated against.
func BenchmarkBatchSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(2014))
	instances := make([]*repro.Instance, 256)
	for i := range instances {
		var err error
		instances[i], err = repro.RandomInstance(distribution.Unif100(), 30, 0.7, rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repro.SolveBatch(ctx, "acyclic-search", instances, repro.BatchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repro.SolveBatch(ctx, "acyclic-search", instances, repro.BatchOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChurnResolve measures solve latency *under change* — the
// dynamic-platform workload: a 50-event churn trace replayed against a
// live instance, re-solving after every event. The repair variant
// warm-starts each event from the previous solution on a session
// workspace; the fullsolve variant re-runs the dichotomic search from
// scratch (also on a warm workspace, isolating the algorithmic win
// from the allocation win).
func BenchmarkChurnResolve(b *testing.B) {
	trace, err := sim.GenerateTrace(sim.TraceConfig{Nodes: 40, POpen: 0.7, Events: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	run := func(b *testing.B, noRepair bool) {
		b.ReportAllocs()
		var probes int64
		for i := 0; i < b.N; i++ {
			tl, err := sim.Run(ctx, trace, sim.RunConfig{Solvers: []string{"acyclic"}, NoRepair: noRepair})
			if err != nil {
				b.Fatal(err)
			}
			probes = tl.Stats["acyclic"].Evals.GreedyTests
		}
		b.ReportMetric(float64(probes)/float64(len(trace.Events)+1), "probes/event")
	}
	b.Run("repair", func(b *testing.B) { run(b, false) })
	b.Run("fullsolve", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------------
// Algorithm ablations

func BenchmarkGreedyTest(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		ins := randomMixed(1, size/2, size/2)
		T := repro.OptimalCyclicThroughput(ins) * 0.8
		b.Run(benchSize(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				repro.GreedyTest(ins, T)
			}
		})
	}
}

func BenchmarkDichotomicSearch(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		ins := randomMixed(2, size/2, size/2)
		b.Run(benchSize(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := repro.OptimalAcyclicThroughput(ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWordThroughput(b *testing.B) {
	ins := randomMixed(3, 200, 200)
	w, ok := repro.GreedyTest(ins, repro.OptimalCyclicThroughput(ins)*0.8)
	if !ok {
		b.Fatal("infeasible")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repro.WordThroughput(ins, w)
	}
}

func BenchmarkExactVsFloat(b *testing.B) {
	ins := randomMixed(4, 50, 50)
	T := repro.OptimalCyclicThroughput(ins) * 0.8
	rT := new(big.Rat)
	rT.SetFloat64(T)
	b.Run("float64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.GreedyTest(ins, T)
		}
	})
	b.Run("bigRat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.GreedyTestExact(ins, rT)
		}
	})
}

func BenchmarkAlgorithm1(b *testing.B) {
	for _, size := range []int{100, 1000} {
		ins := randomMixed(5, size, 0)
		T := repro.AcyclicOpenOptimalThroughput(ins)
		b.Run(benchSize(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.AcyclicOpen(ins, T); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCyclicOpen(b *testing.B) {
	for _, size := range []int{100, 1000} {
		ins := randomMixed(6, size, 0)
		T := repro.OptimalCyclicThroughput(ins)
		b.Run(benchSize(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.CyclicOpen(ins, T); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildScheme(b *testing.B) {
	ins := randomMixed(7, 500, 500)
	T, w, err := repro.OptimalAcyclicThroughput(ins)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.BuildScheme(ins, w, T*(1-1e-12)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThroughputMaxflow(b *testing.B) {
	ins := randomMixed(8, 100, 100)
	_, s, err := repro.SolveAcyclic(ins)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Throughput(nil)
	}
}

// BenchmarkThroughputMaxflowWorkspace is the pooled-path variant of
// BenchmarkThroughputMaxflow: one warm workspace across iterations, the
// steady state every engine sweep runs in (expected 0 allocs/op).
func BenchmarkThroughputMaxflowWorkspace(b *testing.B) {
	ins := randomMixed(8, 100, 100)
	_, s, err := repro.SolveAcyclic(ins)
	if err != nil {
		b.Fatal(err)
	}
	ws := repro.NewWorkspace()
	s.Throughput(ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Throughput(ws)
	}
}

// BenchmarkCertifyAcyclic is the tolerance check a verified request
// runs on the scheme of BenchmarkThroughputMaxflowWorkspace: one
// in-rate pass and one Kahn pass on a warm workspace, no max-flow
// (expected 0 allocs/op). The two rows are that layer before and after.
func BenchmarkCertifyAcyclic(b *testing.B) {
	ins := randomMixed(8, 100, 100)
	T, s, err := repro.SolveAcyclic(ins)
	if err != nil {
		b.Fatal(err)
	}
	ws := repro.NewWorkspace()
	if _, ok := s.Certify(T, 1e-9, ws); !ok {
		b.Fatal("scheme refused")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Certify(T, 1e-9, ws)
	}
}

// BenchmarkSolveAcyclicWorkspace measures the full search+build pipeline
// on one warm workspace (the per-instance unit of an engine sweep).
func BenchmarkSolveAcyclicWorkspace(b *testing.B) {
	ins := randomMixed(8, 100, 100)
	ws := repro.NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.SolveAcyclicWithWorkspace(ins, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveLargeN is the scaling axis: the full acyclic pipeline
// (dichotomic search + Lemma 4.6 build) on seeded heavy-tailed
// LargeScale platforms at 10k and 100k nodes, on one warm workspace.
// The per-op time growing linearly from n=10k to n=100k (×10, not
// ×100) is the scaling claim CI gates via BENCH_baseline.json.
func BenchmarkSolveLargeN(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		ins, err := generator.LargeScale(generator.LargeScaleConfig{
			Nodes: size, POpen: 0.7, Seed: 2014,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchSize(size), func(b *testing.B) {
			ws := repro.NewWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := repro.SolveAcyclicWithWorkspace(ins, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTreeDecompose(b *testing.B) {
	ins := randomMixed(9, 100, 100)
	T, s, err := repro.SolveAcyclic(ins)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trees.Decompose(s, T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMassoulie(b *testing.B) {
	ins := randomMixed(10, 20, 20)
	T, s, err := repro.SolveAcyclic(ins)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := massoulie.Simulate(s, T, massoulie.Config{Packets: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Extension ablations

// BenchmarkAblationDepth compares the Lemma 4.6 earliest-first builder
// against the depth-aware variant; the custom metrics record the depth
// each achieves on the same (word, T).
func BenchmarkAblationDepth(b *testing.B) {
	ins := randomMixed(11, 60, 60)
	T, w, err := repro.OptimalAcyclicThroughput(ins)
	if err != nil {
		b.Fatal(err)
	}
	T *= 1 - 1e-12
	b.Run("earliest-first", func(b *testing.B) {
		var depth int
		for i := 0; i < b.N; i++ {
			s, err := repro.BuildScheme(ins, w, T)
			if err != nil {
				b.Fatal(err)
			}
			depth = repro.SchemeDepth(s)
		}
		b.ReportMetric(float64(depth), "depth")
	})
	b.Run("depth-aware", func(b *testing.B) {
		var depth int
		for i := 0; i < b.N; i++ {
			s, err := repro.BuildSchemeDepthAware(ins, w, T)
			if err != nil {
				b.Fatal(err)
			}
			depth = repro.SchemeDepth(s)
		}
		b.ReportMetric(float64(depth), "depth")
	})
}

// BenchmarkAblationOnePort quantifies the multi-port win over the
// degree-1 pipeline baseline on each experiment distribution (the
// "multiport_win_x" metric is T*_multiport / T_chain).
func BenchmarkAblationOnePort(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	for _, dist := range []distribution.Distribution{distribution.Unif100(), distribution.Power2(), distribution.PlanetLab()} {
		open := make([]float64, 50)
		for i := range open {
			open[i] = dist.Sample(rng)
		}
		ins := repro.MustInstance(open[0]*2, open, nil)
		b.Run(dist.Name(), func(b *testing.B) {
			var win float64
			for i := 0; i < b.N; i++ {
				chain, err := core.OnePortChainThroughput(ins)
				if err != nil {
					b.Fatal(err)
				}
				win = repro.AcyclicOpenOptimalThroughput(ins) / chain
			}
			b.ReportMetric(win, "multiport_win_x")
		})
	}
}

// BenchmarkPackCyclicGuarded measures the constructive cyclic-guarded
// solver (the quadrant the paper leaves non-constructive).
func BenchmarkPackCyclicGuarded(b *testing.B) {
	for _, size := range []int{20, 100} {
		ins := randomMixed(14, size/2, size/2)
		T := repro.OptimalCyclicThroughput(ins)
		b.Run(benchSize(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := repro.PackCyclicGuarded(ins, T); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBedibeFit measures the LastMile estimator on a 100-host
// campaign (the model-instantiation stage of the §II-C pipeline).
func BenchmarkBedibeFit(b *testing.B) {
	_, m := bedibe.Synthesize(bedibe.SynthConfig{N: 100, NoiseStd: 0.15, ObserveP: 0.7, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bedibe.FitLastMile(m, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule measures discretizing a tree decomposition into a
// 1000-block periodic plan.
func BenchmarkSchedule(b *testing.B) {
	ins := randomMixed(13, 40, 40)
	T, s, err := repro.SolveAcyclic(ins)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := trees.Decompose(s, T)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Build(s, T, ts, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSize(n int) string {
	switch {
	case n >= 1000000:
		return "n=1M"
	case n >= 1000:
		return "n=" + itoa(n/1000) + "k"
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkServiceSolve measures one full `POST /v1/solve` round trip
// against the broadcast-planning service (decode request → bounded
// worker gate → cache miss → pooled Execute → canonical wire encode →
// cache insert) on the Figure 1 instance — the service-layer overhead
// on top of the microseconds-long solve itself. Every iteration posts a
// distinct body (b0 stepped by 1e-9), so every one is a real solve
// through the production miss path (the memoized path is
// BenchmarkServiceSolveCached). Gated in CI via BENCH_baseline.json.
func BenchmarkServiceSolve(b *testing.B) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	bodies := make([]string, b.N)
	for i := range bodies {
		b0 := strconv.FormatFloat(6+1e-9*float64(i), 'g', -1, 64)
		bodies[i] = `{"v":1,"instance":{"v":1,"b0":` + b0 + `,"open":[5,5],"guarded":[4,1,1]},"solver":"acyclic","tolerance":1e-9}`
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(bodies[i]))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if resp.Header.Get("X-Bmpcast-Cache") != "miss" {
			b.Fatalf("iteration %d answered %q, want a miss", i, resp.Header.Get("X-Bmpcast-Cache"))
		}
	}
}

// BenchmarkServiceSolveCached isolates what the content-addressed plan
// cache buys on a non-trivial instance (200 nodes, ≈1ms solve). Both
// sub-benchmarks drive the same service handler directly
// (no TCP, no HTTP client), so the delta is what separates a miss from
// a hit on one config:
//
//	cold — every iteration posts a distinct mutant body (one open
//	       bandwidth rescaled per iteration), so every request runs
//	       the full miss path: decode, canonical-key encode, solve,
//	       cache insert, response encode;
//	hot  — every iteration reposts one body, so every request after
//	       the priming call is answered from the cache.
//
// The acceptance bar for the cache layer is hot ≥ 10× faster than
// cold. Gated in CI via BENCH_baseline.json.
func BenchmarkServiceSolveCached(b *testing.B) {
	base := randomMixed(1, 120, 80)
	baseReq := repro.NewRequest(base, repro.WithSolver("acyclic"), repro.WithTolerance(1e-9))
	baseBody, err := wire.EncodeRequest(baseReq)
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, svc *service.Server, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.Run("cold", func(b *testing.B) {
		svc := service.New(service.Config{Workers: 1})
		defer svc.Close()
		post(b, svc, baseBody) // warm the workspace pool like the hot path's priming call
		bodies := make([][]byte, b.N)
		for i := range bodies {
			mutant := base.Clone()
			if _, err := mutant.RescaleOpen(0, 1+1e-7*float64(i+1)); err != nil {
				b.Fatal(err)
			}
			req := repro.NewRequest(mutant, repro.WithSolver("acyclic"), repro.WithTolerance(1e-9))
			if bodies[i], err = wire.EncodeRequest(req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, svc, bodies[i])
		}
	})
	b.Run("hot", func(b *testing.B) {
		svc := service.New(service.Config{Workers: 1})
		defer svc.Close()
		post(b, svc, baseBody) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, svc, baseBody)
		}
	})
}

// BenchmarkServiceSolveWarm measures the plan store's middle latency
// tier on the BenchmarkServiceSolveCached instance (200 nodes), against
// a cold reference through the *same* store-enabled service so the two
// sub-benchmarks differ only in how each request is answered:
//
//	cold — every iteration posts a distinct mutant with six open
//	       bandwidths rescaled, past the similarity index's edit
//	       budget (4): the scan misses, a full solve answers, and the
//	       plan spills to the store — the production miss path;
//	warm — every iteration posts a distinct mutant with one open
//	       bandwidth rescaled, within budget: the index seeds an
//	       incremental repair from the persisted base plan, and the
//	       admission policy skips the re-spill.
//
// (BenchmarkServiceSolveCached's cold is deliberately *not* the
// reference: it disables the cache, so it skips the canonical-key
// encode, cache insert, neighbor scan, and store spill that every
// production miss pays.) Each iteration checks the X-Bmpcast-Cache
// label, so the benchmark fails loudly if a tier stops engaging. The
// acceptance bar is warm strictly between hot (BenchmarkServiceSolve-
// Cached/hot) and cold. Gated in CI via BENCH_baseline.json.
func BenchmarkServiceSolveWarm(b *testing.B) {
	base := randomMixed(1, 120, 80)
	baseReq := repro.NewRequest(base, repro.WithSolver("acyclic"), repro.WithTolerance(1e-9))
	baseBody, err := wire.EncodeRequest(baseReq)
	if err != nil {
		b.Fatal(err)
	}
	// mutate rescales open bandwidths 0..edits-1 by factors that are
	// distinct per iteration and per node, so every body is unique and
	// the node-multiset distance to the base is exactly edits.
	mutate := func(i, edits int) []byte {
		mutant := base.Clone()
		for n := 0; n < edits; n++ {
			if _, err := mutant.RescaleOpen(n, 1+1e-7*float64(i*edits+n+1)); err != nil {
				b.Fatal(err)
			}
		}
		req := repro.NewRequest(mutant, repro.WithSolver("acyclic"), repro.WithTolerance(1e-9))
		body, err := wire.EncodeRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	run := func(b *testing.B, edits int, want string) {
		svc, err := service.NewServer(service.Config{Workers: 1, StoreDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		post := func(body []byte) string {
			r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
			w := httptest.NewRecorder()
			svc.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			return w.Header().Get("X-Bmpcast-Cache")
		}
		post(baseBody) // solve and persist the plan the warm tier repairs from
		bodies := make([][]byte, b.N)
		for i := range bodies {
			bodies[i] = mutate(i, edits)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if label := post(bodies[i]); label != want {
				b.Fatalf("iteration %d answered %q, want %q — the %s tier is not engaging", i, label, want, want)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, planstore.DefaultEditBudget+2, "miss") })
	b.Run("warm", func(b *testing.B) { run(b, 1, "warm") })
}

// BenchmarkClientRoundTrip measures one Solve through the Go SDK
// against a live loopback daemon — wire encode → HTTP POST → service →
// canonical plan bytes back — i.e. what `bmpcast solve -remote` pays
// per call. The service runs its default cache, so iterations after
// the first measure the steady-state remote hit path. Gated in CI via
// BENCH_baseline.json.
func BenchmarkClientRoundTrip(b *testing.B) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	c := client.New(ts.URL)
	req := repro.NewRequest(repro.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1}),
		repro.WithSolver("acyclic"), repro.WithTolerance(1e-9))
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SolveRaw(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
