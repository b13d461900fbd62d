// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation:
//
//   - Table I — execution trace of Algorithm 2 on the Figure 1 instance;
//   - Figure 7 — worst-case acyclic/cyclic ratio over tight homogeneous
//     instances for n, m ∈ [0, 100];
//   - Figure 19 (Appendix XII) — average-case ratio of acyclic solutions
//     on random tight instances across six bandwidth distributions,
//     open-node probabilities p ∈ {0.1, 0.5, 0.7, 0.9} and sizes
//     n ∈ {10, 100, 1000};
//   - the worst-case demonstrations of Theorems 6.2 and 6.3.
//
// Each driver returns plain data structures; the cmd/ tools and the
// benchmark harness format them as text/CSV.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/platform"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------------
// Table I

// TableI renders the execution trace of Algorithm 2 on the Figure 1
// instance at T = 4, matching the paper's Table I layout (columns are
// the successive prefixes π; rows are O(π), G(π), W(π)).
func TableI() (string, error) {
	ins := generator.Figure1()
	word, steps, ok := core.GreedyTestTrace(ins, 4)
	if !ok {
		return "", fmt.Errorf("experiments: GreedyTest(4) failed on the Figure 1 instance")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Execution of Algorithm 2 on the Figure 1 instance (T = 4)\n")
	fmt.Fprintf(&sb, "%-8s", "π")
	fmt.Fprintf(&sb, "%-6s", "ε")
	for _, st := range steps {
		fmt.Fprintf(&sb, "%-8s", st.Prefix.String())
	}
	sb.WriteString("\n")
	row := func(name string, sel func(core.TraceStep) float64, initial float64) {
		fmt.Fprintf(&sb, "%-8s%-6g", name, initial)
		for _, st := range steps {
			fmt.Fprintf(&sb, "%-8g", sel(st))
		}
		sb.WriteString("\n")
	}
	row("O(π)", func(s core.TraceStep) float64 { return s.O }, ins.B0)
	row("G(π)", func(s core.TraceStep) float64 { return s.G }, 0)
	row("W(π)", func(s core.TraceStep) float64 { return s.W }, 0)
	fmt.Fprintf(&sb, "final word: %s  (order σ = %s)\n", word, word.OrderString(ins))
	return sb.String(), nil
}

// ---------------------------------------------------------------------------
// Figure 7

// Figure7Cell is one grid point of the Figure 7 surface.
type Figure7Cell struct {
	N, M  int
	Ratio float64 // min over Δ of T*_ac / T* (T* = 1 on tight instances)
}

// Figure7 explores tight homogeneous instances on the (n, m) grid
// [1, maxN] × [0, maxM] with the given stride, minimizing the ratio over
// deltaSamples evenly spaced Δ ∈ [0, n] per cell (the paper's exhaustive
// exploration of "all possible tight and homogeneous instances").
// The surface floor is 5/7 and the asymptotic valley ≈ 0.925 runs along
// m ≈ ((√41−3)/8)·n ≈ 0.425·n.
//
// Cells are solved on the engine worker pool until ctx is canceled (one
// job per grid cell, each resolving the registered acyclic-search
// solver per Δ-sample) and land pre-sorted in (n, m) order because the
// pool preserves job indexing.
func Figure7(ctx context.Context, maxN, maxM, stride, deltaSamples int) ([]Figure7Cell, error) {
	if stride < 1 {
		stride = 1
	}
	if deltaSamples < 1 {
		deltaSamples = 1
	}
	// Resolve the name once up front so a typo fails fast, then dispatch
	// per-sample through the Request/Plan API.
	if _, err := engine.Get("acyclic-search"); err != nil {
		return nil, err
	}
	type nm struct{ n, m int }
	var grid []nm
	for n := 1; n <= maxN; n += stride {
		for m := 0; m <= maxM; m += stride {
			grid = append(grid, nm{n, m})
		}
	}
	cells := make([]Figure7Cell, len(grid))
	err := engine.ForEach(ctx, len(grid), 0, func(ctx context.Context, i int) error {
		ratio, err := figure7Cell(ctx, grid[i].n, grid[i].m, deltaSamples)
		if err != nil {
			return err
		}
		cells[i] = Figure7Cell{N: grid[i].n, M: grid[i].m, Ratio: ratio}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

func figure7Cell(ctx context.Context, n, m, deltaSamples int) (float64, error) {
	worst := 1.0
	samples := deltaSamples
	if m == 0 {
		samples = 1 // Δ is meaningless without guarded nodes
	}
	for k := 0; k < samples; k++ {
		delta := 0.0
		if samples > 1 {
			delta = float64(n) * float64(k) / float64(samples-1)
		}
		ins, err := generator.TightHomogeneous(n, m, delta)
		if err != nil {
			return 0, err
		}
		plan, err := engine.Execute(ctx, engine.NewRequest(ins, engine.WithSolver("acyclic-search")))
		if err != nil {
			return 0, err
		}
		// T* = 1 by construction; the ratio is T*_ac itself.
		if plan.Throughput < worst {
			worst = plan.Throughput
		}
	}
	return worst, nil
}

// Figure7CSV renders the grid as "n,m,ratio" lines.
func Figure7CSV(cells []Figure7Cell) string {
	var sb strings.Builder
	sb.WriteString("n,m,ratio\n")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%d,%d,%.6f\n", c.N, c.M, c.Ratio)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 19 (Appendix XII): average case

// AvgCaseConfig parameterizes the average-case study.
type AvgCaseConfig struct {
	Distributions []distribution.Distribution
	OpenProbs     []float64
	Sizes         []int
	Reps          int
	Seed          int64
	Workers       int // 0 = GOMAXPROCS
}

// DefaultAvgCaseConfig mirrors the paper's Figure 19 panels: the six
// distributions, p ∈ {0.1, 0.5, 0.7, 0.9}, n ∈ {10, 100, 1000} and 1000
// repetitions per cell.
func DefaultAvgCaseConfig() AvgCaseConfig {
	return AvgCaseConfig{
		Distributions: distribution.All(),
		OpenProbs:     []float64{0.1, 0.5, 0.7, 0.9},
		Sizes:         []int{10, 100, 1000},
		Reps:          1000,
		Seed:          2014,
	}
}

// AvgCaseCell aggregates one (distribution, p, n) panel point: summary
// statistics of the three ratio series of Figure 19.
type AvgCaseCell struct {
	Dist string
	P    float64
	N    int
	Reps int
	// OptAcyclic is the boxplot series: T*_ac / T*.
	OptAcyclic stats.Summary
	// BestOmega is the blue-line series: max(T(ω1), T(ω2)) / T*.
	BestOmega stats.Summary
	// TheoremWord is the red-line series: the single ω word chosen by the
	// Theorem 6.2 case analysis, over T*.
	TheoremWord stats.Summary
}

// AverageCase runs the Appendix XII study and returns one cell per
// (distribution, p, n) combination, in configuration order.
// Repetitions run on the engine worker pool until ctx is canceled; each
// repetition derives its own seeded *rand.Rand via RepRNG, so results
// are identical run-to-run and independent of worker scheduling.
func AverageCase(ctx context.Context, cfg AvgCaseConfig) ([]AvgCaseCell, error) {
	if cfg.Reps < 1 {
		return nil, fmt.Errorf("experiments: Reps must be ≥ 1")
	}
	var cells []AvgCaseCell
	for _, dist := range cfg.Distributions {
		for _, p := range cfg.OpenProbs {
			for _, n := range cfg.Sizes {
				cell, err := avgCaseCell(ctx, dist, p, n, cfg.Reps, cfg.Seed, cfg.Workers)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// RepRNG returns the deterministic random stream of one repetition of
// the (p, n) panel cell under the given base seed. Exposing the
// derivation makes every Figure 19 number reproducible in isolation
// (see EXPERIMENTS.md, "Reproducibility").
func RepRNG(seed int64, rep, n int, p float64) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(rep)*1000003 + int64(n)*7919 + int64(p*1000)))
}

func avgCaseCell(ctx context.Context, dist distribution.Distribution, p float64, n, reps int, seed int64, workers int) (AvgCaseCell, error) {
	optR := make([]float64, reps)
	omegaR := make([]float64, reps)
	thmR := make([]float64, reps)

	err := engine.ForEach(ctx, reps, workers, func(_ context.Context, rep int) error {
		// One pooled workspace per repetition: sync.Pool hands each
		// worker goroutine its warm workspace back, so a whole cell
		// reuses a few workspaces instead of allocating per repetition.
		ws := engine.AcquireWorkspace()
		defer engine.ReleaseWorkspace(ws)
		return avgCaseOne(dist, p, n, RepRNG(seed, rep, n, p), ws, &optR[rep], &omegaR[rep], &thmR[rep])
	})
	if err != nil {
		return AvgCaseCell{}, err
	}
	return AvgCaseCell{
		Dist: dist.Name(), P: p, N: n, Reps: reps,
		OptAcyclic:  stats.Summarize(optR),
		BestOmega:   stats.Summarize(omegaR),
		TheoremWord: stats.Summarize(thmR),
	}, nil
}

func avgCaseOne(dist distribution.Distribution, p float64, n int, rng *rand.Rand, ws *core.Workspace, opt, omega, thm *float64) error {
	ins, err := generator.Random(dist, n, p, rng)
	if err != nil {
		return err
	}
	tstar := core.OptimalCyclicThroughput(ins)
	if tstar <= 0 {
		return fmt.Errorf("experiments: degenerate instance with T* = %v", tstar)
	}
	tac, _, err := core.OptimalAcyclicThroughput(ins, ws)
	if err != nil {
		return err
	}
	*opt = tac / tstar
	best, _, err := core.BestCanonicalThroughput(ins, ws)
	if err != nil {
		return err
	}
	*omega = best / tstar
	tw, _, err := core.TheoremWordThroughput(ins, ws)
	if err != nil {
		return err
	}
	*thm = tw / tstar
	return nil
}

// AvgCaseCSV renders cells as CSV with the three series' key quantiles.
func AvgCaseCSV(cells []AvgCaseCell) string {
	var sb strings.Builder
	sb.WriteString("dist,p,n,reps,opt_mean,opt_median,opt_q1,opt_q3,opt_p025,opt_p975,opt_min,omega_mean,omega_median,thm_mean,thm_median\n")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%s,%.1f,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			c.Dist, c.P, c.N, c.Reps,
			c.OptAcyclic.Mean, c.OptAcyclic.Median, c.OptAcyclic.Q1, c.OptAcyclic.Q3,
			c.OptAcyclic.P025, c.OptAcyclic.P975, c.OptAcyclic.Min,
			c.BestOmega.Mean, c.BestOmega.Median,
			c.TheoremWord.Mean, c.TheoremWord.Median)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Worst-case demonstrations (Theorems 6.2 / 6.3)

// WorstCaseReport summarizes the two extremal families as text.
func WorstCaseReport() (string, error) {
	var sb strings.Builder
	ins := generator.WorstCase57(1.0 / 14)
	ws := core.NewWorkspace() // one workspace for every search below
	tac, w, err := core.OptimalAcyclicThroughput(ins, ws)
	if err != nil {
		return "", err
	}
	tstar := core.OptimalCyclicThroughput(ins)
	fmt.Fprintf(&sb, "Theorem 6.2 witness (ε = 1/14): %v\n", ins)
	fmt.Fprintf(&sb, "  T* = %.6f, T*_ac = %.6f, ratio = %.6f (5/7 = %.6f), word %s\n",
		tstar, tac, tac/tstar, core.WorstCaseRatio, w)

	fmt.Fprintf(&sb, "Theorem 6.3 family I(17/40, k): limit (1+√41)/8 = %.6f\n", core.AsymptoticWorstCaseRatio)
	for _, k := range []int{1, 2, 4, 8} {
		fam := generator.Sqrt41Default(k)
		tacK, _, err := core.OptimalAcyclicThroughput(fam, ws)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "  k=%d (n=%d, m=%d): T* = 1, T*_ac = %.6f\n", k, fam.N(), fam.M(), tacK)
	}
	return sb.String(), nil
}

// RatioForInstance bundles the three throughput figures for one instance
// (used by the CLI).
type RatioForInstance struct {
	CyclicOpt   float64
	AcyclicOpt  float64
	AcyclicWord core.Word
	Ratio       float64
}

// Ratios computes cyclic and acyclic optima for an instance.
func Ratios(ins *platform.Instance) (RatioForInstance, error) {
	tstar := core.OptimalCyclicThroughput(ins)
	tac, w, err := core.OptimalAcyclicThroughput(ins, nil)
	if err != nil {
		return RatioForInstance{}, err
	}
	r := RatioForInstance{CyclicOpt: tstar, AcyclicOpt: tac, AcyclicWord: w}
	if tstar > 0 {
		r.Ratio = tac / tstar
	}
	return r, nil
}
