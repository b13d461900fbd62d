package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/generator"
)

func TestTableIText(t *testing.T) {
	text, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"O(π)", "G(π)", "W(π)", "■○■○■", "031425"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table I output missing %q:\n%s", want, text)
		}
	}
}

func TestFigure7SmallGrid(t *testing.T) {
	cells, err := Figure7(context.Background(), 12, 12, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12*13 {
		t.Fatalf("got %d cells, want %d", len(cells), 12*13)
	}
	worst := 1.0
	for _, c := range cells {
		if c.Ratio < core.WorstCaseRatio-1e-9 || c.Ratio > 1+1e-9 {
			t.Fatalf("cell (%d,%d): ratio %v outside [5/7, 1]", c.N, c.M, c.Ratio)
		}
		if c.Ratio < worst {
			worst = c.Ratio
		}
		if c.M == 0 && c.Ratio < 1-1.0/float64(c.N)-1e-9 {
			t.Fatalf("open-only cell (%d,0): ratio %v below 1-1/n (Theorem 6.1)", c.N, c.Ratio)
		}
	}
	// Figure 7 shows small instances dipping toward 5/7: the smallest
	// observed ratio on a 12×12 grid is well below 0.8.
	if worst > 0.78 {
		t.Fatalf("worst ratio %v; expected the small-instance dip below 0.78", worst)
	}
	t.Logf("worst ratio on the 12×12 grid: %.4f", worst)
}

func TestFigure7ValleyNearSqrt41(t *testing.T) {
	// Along m ≈ 0.425·n the ratio stays below 1 even for larger n
	// (Theorem 6.3); check n = 40, m = 17.
	ratio, err := figure7Cell(context.Background(), 40, 17, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 0.94 {
		t.Fatalf("valley cell (40,17) ratio %v; expected ≤ (1+√41)/8 + slack ≈ 0.93", ratio)
	}
	if ratio < core.WorstCaseRatio-1e-9 {
		t.Fatalf("valley cell ratio %v below 5/7", ratio)
	}
}

func TestFigure7CSV(t *testing.T) {
	cells := []Figure7Cell{{N: 1, M: 2, Ratio: 0.75}}
	csv := Figure7CSV(cells)
	if !strings.Contains(csv, "n,m,ratio\n1,2,0.750000\n") {
		t.Fatalf("bad CSV: %q", csv)
	}
}

func TestAverageCaseSmall(t *testing.T) {
	cfg := AvgCaseConfig{
		Distributions: []distribution.Distribution{distribution.Unif100(), distribution.PlanetLab()},
		OpenProbs:     []float64{0.5, 0.9},
		Sizes:         []int{10, 40},
		Reps:          30,
		Seed:          99,
	}
	cells, err := AverageCase(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		// Paper's headline: average ratios very close to 1 (≥ 0.95 on
		// every scenario), and all three series within [5/7, 1].
		if c.OptAcyclic.Mean < 0.9 {
			t.Errorf("%s p=%.1f n=%d: mean opt-acyclic ratio %.4f < 0.9", c.Dist, c.P, c.N, c.OptAcyclic.Mean)
		}
		// Theorem 6.2 guarantees 5/7 for the *optimal* acyclic ratio on
		// every instance. The ω-word heuristics carry that guarantee only
		// on tight homogeneous instances; on heterogeneous draws the
		// theorem-word series may dip lower (the paper's "significant gap
		// for smaller instances" around the red lines of Figure 19).
		if c.OptAcyclic.Min < core.WorstCaseRatio-1e-9 {
			t.Errorf("%s p=%.1f n=%d: optimal acyclic min %v below 5/7", c.Dist, c.P, c.N, c.OptAcyclic.Min)
		}
		for _, s := range []struct {
			name string
			max  float64
		}{
			{"opt", c.OptAcyclic.Max},
			{"omega", c.BestOmega.Max},
			{"thm", c.TheoremWord.Max},
		} {
			if s.max > 1+1e-9 {
				t.Errorf("%s p=%.1f n=%d: %s max %v above 1", c.Dist, c.P, c.N, s.name, s.max)
			}
		}
		// Dominance: optimal acyclic ≥ best omega ≥ theorem word (means).
		if c.OptAcyclic.Mean < c.BestOmega.Mean-1e-9 {
			t.Errorf("%s p=%.1f n=%d: optimal acyclic mean below best-omega mean", c.Dist, c.P, c.N)
		}
		if c.BestOmega.Mean < c.TheoremWord.Mean-1e-9 {
			t.Errorf("%s p=%.1f n=%d: best-omega mean below theorem-word mean", c.Dist, c.P, c.N)
		}
	}
}

func TestAverageCaseDeterministic(t *testing.T) {
	cfg := AvgCaseConfig{
		Distributions: []distribution.Distribution{distribution.LN1()},
		OpenProbs:     []float64{0.7},
		Sizes:         []int{20},
		Reps:          20,
		Seed:          5,
	}
	a, err := AverageCase(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AverageCase(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a[0].OptAcyclic.Mean-b[0].OptAcyclic.Mean) > 1e-15 {
		t.Fatal("same seed produced different results")
	}
}

func TestAvgCaseCSV(t *testing.T) {
	cfg := AvgCaseConfig{
		Distributions: []distribution.Distribution{distribution.Unif100()},
		OpenProbs:     []float64{0.5},
		Sizes:         []int{10},
		Reps:          5,
		Seed:          1,
	}
	cells, err := AverageCase(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	csv := AvgCaseCSV(cells)
	if !strings.HasPrefix(csv, "dist,p,n,reps,") || !strings.Contains(csv, "Unif100,0.5,10,5,") {
		t.Fatalf("bad CSV:\n%s", csv)
	}
}

func TestWorstCaseReport(t *testing.T) {
	text, err := WorstCaseReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Theorem 6.2", "Theorem 6.3", "0.714"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestRatios(t *testing.T) {
	r, err := Ratios(generator.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.CyclicOpt-4.4) > 1e-9 || math.Abs(r.AcyclicOpt-4) > 1e-9 {
		t.Fatalf("Figure 1 ratios wrong: %+v", r)
	}
	if math.Abs(r.Ratio-4/4.4) > 1e-9 {
		t.Fatalf("ratio = %v", r.Ratio)
	}
}
