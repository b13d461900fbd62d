package bedibe

import (
	"math"
	"testing"
)

func TestNewMeasurementsValidation(t *testing.T) {
	if _, err := NewMeasurements(nil); err == nil {
		t.Error("expected error for empty matrix")
	}
	if _, err := NewMeasurements([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("expected error for ragged matrix")
	}
	if _, err := NewMeasurements([][]float64{{0, -2}, {1, 0}}); err == nil {
		t.Error("expected error for negative non-Missing entry")
	}
	if _, err := NewMeasurements([][]float64{{0, Missing}, {1, 0}}); err != nil {
		t.Errorf("Missing must be accepted: %v", err)
	}
}

func TestFitLastMileExactRecovery(t *testing.T) {
	// Noise-free, fully observed: coordinate descent must reproduce
	// every measurement exactly (the model is realizable).
	truth, m := Synthesize(SynthConfig{N: 30, Seed: 1})
	p, err := FitLastMile(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if i == j {
				continue
			}
			if got, want := p.Predict(i, j), truth.Predict(i, j); math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("pair (%d,%d): predict %v, truth %v", i, j, got, want)
			}
		}
	}
	if e := FitError(m, p.Predict, 1e-6); e > 1e-9 {
		t.Fatalf("fit error %v on noise-free data", e)
	}
}

func TestFitLastMileNoisyPartial(t *testing.T) {
	// 20% log-noise, 60% of pairs observed: the estimator should land
	// within ~the noise level on the observed entries and generalize to
	// the unobserved ones.
	truth, m := Synthesize(SynthConfig{N: 40, NoiseStd: 0.2, ObserveP: 0.6, Seed: 2})
	p, err := FitLastMile(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e := FitError(m, p.Predict, 1e-6); e > 0.3 {
		t.Fatalf("observed-entry error %v, want ≲ noise level", e)
	}
	// Generalization: error against the noise-free truth on ALL pairs.
	sum, cnt := 0.0, 0
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if i == j {
				continue
			}
			want := truth.Predict(i, j)
			sum += math.Abs(p.Predict(i, j)-want) / math.Max(want, 1e-6)
			cnt++
		}
	}
	if gen := sum / float64(cnt); gen > 0.3 {
		t.Fatalf("generalization error %v", gen)
	}
}

func TestFitLastMileNoObservations(t *testing.T) {
	m := &Measurements{BW: [][]float64{{0, Missing}, {Missing, 0}}}
	if _, err := FitLastMile(m, 3); err == nil {
		t.Fatal("expected error with no observations")
	}
}

func TestBestCapPiecewise(t *testing.T) {
	// One observation min(x, 10) ≈ 4 → any x ≥ 4 with min(x,10)=x...
	// f(x) = |min(x,10) − 4| minimized at x = 4 (f = 0).
	if got := bestCap([]obs{{other: 10, target: 4}}); got != 4 {
		t.Fatalf("bestCap = %v, want 4", got)
	}
	// Saturated observation: min(x, 3) ≈ 3 → any x ≥ 3 is optimal; the
	// tie-break keeps the largest candidate.
	if got := bestCap([]obs{{other: 3, target: 3}}); got != 3 {
		t.Fatalf("bestCap = %v, want 3 (largest optimal candidate)", got)
	}
	if got := bestCap(nil); got != 0 {
		t.Fatalf("bestCap(nil) = %v", got)
	}
}

func TestFitDMFLowRankRecovery(t *testing.T) {
	// A genuinely rank-2 positive matrix must be recovered by rank-2 ALS.
	n := 20
	u := make([][]float64, n)
	v := make([][]float64, n)
	for i := 0; i < n; i++ {
		u[i] = []float64{1 + float64(i%5), 2 + float64(i%3)}
		v[i] = []float64{1.5 + float64(i%4), 0.5 + float64(i%6)}
	}
	bw := make([][]float64, n)
	for i := range bw {
		bw[i] = make([]float64, n)
		for j := range bw[i] {
			if i != j {
				bw[i][j] = u[i][0]*v[j][0] + u[i][1]*v[j][1]
			}
		}
	}
	m, err := NewMeasurements(bw)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FitDMF(m, 2, 30, 1e-6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := FitError(m, p.Predict, 1e-6); e > 0.01 {
		t.Fatalf("rank-2 matrix not recovered: error %v", e)
	}
}

func TestFitDMFValidation(t *testing.T) {
	_, m := Synthesize(SynthConfig{N: 5, Seed: 4})
	if _, err := FitDMF(m, 0, 5, 1e-3, 1); err == nil {
		t.Error("expected error for rank 0")
	}
	if _, err := FitDMF(m, 6, 5, 1e-3, 1); err == nil {
		t.Error("expected error for rank > n")
	}
}

// TestLastMileBeatsDMFOnLastMileData reproduces the reference [14]
// finding the paper's positioning rests on: on data generated by a
// last-mile network, the 2n-parameter LastMile fit predicts at least as
// well as a rank-3 (6n-parameter) matrix factorization.
func TestLastMileBeatsDMFOnLastMileData(t *testing.T) {
	_, m := Synthesize(SynthConfig{N: 40, NoiseStd: 0.1, ObserveP: 0.8, Seed: 5})
	lm, err := FitLastMile(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	dmf, err := FitDMF(m, 3, 25, 1e-3, 6)
	if err != nil {
		t.Fatal(err)
	}
	lmErr := FitError(m, lm.Predict, 1e-6)
	dmfErr := FitError(m, dmf.Predict, 1e-6)
	t.Logf("observed-entry mean relative error: LastMile %.4f, DMF(rank 3) %.4f", lmErr, dmfErr)
	if lmErr > dmfErr*1.05 {
		t.Fatalf("LastMile (%.4f) should not lose to DMF (%.4f) on last-mile data", lmErr, dmfErr)
	}
}

func TestFitErrorEmpty(t *testing.T) {
	m := &Measurements{BW: [][]float64{{0, Missing}, {Missing, 0}}}
	if e := FitError(m, func(i, j int) float64 { return 1 }, 1); e != 0 {
		t.Fatalf("FitError on empty observations = %v", e)
	}
}
