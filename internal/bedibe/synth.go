package bedibe

import (
	"math"
	"math/rand"

	"repro/internal/distribution"
)

// SynthConfig drives synthetic measurement-campaign generation for
// estimator validation: a ground-truth LastMile network is drawn, then
// observed through multiplicative noise and partial sampling — the shape
// of a real PlanetLab-style campaign.
type SynthConfig struct {
	N        int     // number of nodes
	NoiseStd float64 // multiplicative log-normal-ish noise (0 = exact)
	ObserveP float64 // probability a pair is measured (1 = full matrix)
	Seed     int64
}

// inOverOut is the synthetic nodes' download/upload asymmetry: incoming
// capacity is inOverOut × a fresh draw (ADSL-style).
const inOverOut = 4

// Synthesize draws ground-truth parameters from distribution.PlanetLab()
// and the noisy partial measurement matrix they induce.
func Synthesize(cfg SynthConfig) (truth *LastMileParams, m *Measurements) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dist := distribution.PlanetLab()
	if cfg.ObserveP <= 0 || cfg.ObserveP > 1 {
		cfg.ObserveP = 1
	}
	truth = &LastMileParams{Out: make([]float64, cfg.N), In: make([]float64, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		truth.Out[i] = dist.Sample(rng)
		truth.In[i] = inOverOut * dist.Sample(rng)
	}
	bw := make([][]float64, cfg.N)
	for i := range bw {
		bw[i] = make([]float64, cfg.N)
		for j := range bw[i] {
			if i == j {
				continue
			}
			if rng.Float64() >= cfg.ObserveP {
				bw[i][j] = Missing
				continue
			}
			v := truth.Predict(i, j)
			if cfg.NoiseStd > 0 {
				v *= math.Exp(cfg.NoiseStd * rng.NormFloat64())
			}
			bw[i][j] = v
		}
	}
	m = &Measurements{BW: bw}
	return truth, m
}
