package generator

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bedibe"
	"repro/internal/distribution"
	"repro/internal/platform"
)

// LargeScaleConfig seeds a large-n heterogeneous draw. Equal configs
// generate bit-identical instances: the only randomness source is the
// seeded generator, and the draw order is fixed, so the scaling
// benchmarks and the loadgen traces built on top are reproducible from
// the config alone.
type LargeScaleConfig struct {
	// Nodes is the receiver count (the scaling studies use 10k–100k);
	// must be ≥ 2.
	Nodes int
	// POpen is the per-node probability of being open (in [0, 1]).
	POpen float64
	// Dist is the bandwidth law; nil means Power2, the paper's
	// high-heterogeneity Pareto scenario (mean 100, sd 1000) — the
	// heavy tail is what makes large platforms interesting, a few
	// server-class nodes carrying most of the capacity.
	Dist distribution.Distribution
	// Seed seeds the draw.
	Seed int64
}

// LargeScale draws a seeded large-n heterogeneous instance: Random on
// the config's law and seed, sized for the 10k–100k-node scaling axis,
// with the source bandwidth set by TightSourceBandwidth so T* = b0, the
// same "difficult instances" regime as the paper's average-case study.
func LargeScale(cfg LargeScaleConfig) (*platform.Instance, error) {
	dist := cfg.Dist
	if dist == nil {
		dist = distribution.Power2()
	}
	return Random(dist, cfg.Nodes, cfg.POpen, rand.New(rand.NewSource(cfg.Seed)))
}

// TraceDrivenConfig configures FromMeasurements.
type TraceDrivenConfig struct {
	// FitRounds is the number of coordinate-descent rounds of the
	// LastMile fit; ≤ 0 means 3 (enough in practice, see bedibe).
	FitRounds int
	// Nodes is the receiver count of the built instance. 0 keeps one
	// receiver per measured node (using its own fitted capacity);
	// a positive value bootstrap-resamples that many receivers from the
	// fitted capacities, scaling a small measured campaign (PlanetLab
	// matrices are tens of nodes) up to the 100k-node axis while
	// preserving the measured bandwidth profile.
	Nodes int
	// POpen is the per-node probability of being open.
	POpen float64
	// Seed seeds the open/guarded classification (and the resampling
	// when Nodes > 0).
	Seed int64
}

// FromMeasurements builds a broadcast instance from a measured pairwise
// bandwidth matrix instead of a synthetic law: it fits the LastMile
// model to the campaign (bedibe.FitLastMile) and uses the fitted
// per-node outgoing capacities as receiver bandwidths — the trace-driven
// twin of LargeScale. The source bandwidth is set tight, the same
// regime as the synthetic draws, so synthetic and trace-driven scaling
// runs are directly comparable.
func FromMeasurements(m *bedibe.Measurements, cfg TraceDrivenConfig) (*platform.Instance, error) {
	if m == nil || m.N() == 0 {
		return nil, errors.New("generator: FromMeasurements needs a non-empty measurement matrix")
	}
	if cfg.POpen < 0 || cfg.POpen > 1 {
		return nil, fmt.Errorf("generator: open probability %v out of [0,1]", cfg.POpen)
	}
	rounds := cfg.FitRounds
	if rounds <= 0 {
		rounds = 3
	}
	params, err := bedibe.FitLastMile(m, rounds)
	if err != nil {
		return nil, fmt.Errorf("generator: fitting LastMile model: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Nodes > 0 {
		return Random(distribution.Empirical{Values: params.Out, Label: "trace"}, cfg.Nodes, cfg.POpen, rng)
	}
	if m.N() < 2 {
		return nil, errors.New("generator: FromMeasurements needs ≥ 2 measured nodes")
	}
	// One receiver per measured node, keeping its own fitted capacity;
	// only the open/guarded classification is drawn.
	open := make([]float64, 0, m.N())
	guarded := make([]float64, 0, m.N())
	for _, bw := range params.Out {
		if rng.Float64() < cfg.POpen {
			open = append(open, bw)
		} else {
			guarded = append(guarded, bw)
		}
	}
	return tightInstance(open, guarded)
}
