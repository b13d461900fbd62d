package generator

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bedibe"
	"repro/internal/distribution"
	"repro/internal/platform"
)

// TestLargeScaleInvariants100k is the scaling-axis property test: a
// 100k-node draw must satisfy every platform.Instance invariant, its
// prefix-sum caches must be bit-identical to the left-to-right summation
// they replace, and the draw must be byte-reproducible per seed.
func TestLargeScaleInvariants100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node draw in -short mode")
	}
	cfg := LargeScaleConfig{Nodes: 100_000, POpen: 0.7, Seed: 42}
	ins, err := LargeScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ins.N() + ins.M(); got != cfg.Nodes {
		t.Fatalf("drew %d receivers, want %d", got, cfg.Nodes)
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	assertPrefixCachesBitIdentical(t, ins)

	// Tightness: T* = b0, the difficult regime of the average-case study.
	if tstar := cyclicOpt(ins.B0, ins.SumOpen(), ins.SumGuarded(), ins.N(), ins.M()); !almostEq(tstar, ins.B0) {
		t.Fatalf("T* = %v, want b0 = %v", tstar, ins.B0)
	}

	// Byte-reproducibility: the same config yields the same instance,
	// byte for byte, through the canonical JSON encoding.
	again, err := LargeScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, ins, again)

	// A different seed yields a different instance (sanity that the seed
	// actually flows into the draw).
	other, err := LargeScale(LargeScaleConfig{Nodes: cfg.Nodes, POpen: cfg.POpen, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if other.B0 == ins.B0 && other.N() == ins.N() {
		t.Error("seed 42 and 43 drew identical-looking instances")
	}
}

// TestLargeScaleDistributions exercises every heavy-tailed law at a
// smaller size so the full matrix stays fast.
func TestLargeScaleDistributions(t *testing.T) {
	for _, dist := range []distribution.Distribution{
		distribution.Power1(), distribution.Power2(),
		distribution.LN1(), distribution.LN2(), distribution.PlanetLab(),
	} {
		ins, err := LargeScale(LargeScaleConfig{Nodes: 10_000, POpen: 0.7, Dist: dist, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", dist.Name(), err)
		}
		if err := ins.Validate(); err != nil {
			t.Fatalf("%s: %v", dist.Name(), err)
		}
		assertPrefixCachesBitIdentical(t, ins)
	}
}

func TestLargeScaleErrors(t *testing.T) {
	if _, err := LargeScale(LargeScaleConfig{Nodes: 1}); err == nil {
		t.Error("expected error for Nodes < 2")
	}
	if _, err := LargeScale(LargeScaleConfig{Nodes: 10, POpen: 1.5}); err == nil {
		t.Error("expected error for POpen out of range")
	}
}

// TestFromMeasurements drives the trace-driven mode end to end: fit a
// synthetic measurement campaign, build an instance per measured node,
// then bootstrap-resample it up to 10k nodes.
func TestFromMeasurements(t *testing.T) {
	_, m := bedibe.Synthesize(bedibe.SynthConfig{N: 40, NoiseStd: 0.1, ObserveP: 0.8, Seed: 11})

	ins, err := FromMeasurements(m, TraceDrivenConfig{POpen: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := ins.N() + ins.M(); got != 40 {
		t.Fatalf("per-node mode drew %d receivers, want 40", got)
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}

	big, err := FromMeasurements(m, TraceDrivenConfig{Nodes: 10_000, POpen: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := big.N() + big.M(); got != 10_000 {
		t.Fatalf("resampled mode drew %d receivers, want 10000", got)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	assertPrefixCachesBitIdentical(t, big)

	// Reproducibility per seed, in both modes.
	again, err := FromMeasurements(m, TraceDrivenConfig{Nodes: 10_000, POpen: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, big, again)

	// The resampled bandwidths come from the fitted capacities only.
	support := make(map[float64]bool, len(m.BW))
	params, err := bedibe.FitLastMile(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range params.Out {
		support[v] = true
	}
	for _, v := range big.OpenBW {
		if !support[v] {
			t.Fatalf("resampled bandwidth %v not among fitted capacities", v)
		}
	}
}

func TestFromMeasurementsErrors(t *testing.T) {
	if _, err := FromMeasurements(nil, TraceDrivenConfig{}); err == nil {
		t.Error("expected error for nil measurements")
	}
	_, m := bedibe.Synthesize(bedibe.SynthConfig{N: 5, Seed: 1})
	if _, err := FromMeasurements(m, TraceDrivenConfig{Nodes: 1}); err == nil {
		t.Error("expected error for Nodes = 1")
	}
	if _, err := FromMeasurements(m, TraceDrivenConfig{POpen: -0.1}); err == nil {
		t.Error("expected error for POpen out of range")
	}
}

// assertPrefixCachesBitIdentical re-accumulates the prefix sums left to
// right — the exact order NewInstance uses — and checks every cached
// entry is bit-identical to the summation it replaces (float addition is
// order-sensitive, so == here is the real invariant, not almostEq).
func assertPrefixCachesBitIdentical(t *testing.T, ins *platform.Instance) {
	t.Helper()
	src, openSum := ins.B0, 0.0
	for k := 0; k <= ins.N(); k++ {
		if got := ins.OpenPrefix(k); got != src {
			t.Fatalf("OpenPrefix(%d) = %v, summation gives %v", k, got, src)
		}
		if k < ins.N() {
			src += ins.OpenBW[k]
			openSum += ins.OpenBW[k]
		}
	}
	if got := ins.SumOpen(); got != openSum {
		t.Fatalf("SumOpen = %v, summation gives %v", got, openSum)
	}
	gsum := 0.0
	for k := 0; k <= ins.M(); k++ {
		if got := ins.GuardedPrefix(k); got != gsum {
			t.Fatalf("GuardedPrefix(%d) = %v, summation gives %v", k, got, gsum)
		}
		if k < ins.M() {
			gsum += ins.GuardedBW[k]
		}
	}
	if got := ins.SumGuarded(); got != gsum {
		t.Fatalf("SumGuarded = %v, summation gives %v", got, gsum)
	}
}

// assertSameBytes compares two instances through their canonical JSON
// encoding.
func assertSameBytes(t *testing.T, a, b *platform.Instance) {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("same seed produced different instance bytes")
	}
}
