package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

func TestAdaptWordShapes(t *testing.T) {
	prev, _ := ParseWord("ogoog")
	cases := []struct {
		n, m int
		want string
	}{
		{3, 2, "ogoog"}, // unchanged
		{2, 2, "ogog"},  // one open trimmed from the tail
		{3, 1, "ogoo"},  // one guarded trimmed
		{4, 3, "ogoogog"},
		{0, 0, ""},
		{2, 0, "oo"},
	}
	for _, c := range cases {
		got := AdaptWord(prev, c.n, c.m)
		want, _ := ParseWord(c.want)
		if got.String() != want.String() {
			t.Errorf("AdaptWord(%s, %d, %d) = %s, want %s", prev, c.n, c.m, got, want)
		}
		if got.CountOpen() != c.n || got.CountGuarded() != c.m {
			t.Errorf("AdaptWord(%s, %d, %d) has wrong shape %d/%d", prev, c.n, c.m, got.CountOpen(), got.CountGuarded())
		}
	}
	if w := AdaptWord(nil, 2, 1); w.CountOpen() != 2 || w.CountGuarded() != 1 {
		t.Errorf("AdaptWord(nil, 2, 1) = %s", w)
	}
}

// repairAgrees mutates ins with mutate, then checks that the warm
// repair from the pre-churn word and a cold full solve land on the
// same verified throughput.
func repairAgrees(t *testing.T, ins *platform.Instance, mutate func(*platform.Instance)) {
	t.Helper()
	ws := NewWorkspace()
	_, prevWord, err := OptimalAcyclicThroughput(ins, ws)
	if err != nil {
		t.Fatalf("pre-churn solve: %v", err)
	}
	mutate(ins)
	rr, err := RepairAcyclic(ins, prevWord, ws)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	fullT, fullS, _, err := SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatalf("full re-solve: %v", err)
	}
	scale := math.Max(1, fullT)
	if math.Abs(rr.T-fullT) > 1e-9*scale {
		t.Fatalf("repair T = %v, full re-solve T = %v (Δ = %g)", rr.T, fullT, rr.T-fullT)
	}
	if err := rr.Scheme.Validate(); err != nil {
		t.Fatalf("repaired scheme invalid: %v", err)
	}
	if v := rr.Scheme.Throughput(nil); v != rr.Verified {
		t.Fatalf("reported Verified %v, fresh verification %v", rr.Verified, v)
	}
	if math.Abs(rr.Verified-rr.T) > tol(rr.T) {
		t.Fatalf("repaired scheme verifies at %v, claimed %v", rr.Verified, rr.T)
	}
	if v := fullS.Throughput(nil); math.Abs(v-rr.T) > 1e-9*scale {
		t.Fatalf("verified throughputs disagree: repair %v vs full %v", rr.Verified, v)
	}
	if err := rr.Word.Validate(ins); err != nil {
		t.Fatalf("returned word invalid: %v", err)
	}
}

func TestRepairAfterSingleEvents(t *testing.T) {
	mutations := map[string]func(*platform.Instance){
		"arrive-open":    func(ins *platform.Instance) { ins.AddOpen(3.5) },
		"arrive-guarded": func(ins *platform.Instance) { ins.AddGuarded(2.5) },
		"depart-open": func(ins *platform.Instance) {
			if ins.N() > 1 {
				ins.RemoveOpen(ins.N() - 1)
			}
		},
		"depart-guarded": func(ins *platform.Instance) {
			if ins.M() > 0 {
				ins.RemoveGuarded(0)
			}
		},
		"rescale-up":     func(ins *platform.Instance) { ins.RescaleOpen(0, 2) },
		"rescale-down":   func(ins *platform.Instance) { ins.RescaleOpen(0, 0.5) },
		"rescale-source": func(ins *platform.Instance) { ins.SetSourceBandwidth(ins.B0 * 0.8) },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			repairAgrees(t, generator.Figure1(), mutate)
		})
	}
}

func TestRepairMatchesFullSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dist := distribution.All()[0]
	for trial := 0; trial < 60; trial++ {
		ins, err := generator.Random(dist, 12+rng.Intn(14), 0.3+0.6*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		trialRNG := rand.New(rand.NewSource(int64(trial)))
		repairAgrees(t, ins, func(ins *platform.Instance) {
			switch trialRNG.Intn(4) {
			case 0:
				ins.AddOpen(dist.Sample(trialRNG))
			case 1:
				ins.AddGuarded(dist.Sample(trialRNG))
			case 2:
				if ins.N() > 1 {
					ins.RemoveOpen(trialRNG.Intn(ins.N()))
				}
			case 3:
				if ins.M() > 0 {
					ins.RescaleGuarded(trialRNG.Intn(ins.M()), 0.25+2*trialRNG.Float64())
				}
			}
		})
	}
}

// TestRepairNilPrevFallsBack checks the degenerate entry: no previous
// word means a full solve, flagged as such.
func TestRepairNilPrevFallsBack(t *testing.T) {
	ins := generator.Figure1()
	rr, err := RepairAcyclic(ins, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FellBack {
		t.Fatal("repair with no previous word should report FellBack")
	}
	fullT, _, _, err := SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rr.T-fullT) > 1e-9 {
		t.Fatalf("T = %v, want %v", rr.T, fullT)
	}
	if rr.Scheme == nil || rr.Word.Validate(ins) != nil {
		t.Fatalf("missing scheme or invalid word %s", rr.Word)
	}
	if math.Abs(rr.Verified-rr.T) > tol(rr.T) {
		t.Fatalf("fallback result not verified: %v vs %v", rr.Verified, rr.T)
	}
}

// TestRepairCheaperThanFullSolve asserts the point of the warm start:
// after a small rescale, repair spends materially fewer Algorithm 2
// probes than the from-scratch search.
func TestRepairCheaperThanFullSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ins, err := generator.Random(distribution.All()[0], 40, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	_, word, err := OptimalAcyclicThroughput(ins, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.RescaleOpen(ins.N()-1, 1.05); err != nil {
		t.Fatal(err)
	}

	before := ws.Stats()
	if rr, err := RepairAcyclic(ins, word, ws); err != nil {
		t.Fatal(err)
	} else if rr.FellBack {
		t.Skip("repair fell back on this instance; probe-count comparison not meaningful")
	}
	repairProbes := ws.Stats().Sub(before).GreedyTests

	before = ws.Stats()
	if _, _, _, err := SolveAcyclic(ins, ws); err != nil {
		t.Fatal(err)
	}
	fullProbes := ws.Stats().Sub(before).GreedyTests

	if repairProbes >= fullProbes {
		t.Fatalf("repair used %d probes, full solve %d — warm start buys nothing", repairProbes, fullProbes)
	}
}
