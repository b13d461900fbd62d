package core

import (
	"fmt"
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
	if v, _ := rr.Scheme.Certify(rr.T, tol(rr.T)/rr.T, nil); math.Float64bits(v) != math.Float64bits(rr.Verified) {
		t.Fatalf("reported Verified %v, fresh Certify %v", rr.Verified, v)
	}
	// Verified is a float in-rate minimum: a sum of k rates errs by at
	// most (k−1)·2⁻⁵³ relative, so with k the largest in-degree it lies
	// within k·2⁻⁵² of the exact throughput.
	indeg, k := make([]int, ins.Total()), 0
	for _, e := range rr.Scheme.Edges() {
		indeg[e.To]++
		k = max(k, indeg[e.To])
	}
	if exact, _ := rr.Scheme.ThroughputExact().Float64(); math.Abs(rr.Verified-exact) > float64(k)*0x1p-52*exact {
		t.Fatalf("reported Verified %v, exact throughput %v", rr.Verified, exact)
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
		"arrive-open":    func(ins *platform.Instance) { ins.Add(platform.Open, 3.5) },
		"arrive-guarded": func(ins *platform.Instance) { ins.Add(platform.Guarded, 2.5) },
		"depart-open": func(ins *platform.Instance) {
			if ins.N() > 1 {
				ins.Remove(platform.Open, ins.N()-1)
			}
		},
		"depart-guarded": func(ins *platform.Instance) {
			if ins.M() > 0 {
				ins.Remove(platform.Guarded, 0)
			}
		},
		"rescale-up":     func(ins *platform.Instance) { ins.Rescale(platform.Open, 0, 2) },
		"rescale-down":   func(ins *platform.Instance) { ins.Rescale(platform.Open, 0, 0.5) },
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
				ins.Add(platform.Open, dist.Sample(trialRNG))
			case 1:
				ins.Add(platform.Guarded, dist.Sample(trialRNG))
			case 2:
				if ins.N() > 1 {
					ins.Remove(platform.Open, trialRNG.Intn(ins.N()))
				}
			case 3:
				if ins.M() > 0 {
					ins.Rescale(platform.Guarded, trialRNG.Intn(ins.M()), 0.25+2*trialRNG.Float64())
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
	if _, err := ins.Rescale(platform.Open, ins.N()-1, 1.05); err != nil {
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

// refRepairAcyclic is RepairAcyclic as it stood when it accepted its
// scheme by max-flow, |Throughput − best| ≤ tol(best), and its fallback
// reported Throughput. That code capped each Dinic run at best+2·tol;
// the cap moves no decision (a value at or above it is refused either
// way) and no passing value (the minimum target runs to exhaustion in
// both), so the uncapped evaluation stands in for it here.
func refRepairAcyclic(ins *platform.Instance, prev Word, ws *Workspace) (RepairResult, error) {
	ws = ws.ensure()
	full := func() (RepairResult, error) {
		T, scheme, w, err := SolveAcyclic(ins, ws)
		if err != nil {
			return RepairResult{}, err
		}
		return RepairResult{T: T, Scheme: scheme, Word: w, Verified: scheme.Throughput(ws), FellBack: true}, nil
	}
	if len(prev) == 0 || ins.Total() == 1 {
		return full()
	}
	w0 := AdaptWord(prev, ins.N(), ins.M())
	T0 := WordThroughput(ins, w0, ws)
	hi := OptimalCyclicThroughput(ins)
	best, bestWord := T0, w0
	if probed, ok := ws.probeWord(ins, hi); ok {
		bestWord = ws.keepWord(probed)
		best = claimAtTStar(ins, bestWord, hi, ws)
	} else if cand := T0 + 3*tol(T0); cand < hi {
		if probed, ok := ws.probeWord(ins, cand); ok {
			w := ws.keepWord(probed)
			if refined, word := searchLoop(ins, ws, cand, w, hi); word != nil && refined > best {
				best, bestWord = refined, word
			}
		}
	}
	built, scheme, err := BuildSchemeShaved(ins, bestWord, best, ws, BuildScheme)
	if err == nil {
		best = built
		if verified := scheme.Throughput(ws); math.Abs(verified-best) <= tol(best) {
			return RepairResult{T: best, Scheme: scheme, Word: cloneWord(bestWord), Verified: verified}, nil
		}
	}
	return full()
}

// rescaled is ins with k distinct receivers' bandwidths scaled by a
// factor in [0.8, 1.2): a near-miss at node-multiset edit distance k.
func rescaled(rng *rand.Rand, ins *platform.Instance, k int) *platform.Instance {
	open := append([]float64(nil), ins.OpenBW...)
	guarded := append([]float64(nil), ins.GuardedBW...)
	for _, j := range rng.Perm(len(open) + len(guarded))[:k] {
		f := 0.8 + 0.4*rng.Float64()
		if j < len(open) {
			open[j] *= f
		} else {
			guarded[j-len(open)] *= f
		}
	}
	return platform.MustInstance(ins.B0, open, guarded)
}

// TestRepairCertifyMatchesDinicAcceptance: over 4,000 warm repairs
// (every law, 4–300 receivers, a solved base's word repaired onto 1–3
// rescales of it), the cut check accepts and falls back exactly where
// the max-flow check did, with the same T, word and scheme to the bit,
// and its value within 1e-14·T of the max-flow one.
func TestRepairCertifyMatchesDinicAcceptance(t *testing.T) {
	events := 4000
	if testing.Short() {
		events = 600
	}
	const perBase = 5
	rng := rand.New(rand.NewSource(28))
	laws := distribution.All()
	ws, refWS := NewWorkspace(), NewWorkspace()
	fellBack, worst := 0, 0.0
	for k := 0; k < events; k += perBase {
		law := laws[(k/perBase)%len(laws)]
		base, err := generator.Random(law, 4+rng.Intn(297), 0.1+0.8*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		_, word, err := OptimalAcyclicThroughput(base, ws)
		if err != nil {
			t.Fatal(err)
		}
		for e := k; e < k+perBase; e++ {
			ins := rescaled(rng, base, 1+rng.Intn(3))
			got, err := RepairAcyclic(ins, word, ws)
			want, refErr := refRepairAcyclic(ins, word, refWS)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("event %d (%s, n=%d m=%d): error %v, reference %v", e, law.Name(), ins.N(), ins.M(), err, refErr)
			}
			if err != nil {
				continue
			}
			what := fmt.Sprintf("event %d (%s, n=%d m=%d)", e, law.Name(), ins.N(), ins.M())
			if got.FellBack != want.FellBack || math.Float64bits(got.T) != math.Float64bits(want.T) ||
				got.Word.String() != want.Word.String() {
				t.Fatalf("%s: fell back %v, T %v, word %s; reference %v, %v, %s",
					what, got.FellBack, got.T, got.Word, want.FellBack, want.T, want.Word)
			}
			sameArcs(t, what, got.Scheme, want.Scheme)
			if got.FellBack {
				fellBack++
			}
			worst = max(worst, math.Abs(got.Verified-want.Verified)/want.T)
		}
	}
	if worst > 1e-14 {
		t.Errorf("certified and max-flow values differ by %g·T", worst)
	}
	t.Logf("%d events, %d fell back, |Dinic − cut| ≤ %.2g·T", events, fellBack, worst)
}
