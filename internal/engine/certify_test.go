package engine_test

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/platform"
	"repro/internal/wire"
)

// TestColdToleranceFixturesCertify solves three cold-benchmark requests
// (acyclic, tolerance 1e-9) whose schemes reach claimed·(1−tol) in
// exact arithmetic but fall short of it under float max-flow. Each must
// return a plan.
func TestColdToleranceFixturesCertify(t *testing.T) {
	for _, name := range []string{
		"cold_seed1_op234.json",    // 335 receivers
		"cold_seed101_op2059.json", // 523 receivers
		"cold_seed102_op974.json",  // 376 receivers
	} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			req, err := wire.DecodeRequest(data)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := engine.Execute(context.Background(), req)
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			thr := plan.Throughput * (1 - req.Tolerance)
			if dinic := plan.Scheme.Throughput(); !(dinic < thr) {
				t.Fatalf("float max-flow %v meets the threshold %v: the fixture no longer tests the exact path", dinic, thr)
			}
			exactThr := new(big.Rat).Sub(big.NewRat(1, 1), new(big.Rat).SetFloat64(req.Tolerance))
			exactThr.Mul(exactThr, new(big.Rat).SetFloat64(plan.Throughput))
			if plan.Scheme.ThroughputExact().Cmp(exactThr) < 0 {
				t.Fatal("exact throughput is below the threshold, yet the plan was served")
			}
			if plan.Verified <= 0 || plan.Verified > plan.Throughput {
				t.Fatalf("Verified = %v, claimed %v", plan.Verified, plan.Throughput)
			}
		})
	}
}

// TestAcyclicShortfallWithinTwoEps bounds how far an acyclic plan may
// carry less than it claims. core.BuildSchemeWithWorkspace's draw stops
// once a receiver's unmet need is at most core.Eps·T, so a receiver can
// be left that much short, and summation rounding adds a few ulps.
// Cold seed 63's op 982 (539 PlanetLab receivers, tolerance 1e-9) is
// refused with a 422 for exactly that: its exact in-rate minimum is
// 1.0000002·10⁻⁹ short of the claim, relative. Certify at 2·core.Eps must pass on
// that request and on every plan of generated cold-shaped instances,
// today and after the draw's residual is served or no longer claimed.
func TestAcyclicShortfallWithinTwoEps(t *testing.T) {
	certify := func(what string, ins *platform.Instance) {
		t.Helper()
		plan, err := engine.Execute(context.Background(), engine.NewRequest(ins, engine.WithSolver("acyclic")))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if _, ok := plan.Scheme.Certify(plan.Throughput, 2*core.Eps, nil); !ok {
			exact, _ := plan.Scheme.ThroughputExact().Float64()
			t.Fatalf("%s: claims %v, carries %v: short by %.3g relative, beyond 2·core.Eps",
				what, plan.Throughput, exact, 1-exact/plan.Throughput)
		}
	}
	data, err := os.ReadFile(filepath.Join("testdata", "cold_seed63_op982.json"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := wire.DecodeRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	certify("cold seed 63 op 982", req.Instance)

	// The cold workload's request shape: 50–800 receivers, log-uniform,
	// Unif100 or PlanetLab, open share in [0.2, 0.9].
	n := 300
	if testing.Short() {
		n = 40
	}
	rng := rand.New(rand.NewSource(63))
	laws := []distribution.Distribution{distribution.Unif100(), distribution.PlanetLab()}
	for i := 0; i < n; i++ {
		size := int(math.Round(math.Exp(math.Log(50) + rng.Float64()*math.Log(800.0/50))))
		ins, err := generator.Random(laws[rng.Intn(len(laws))], size, 0.2+0.7*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		certify("generated instance", ins)
	}
}

// TestToleranceChecksRepairResults: a warm-start repair result is held
// to the request's tolerance like a cold solve. A repair that claims
// more than its scheme carries is refused. One that passes reports
// Certify's value as Verified, not the value its own verify measured,
// so a repair that fell back serves the cold solve's document.
func TestToleranceChecksRepairResults(t *testing.T) {
	const tol = 1e-9
	ins := generator.Figure1()
	T, s, w, err := core.SolveAcyclicWordWithWorkspace(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	certified, ok := s.Certify(T, tol, nil)
	if !ok {
		t.Fatalf("the Figure 1 scheme fails its own claim %v", T)
	}
	// The stub repair's own verify reads one part in 10¹² low, as a
	// float max-flow can; Execute must not serve that value.
	ownVerify := T * (1 - 1e-12)
	for _, c := range []struct {
		name     string
		claim    float64
		fellBack bool
		wantErr  bool
	}{
		{"short of its claim", 1.01 * T, false, true},
		{"honest", T, false, false},
		{"fell back", T, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := engine.NewRegistry()
			solve := func(*platform.Instance, *core.Workspace) (engine.Result, error) {
				return engine.Result{Throughput: T, Scheme: s, Word: w}, nil
			}
			repair := func(*platform.Instance, core.Word, *core.Workspace) (core.RepairResult, error) {
				return core.RepairResult{T: c.claim, Scheme: s, Word: w, Verified: ownVerify, FellBack: c.fellBack}, nil
			}
			if err := reg.Register(engine.NewIncrementalSolver("stub", engine.CapBuildsScheme, solve, repair)); err != nil {
				t.Fatal(err)
			}
			plan, err := reg.Execute(context.Background(), engine.NewRequest(ins,
				engine.WithSolver("stub"), engine.WithWarmStart(w), engine.WithTolerance(tol)))
			if c.wantErr {
				if !errors.Is(err, engine.ErrInfeasible) {
					t.Fatalf("err = %v, want ErrInfeasible", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if plan.Repaired == c.fellBack || plan.Verified != certified {
				t.Fatalf("Repaired = %v, Verified = %v; want Repaired = %v, Certify's %v",
					plan.Repaired, plan.Verified, !c.fellBack, certified)
			}
			if !c.fellBack {
				return
			}
			cold, err := reg.Execute(context.Background(), engine.NewRequest(ins,
				engine.WithSolver("stub"), engine.WithTolerance(tol)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := wire.EncodePlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wire.EncodePlan(cold)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("fallback document differs from the cold solve's:\n got %s\nwant %s", got, want)
			}
		})
	}
}
