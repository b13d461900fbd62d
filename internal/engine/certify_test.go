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

// TestColdToleranceFixturesCertify holds a request with a tolerance to
// Certify's exact decision. Its first case is a stub solver on a fresh
// registry that returns a hand-built acyclic scheme, like the rows of
// core's TestCertifyRoundingTable: its float max-flow falls short of
// claimed·(1−tol) while its exact throughput meets it, so Execute must
// serve it. The other three are cold-benchmark requests (acyclic,
// tolerance 1e-9) that the float check refused while long words were
// over-claimed; each must return a plan that meets its claim exactly.
func TestColdToleranceFixturesCertify(t *testing.T) {
	check := func(t *testing.T, reg *engine.Registry, req engine.Request, floatShort bool) {
		t.Helper()
		plan, err := reg.Execute(context.Background(), req)
		if err != nil {
			t.Fatalf("refused: %v", err)
		}
		thr := plan.Throughput * (1 - req.Tolerance)
		if dinic := plan.Scheme.Throughput(); floatShort && !(dinic < thr) {
			t.Fatalf("float max-flow %v meets the threshold %v: the case no longer tests the exact path", dinic, thr)
		}
		exactThr := new(big.Rat).Sub(big.NewRat(1, 1), new(big.Rat).SetFloat64(req.Tolerance))
		exactThr.Mul(exactThr, new(big.Rat).SetFloat64(plan.Throughput))
		if plan.Scheme.ThroughputExact().Cmp(exactThr) < 0 {
			t.Fatal("exact throughput is below the threshold, yet the plan was served")
		}
		if plan.Verified <= 0 || plan.Verified > plan.Throughput {
			t.Fatalf("Verified = %v, claimed %v", plan.Verified, plan.Throughput)
		}
	}

	t.Run("float short, exact met", func(t *testing.T) {
		// Receiver 1 hears 2^53 from the source and 1 from each of the
		// open receivers 2 and 3, which the source feeds at the claim.
		// The rates sum exactly to the claim 2^53+2, but max-flow adds
		// the direct 2^53 first and each 1 then rounds away (ties to
		// even). A tolerance of 2^-60 leaves claimed·(1−tol) equal to
		// the claim in floats and puts it just below it exactly.
		const big53 = 1 << 53
		claimed := float64(big53 + 2)
		ins := platform.MustInstance(big53+2*claimed, []float64{0, 1, 1}, nil)
		s := core.NewScheme(ins)
		s.Add(0, 1, big53)
		for v := 2; v <= 3; v++ {
			s.Add(0, v, claimed)
			s.Add(v, 1, 1)
		}
		reg := engine.NewRegistry()
		solve := func(*platform.Instance, *core.Workspace) (engine.Result, error) {
			return engine.Result{Throughput: claimed, Scheme: s}, nil
		}
		if err := reg.Register(engine.NewSolver("stub", engine.CapBuildsScheme, solve)); err != nil {
			t.Fatal(err)
		}
		check(t, reg, engine.NewRequest(ins, engine.WithSolver("stub"), engine.WithTolerance(0x1p-60)), true)
	})
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
			check(t, engine.Default, req, false)
		})
	}
}

// TestAcyclicShortfallWithinTwoEps bounds how far an acyclic plan may
// carry less than it claims. A claim is the larger of the winning
// word's exact optimum and the search's feasible bound, which GreedyTest
// accepts with the tol slack, so it may sit up to core.Eps·T above what
// the word carries; core.BuildSchemeWithWorkspace's draw stops once a
// receiver's unmet need is at most core.Eps·T, so the build accepts that
// much. Summation rounding adds a few ulps.
//
// Cold seed 63's op 982 (539 PlanetLab receivers, tolerance 1e-9) was
// refused with a 422 while words of more than 300 letters were bisected:
// the bisection claimed 1.86·10⁻¹² above the word's exact optimum, the
// build spread that excess over the ~538 receivers of one Lemma 4.4
// prefix constraint, and one receiver ended up about 1.0·10⁻⁹ short —
// which the draw's stop accepted. Evaluated exactly, the word claims
// what it carries; the request must be served at its own tolerance, and
// Certify at 2·core.Eps must pass on it and on every plan of generated
// cold-shaped instances.
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
	if _, err := engine.Execute(context.Background(), req); err != nil {
		t.Fatalf("cold seed 63 op 982 at its tolerance %g: %v", req.Tolerance, err)
	}

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
