package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

// churnSequence returns an instance and a list of mutations to replay
// against it, all deterministic under seed.
func churnSequence(t testing.TB, seed int64, events int) (*platform.Instance, []func(*platform.Instance)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dist := distribution.All()[0]
	ins, err := generator.Random(dist, 14+rng.Intn(10), 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	muts := make([]func(*platform.Instance), events)
	for i := range muts {
		op := rng.Intn(4)
		bw := dist.Sample(rng)
		factor := 0.3 + 2.4*rng.Float64()
		pick := rng.Int63()
		muts[i] = func(ins *platform.Instance) {
			switch op {
			case 0:
				ins.Add(platform.Open, bw)
			case 1:
				ins.Add(platform.Guarded, bw)
			case 2:
				if ins.N() > 1 {
					ins.Remove(platform.Open, int(pick)%ins.N())
				} else if ins.M() > 0 {
					ins.Remove(platform.Guarded, int(pick)%ins.M())
				}
			case 3:
				if ins.M() > 0 {
					ins.Rescale(platform.Guarded, int(pick)%ins.M(), factor)
				} else {
					ins.Rescale(platform.Open, int(pick)%ins.N(), factor)
				}
			}
		}
	}
	return ins, muts
}

func TestSessionRepairMatchesIsolatedSolve(t *testing.T) {
	ctx := context.Background()
	solver, err := Get("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := NewSession("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	ins, muts := churnSequence(t, 3, 25)
	for i := -1; i < len(muts); i++ {
		if i >= 0 {
			muts[i](ins)
		}
		got, err := ses.Resolve(ctx, ins)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		want, err := SolveIsolated(ctx, solver, ins)
		if err != nil {
			t.Fatalf("event %d isolated: %v", i, err)
		}
		scale := math.Max(1, want.Throughput)
		if math.Abs(got.Throughput-want.Throughput) > 1e-9*scale {
			t.Fatalf("event %d: session T = %v, isolated T = %v", i, got.Throughput, want.Throughput)
		}
		if got.Scheme == nil {
			t.Fatalf("event %d: session returned no scheme", i)
		}
		if err := got.Scheme.Validate(); err != nil {
			t.Fatalf("event %d: invalid scheme: %v", i, err)
		}
	}
	st := ses.Stats()
	if st.Events != len(muts)+1 {
		t.Fatalf("Events = %d, want %d", st.Events, len(muts)+1)
	}
	if st.Events != st.Repairs+st.FullSolves {
		t.Fatalf("counter mismatch: %+v", st)
	}
	if st.Repairs == 0 {
		t.Fatalf("no event used the repair path: %+v", st)
	}
}

func TestSessionRepairDisabled(t *testing.T) {
	ctx := context.Background()
	ses, err := NewSession("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	ses.SetRepair(false)

	ins, muts := churnSequence(t, 9, 5)
	for i := -1; i < len(muts); i++ {
		if i >= 0 {
			muts[i](ins)
		}
		res, err := ses.Resolve(ctx, ins)
		if err != nil {
			t.Fatal(err)
		}
		if res.Repaired {
			t.Fatal("Repaired set with repair disabled")
		}
	}
	if st := ses.Stats(); st.Repairs != 0 || st.FullSolves != 6 {
		t.Fatalf("stats with repair disabled: %+v", st)
	}
}

// TestSessionRepairAccounting pins how a session books the resolves of
// an incremental solver: a warm start that held is a repair; one that
// fell back from a previous word is a fallback and a full solve; a
// resolve with no word to start from is a full solve only.
func TestSessionRepairAccounting(t *testing.T) {
	ins := generator.Figure1()
	for _, c := range []struct {
		repair       bool
		wantRepaired []bool
		want         SessionStats
	}{
		{true, []bool{false, true, false, true}, SessionStats{Events: 4, Repairs: 2, FullSolves: 2, Fallbacks: 1}},
		{false, []bool{false, false, false, false}, SessionStats{Events: 4, FullSolves: 4}},
	} {
		calls := 0
		repair := func(ins *platform.Instance, prev core.Word, ws *core.Workspace) (core.RepairResult, error) {
			calls++
			core.FeasibleAcyclic(ins, 1, ws) // one eval per call
			return core.RepairResult{T: 1, Word: core.Word{platform.Open}, Verified: 1,
				FellBack: len(prev) == 0 || calls == 3}, nil
		}
		solve := func(*platform.Instance, *core.Workspace) (Result, error) {
			t.Fatal("session resolved without the repair entry point")
			return Result{}, nil
		}
		r := NewRegistry()
		r.MustRegister(NewIncrementalSolver("stub", 0, solve, repair))
		ses, err := NewSessionFor(r, "stub")
		if err != nil {
			t.Fatal(err)
		}
		ses.SetRepair(c.repair)
		var sum core.WorkspaceStats
		for i, want := range c.wantRepaired {
			res, err := ses.Resolve(context.Background(), ins)
			if err != nil {
				t.Fatal(err)
			}
			if res.Repaired != want {
				t.Fatalf("repair=%v event %d: Repaired = %v, want %v", c.repair, i, res.Repaired, want)
			}
			sum = sum.Add(res.Evals)
		}
		st := ses.Stats()
		ses.Close()
		if st.Evals != sum || st.Evals.GreedyTests != 4 {
			t.Fatalf("repair=%v: session evals %+v, results sum to %+v, want 4 greedy tests", c.repair, st.Evals, sum)
		}
		st.Evals = core.WorkspaceStats{}
		if st != c.want {
			t.Fatalf("repair=%v: stats %+v, want %+v", c.repair, st, c.want)
		}
	}
}

func TestSessionNonIncrementalSolver(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"cyclic-bound", "greedy"} {
		ses, err := NewSession(name)
		if err != nil {
			t.Fatal(err)
		}
		ins, muts := churnSequence(t, 17, 4)
		for i := -1; i < len(muts); i++ {
			if i >= 0 {
				muts[i](ins)
			}
			res, err := ses.Resolve(ctx, ins)
			if err != nil {
				t.Fatalf("%s event %d: %v", name, i, err)
			}
			if res.Repaired {
				t.Fatalf("%s claims repair without CapIncremental", name)
			}
			if res.Solver != name {
				t.Fatalf("result stamped %q, want %q", res.Solver, name)
			}
		}
		if st := ses.Stats(); st.Repairs != 0 || st.Events != 5 {
			t.Fatalf("%s stats: %+v", name, st)
		}
		ses.Close()
	}
}

func TestSessionCancellationAndClose(t *testing.T) {
	base := LeasedWorkspaces()
	ses, err := NewSession("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	if got := LeasedWorkspaces(); got != base+1 {
		t.Fatalf("LeasedWorkspaces = %d after open, want %d", got, base+1)
	}
	ins := generator.Figure1()
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := ses.Resolve(ctx, ins); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := ses.Resolve(ctx, ins); err != context.Canceled {
		t.Fatalf("Resolve after cancel = %v, want context.Canceled", err)
	}
	// A cancelled session still releases its workspace on Close, and
	// closing twice is safe.
	ses.Close()
	ses.Close()
	if got := LeasedWorkspaces(); got != base {
		t.Fatalf("LeasedWorkspaces = %d after close, want %d — workspace leaked", got, base)
	}
	if _, err := ses.Resolve(context.Background(), ins); err == nil {
		t.Fatal("Resolve on a closed session should error")
	}
}

func TestSessionUnknownSolver(t *testing.T) {
	if _, err := NewSession("no-such-solver"); err == nil {
		t.Fatal("NewSession on an unknown name should error")
	}
}
