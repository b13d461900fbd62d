package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/platform"
)

func fig1(t *testing.T) *platform.Instance {
	t.Helper()
	return generator.Figure1()
}

func TestExecuteDefaultSolver(t *testing.T) {
	plan, err := Execute(context.Background(), NewRequest(fig1(t)))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Solver != "acyclic" {
		t.Errorf("default solver = %q, want acyclic", plan.Solver)
	}
	if d := plan.Throughput - 4; d < -1e-6 || d > 1e-6 {
		t.Errorf("Throughput = %v, want ≈4", plan.Throughput)
	}
	if plan.TStar != 4.4 {
		t.Errorf("TStar = %v, want 4.4", plan.TStar)
	}
	if r := plan.Ratio(); r < 0.90 || r > 0.91 {
		t.Errorf("Ratio() = %v, want 4/4.4", r)
	}
	if plan.Scheme == nil {
		t.Error("acyclic solver should carry a scheme")
	}
	if plan.Trees != nil || plan.Schedule != nil {
		t.Error("artifacts present without WantTrees/WithSchedule")
	}
}

func TestExecuteNilInstance(t *testing.T) {
	_, err := Execute(context.Background(), Request{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestExecuteUnknownSolver(t *testing.T) {
	_, err := Execute(context.Background(), NewRequest(fig1(t), WithSolver("nope")))
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("err = %v, want ErrUnknownSolver", err)
	}
}

func TestExecuteCapabilitySelector(t *testing.T) {
	// CapCyclic+CapExact+CapBuildsScheme on a guarded instance has no
	// provider among scheme builders that handle guarded... pick a
	// resolvable combination first: exact cyclic bound.
	plan, err := Execute(context.Background(), NewRequest(fig1(t),
		WithCapabilities(CapExact|CapCyclic)))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Solver != "cyclic-bound" {
		t.Errorf("selected %q, want cyclic-bound (first capable, sorted)", plan.Solver)
	}

	// WantScheme folds CapBuildsScheme into the selector.
	plan, err = Execute(context.Background(), NewRequest(fig1(t),
		WithCapabilities(CapExact|CapHandlesGuarded), WithScheme()))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme == nil {
		t.Fatal("WantScheme honored but no scheme")
	}
	if !plan.Capabilities().Has(CapBuildsScheme) {
		t.Errorf("selected solver %q lacks CapBuildsScheme", plan.Solver)
	}
}

// Capabilities is a test helper: the capability set of the plan's solver.
func (p *Plan) Capabilities() Capability {
	s, err := Get(p.Solver)
	if err != nil {
		return 0
	}
	return s.Capabilities()
}

func TestExecuteNoCapableSolver(t *testing.T) {
	// No registered solver is exact+cyclic+anytime.
	_, err := Execute(context.Background(), NewRequest(fig1(t),
		WithCapabilities(CapExact|CapCyclic|CapAnytime)))
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("err = %v, want ErrUnknownSolver", err)
	}
}

func TestExecuteSchemelessSolverInfeasible(t *testing.T) {
	// cyclic-bound computes a bound only; asking it for a scheme (or
	// trees) must fail with the typed sentinel.
	for _, opt := range []RequestOption{WithScheme(), WithTrees(), WithSchedule(8)} {
		_, err := Execute(context.Background(), NewRequest(fig1(t), WithSolver("cyclic-bound"), opt))
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
	}
}

func TestExecuteOpenOnlySolverOnGuardedInstance(t *testing.T) {
	_, err := Execute(context.Background(), NewRequest(fig1(t), WithSolver("acyclic-open")))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestExecuteTreesAndSchedule(t *testing.T) {
	plan, err := Execute(context.Background(), NewRequest(fig1(t), WithSchedule(20)))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Trees) == 0 {
		t.Fatal("WithSchedule implies a tree decomposition")
	}
	var sum float64
	for _, tr := range plan.Trees {
		sum += tr.Weight
	}
	if diff := sum - plan.Throughput; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("tree weights sum to %v, want T = %v", sum, plan.Throughput)
	}
	if plan.Schedule == nil || plan.Schedule.Blocks != 20 {
		t.Fatalf("schedule missing or wrong block count: %+v", plan.Schedule)
	}
}

// TestExecuteRefusesOversizedSchedule: a schedule sends one
// transmission per block and receiver, so a block count past the
// transmission bound is refused before the solve, including counts
// whose transmission total would overflow an int (a small schedule is
// served: TestExecuteTreesAndSchedule).
func TestExecuteRefusesOversizedSchedule(t *testing.T) {
	ins := fig1(t)
	bound := maxScheduleTransmissions / (ins.Total() - 1)
	for _, blocks := range []int{bound + 1, 1 << 40, math.MaxInt} {
		plan, err := Execute(context.Background(), NewRequest(ins, WithSchedule(blocks)))
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%d blocks: plan %v, err = %v, want ErrInfeasible", blocks, plan != nil, err)
		}
	}
}

func TestExecuteToleranceVerifies(t *testing.T) {
	plan, err := Execute(context.Background(), NewRequest(fig1(t), WithTolerance(1e-6)))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Verified == 0 {
		t.Fatal("WithTolerance must record the verified throughput")
	}
	if plan.Verified < plan.Throughput*(1-1e-6) {
		t.Errorf("Verified %v below claimed %v", plan.Verified, plan.Throughput)
	}
}

func TestExecuteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Execute(ctx, NewRequest(fig1(t)))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must also match context.Canceled", err)
	}
}

func TestExecuteDeadline(t *testing.T) {
	// An already-expired parent deadline surfaces as ErrCanceled joined
	// with context.DeadlineExceeded (a per-request Deadline expiring
	// mid-solve takes the same path through Canceled).
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Execute(ctx, NewRequest(fig1(t), WithDeadline(time.Minute)))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, must also match context.DeadlineExceeded", err)
	}
}

func TestExecuteWarmStartRepairs(t *testing.T) {
	ins := fig1(t)
	// acyclic-search returns the witness word the repair path warm-starts
	// from (the scheme-building "acyclic" solver returns schemes only).
	first, err := Execute(context.Background(), NewRequest(ins, WithSolver("acyclic-search")))
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Word) == 0 {
		t.Fatal("acyclic-search returned no witness word")
	}
	warm, err := Execute(context.Background(), NewRequest(ins, WithWarmStart(first.Word)))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Repaired {
		t.Error("warm start on an unchanged instance should take the repair path")
	}
	if warm.Verified == 0 {
		t.Error("repair path must verify the scheme")
	}
	if warm.Throughput < first.Throughput*(1-1e-9) {
		t.Errorf("warm %v below cold %v", warm.Throughput, first.Throughput)
	}
	// Warm-start words are ignored by non-incremental solvers.
	if _, err := Execute(context.Background(), NewRequest(ins,
		WithSolver("greedy"), WithWarmStart(first.Word))); err != nil {
		t.Fatalf("non-incremental solver with warm start: %v", err)
	}
}

func TestExecuteBatchOrdering(t *testing.T) {
	reqs := make([]Request, 16)
	for i := range reqs {
		n := 4 + i
		ins, err := generator.TightHomogeneous(n, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = NewRequest(ins)
	}
	plans, err := ExecuteBatch(context.Background(), reqs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p == nil || p.Result.Throughput <= 0 {
			t.Fatalf("plan %d missing or empty", i)
		}
		if p.TStar <= 0 {
			t.Fatalf("plan %d lacks TStar", i)
		}
	}
}

func TestExecuteLeaksNoWorkspaces(t *testing.T) {
	base := LeasedWorkspaces()
	ins := fig1(t)
	var w core.Word
	for i := 0; i < 10; i++ {
		plan, err := Execute(context.Background(), NewRequest(ins, WithWarmStart(w), WithTolerance(1e-9)))
		if err != nil {
			t.Fatal(err)
		}
		w = plan.Word
	}
	if got := LeasedWorkspaces(); got != base {
		t.Fatalf("LeasedWorkspaces = %d, want baseline %d", got, base)
	}
}

func TestGetUnknownSolverTyped(t *testing.T) {
	_, err := Get("definitely-not-registered")
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("Get error %v does not wrap ErrUnknownSolver", err)
	}
}
