package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// solved is one request with its expectation and the in-process answer.
type solved struct {
	exp  *Expect
	doc  []byte
	plan wire.Plan
}

func solveOne(t *testing.T, seed int64) solved {
	t.Helper()
	op, err := coldOps(rand.New(rand.NewSource(seed)), 1)
	if err != nil {
		t.Fatal(err)
	}
	req := op[0].req
	plan, err := engine.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExpect(req, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := wire.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return solved{exp: exp, doc: doc, plan: wire.FromPlan(plan)}
}

// edit re-encodes the answer after fn changed its decoded plan.
func (s solved) edit(t *testing.T, fn func(p *wire.Plan)) []byte {
	t.Helper()
	p := s.plan
	p.Edges = append([]wire.Edge(nil), s.plan.Edges...)
	fn(&p)
	doc, err := wire.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// wantCheck asserts that err is a CheckError naming check.
func wantCheck(t *testing.T, name string, err error, check string) {
	t.Helper()
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: got %v, want a failed %q check", name, err, check)
	}
	if ce.Check != check {
		t.Fatalf("%s: failed check %q (%s), want %q", name, ce.Check, ce.Detail, check)
	}
}

func TestCheckAcceptsTheInProcessAnswer(t *testing.T) {
	s := solveOne(t, 1)
	for _, label := range []string{"", "miss"} {
		if err := Check(s.exp, Answer{Label: label, Doc: s.doc}); err != nil {
			t.Fatalf("label %q: %v", label, err)
		}
	}
	first := sha256.Sum256(s.doc)
	exp := *s.exp
	exp.First = &first
	if err := Check(&exp, Answer{Label: "hit", Doc: s.doc}); err != nil {
		t.Fatalf("hit: %v", err)
	}
	if err := Check(s.exp, Answer{Label: "warm", Doc: s.doc}); err != nil {
		t.Fatalf("warm: %v", err)
	}
	seeded := s.edit(t, func(p *wire.Plan) {
		p.WarmStarted, p.NeighborDistance, p.Repaired = true, 2, false
		p.Evals.GreedyTests += 7
	})
	if err := Check(s.exp, Answer{Label: "miss", Doc: seeded}); err != nil {
		t.Fatalf("neighbour-seeded miss differing only in provenance: %v", err)
	}
}

func TestCheckRejectsEveryCorruptedAnswer(t *testing.T) {
	s := solveOne(t, 2)
	if len(s.plan.Edges) == 0 {
		t.Fatal("the test instance has no scheme edges")
	}
	other := sha256.Sum256([]byte("another answer"))
	withFirst := func(f [sha256.Size]byte) *Expect {
		exp := *s.exp
		exp.First = &f
		return &exp
	}
	refused := *s.exp
	refused.RefOK = false

	cases := []struct {
		name  string
		exp   *Expect
		ans   Answer
		check string
	}{
		{"not json", s.exp, Answer{Doc: []byte("{\"v\":")}, "decode"},
		{"wrong version", s.exp, Answer{Doc: s.edit(t, func(p *wire.Plan) { p.V = 2 })}, "decode"},
		{"other solver", s.exp, Answer{Doc: s.edit(t, func(p *wire.Plan) { p.Solver = "greedy" })}, "solver"},
		{"wrong tstar", s.exp, Answer{Doc: s.edit(t, func(p *wire.Plan) { p.TStar *= 1 + 1e-12 })}, "tstar"},
		{"above T*", s.exp, Answer{Doc: s.edit(t, func(p *wire.Plan) { p.Throughput = p.TStar * 1.001 })}, "lemma-5.1"},
		{"below 5/7 T*", s.exp, Answer{Doc: s.edit(t, func(p *wire.Plan) { p.Throughput = p.TStar * 0.7 })}, "theorem-6.2"},
		{"miss with an edge rate changed", s.exp, Answer{Label: "miss",
			Doc: s.edit(t, func(p *wire.Plan) { p.Edges[0].Rate *= 1 + 1e-15 })}, "miss-bytes"},
		{"unlabelled item with evals changed", s.exp, Answer{
			Doc: s.edit(t, func(p *wire.Plan) { p.Evals.Builds++ })}, "miss-bytes"},
		{"neighbour-seeded miss with an edge changed", s.exp, Answer{Label: "miss", Doc: s.edit(t, func(p *wire.Plan) {
			p.WarmStarted = true
			p.Edges[0].To++
		})}, "miss-bytes"},
		{"miss the in-process solve refuses", &refused, Answer{Label: "miss", Doc: s.doc}, "miss-bytes"},
		{"hit on a body never answered", s.exp, Answer{Label: "hit", Doc: s.doc}, "hit-bytes"},
		{"hit differing from the first answer", withFirst(other), Answer{Label: "hit", Doc: s.doc}, "hit-bytes"},
		{"warm too far from scratch", s.exp, Answer{Label: "warm",
			Doc: s.edit(t, func(p *wire.Plan) { p.Throughput *= 1 - 1e-5 })}, "warm-throughput"},
		{"warm for a refused request", &refused, Answer{Label: "warm", Doc: s.doc}, "warm-throughput"},
		{"unknown label", s.exp, Answer{Label: "forward", Doc: s.doc}, "label"},
	}
	for _, c := range cases {
		wantCheck(t, c.name, Check(c.exp, c.ans), c.check)
	}
}

func TestCheckToleratesWarmDust(t *testing.T) {
	s := solveOne(t, 3)
	doc := s.edit(t, func(p *wire.Plan) { p.Throughput *= 1 - 1e-8 })
	if err := Check(s.exp, Answer{Label: "warm", Doc: doc}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSequence(t *testing.T) {
	if err := CheckSequence("stream", 3, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	wantCheck(t, "short stream", CheckSequence("stream", 3, []int{0, 1}), "stream-count")
	wantCheck(t, "reordered stream", CheckSequence("stream", 3, []int{0, 2, 1}), "stream-order")
	wantCheck(t, "long batch", CheckSequence("batch", 2, []int{0, 1, 2}), "batch-count")
}

func TestCheckLarge(t *testing.T) {
	ins, err := largeInstances(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	solver, err := engine.Get(solveSolver)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SolveIsolated(ctx, solver, ins[0])
	if err != nil {
		t.Fatal(err)
	}
	want := ResultDigest(res)
	tstar := core.OptimalCyclicThroughput(ins[0])
	plan, err := engine.Execute(ctx, engine.NewRequest(ins[0], engine.WithSolver(solveSolver)))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLarge(want, tstar, plan); err != nil {
		t.Fatalf("pooled solve: %v", err)
	}

	bad := *plan
	bad.Throughput = plan.Throughput * (1 - 1e-16)
	if bad.Throughput == plan.Throughput {
		bad.Throughput = plan.Throughput - plan.Throughput*1e-15
	}
	wantCheck(t, "throughput bit flipped", CheckLarge(want, tstar, &bad), "isolated-bits")
	bad = *plan
	bad.Word = append(core.Word(nil), plan.Word...)
	bad.Word[0], bad.Word[len(bad.Word)-1] = bad.Word[len(bad.Word)-1], bad.Word[0]
	if bad.Word[0] == plan.Word[0] {
		t.Skip("word starts and ends with the same letter")
	}
	wantCheck(t, "word reordered", CheckLarge(want, tstar, &bad), "isolated-bits")
	bad = *plan
	bad.Evals.GreedyTests++
	wantCheck(t, "probe count changed", CheckLarge(want, tstar, &bad), "isolated-bits")
	bad = *plan
	bad.TStar = tstar * 2
	wantCheck(t, "tstar", CheckLarge(want, tstar, &bad), "tstar")
	bad = *plan
	bad.Throughput = tstar * 0.5
	wantCheck(t, "below 5/7 T*", CheckLarge(want, tstar, &bad), "theorem-6.2")
}
