package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

func workspaceTestInstance(seed int64, n, m int) *platform.Instance {
	rng := rand.New(rand.NewSource(seed))
	open := make([]float64, n)
	for i := range open {
		open[i] = 1 + 99*rng.Float64()
	}
	guarded := make([]float64, m)
	for i := range guarded {
		guarded[i] = 1 + 99*rng.Float64()
	}
	return platform.MustInstance(50+50*rng.Float64(), open, guarded)
}

// TestWithWorkspaceMatchesPlain: every workspace-taking function returns
// byte-identical results on a nil (private) workspace and on one
// workspace reused (warm and dirty) across instances.
func TestWithWorkspaceMatchesPlain(t *testing.T) {
	ws := NewWorkspace()
	for seed := int64(1); seed <= 30; seed++ {
		ins := workspaceTestInstance(seed, 4+int(seed)%8, int(seed)%6)

		tPlain, wPlain, errPlain := OptimalAcyclicThroughput(ins, nil)
		tWS, wWS, errWS := OptimalAcyclicThroughput(ins, ws)
		if (errPlain == nil) != (errWS == nil) {
			t.Fatalf("seed %d: search errs %v vs %v", seed, errPlain, errWS)
		}
		if errPlain != nil {
			continue
		}
		if math.Float64bits(tPlain) != math.Float64bits(tWS) || wPlain.String() != wWS.String() {
			t.Fatalf("seed %d: search (%v, %s) vs workspace (%v, %s)", seed, tPlain, wPlain, tWS, wWS)
		}

		if FeasibleAcyclic(ins, tPlain, nil) != FeasibleAcyclic(ins, tPlain, ws) {
			t.Fatalf("seed %d: feasibility diverges at T=%v", seed, tPlain)
		}

		if a, b := WordThroughput(ins, wPlain, nil), WordThroughput(ins, wPlain, ws); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %d: word throughput %v vs %v", seed, a, b)
		}

		build := tPlain * (1 - 1e-12)
		sPlain, errPlain := BuildScheme(ins, wPlain, build, nil)
		sWS, errWS := BuildScheme(ins, wPlain, build, ws)
		if (errPlain == nil) != (errWS == nil) {
			t.Fatalf("seed %d: build errs %v vs %v", seed, errPlain, errWS)
		}
		if errPlain == nil {
			ePlain, eWS := sPlain.Edges(), sWS.Edges()
			if len(ePlain) != len(eWS) {
				t.Fatalf("seed %d: %d vs %d edges", seed, len(ePlain), len(eWS))
			}
			for k := range ePlain {
				if ePlain[k] != eWS[k] {
					t.Fatalf("seed %d edge %d: %+v vs %+v", seed, k, ePlain[k], eWS[k])
				}
			}
			if a, b := sPlain.Throughput(nil), sWS.Throughput(ws); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: verify %v vs %v", seed, a, b)
			}
		}

		T := OptimalCyclicThroughput(ins)
		pPlain, aPlain, errPlain := PackCyclicGuarded(ins, T, nil)
		pWS, aWS, errWS := PackCyclicGuarded(ins, T, ws)
		if (errPlain == nil) != (errWS == nil) {
			t.Fatalf("seed %d: pack errs %v vs %v", seed, errPlain, errWS)
		}
		if errPlain == nil {
			if math.Float64bits(aPlain) != math.Float64bits(aWS) {
				t.Fatalf("seed %d: packed %v vs %v", seed, aPlain, aWS)
			}
			ePlain, eWS := pPlain.Edges(), pWS.Edges()
			if len(ePlain) != len(eWS) {
				t.Fatalf("seed %d: pack %d vs %d edges", seed, len(ePlain), len(eWS))
			}
			for k := range ePlain {
				if ePlain[k] != eWS[k] {
					t.Fatalf("seed %d pack edge %d: %+v vs %+v", seed, k, ePlain[k], eWS[k])
				}
			}
		}
	}
}

// TestCyclicOpenWithWorkspaceMatchesPlain covers the Theorem 5.2
// constructor the same way (open-only instances).
func TestCyclicOpenWithWorkspaceMatchesPlain(t *testing.T) {
	ws := NewWorkspace()
	for seed := int64(1); seed <= 20; seed++ {
		ins := workspaceTestInstance(100+seed, 5+int(seed), 0)
		T := OptimalCyclicThroughput(ins)
		sPlain, errPlain := CyclicOpen(ins, T, nil)
		sWS, errWS := CyclicOpen(ins, T, ws)
		if (errPlain == nil) != (errWS == nil) {
			t.Fatalf("seed %d: errs %v vs %v", seed, errPlain, errWS)
		}
		if errPlain != nil {
			continue
		}
		ePlain, eWS := sPlain.Edges(), sWS.Edges()
		if len(ePlain) != len(eWS) {
			t.Fatalf("seed %d: %d vs %d edges", seed, len(ePlain), len(eWS))
		}
		for k := range ePlain {
			if ePlain[k] != eWS[k] {
				t.Fatalf("seed %d edge %d: %+v vs %+v", seed, k, ePlain[k], eWS[k])
			}
		}
	}
}

// TestThroughputWorkspaceZeroSteadyStateAllocs: warm workspace
// throughput verification — the functional under every solver —
// allocates nothing.
func TestThroughputWorkspaceZeroSteadyStateAllocs(t *testing.T) {
	ins := workspaceTestInstance(7, 30, 30)
	_, s, _, err := SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	s.Throughput(ws) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		s.Throughput(ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Throughput allocates %.1f/op, want 0", allocs)
	}
	if FeasibleAcyclic(ins, 1, ws); testing.AllocsPerRun(20, func() {
		FeasibleAcyclic(ins, 1, ws)
	}) != 0 {
		t.Fatal("steady-state FeasibleAcyclic allocates")
	}
	if got := ws.Stats(); got.FlowEvals == 0 || got.GreedyTests == 0 {
		t.Fatalf("stats not recorded: %+v", got)
	}
}

// TestInEdgesMatchesGraph: the direct in-edge scan agrees with a
// brute-force Rate(i, j) scan over every sender.
func TestInEdgesMatchesGraph(t *testing.T) {
	ins := workspaceTestInstance(13, 10, 10)
	_, s, _, err := SolveAcyclic(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < ins.Total(); j++ {
		var want []Edge
		for i := 0; i < ins.Total(); i++ {
			if r := s.Rate(i, j); r > 0 {
				want = append(want, Edge{From: i, To: j, Weight: r})
			}
		}
		direct := s.InEdges(j, nil)
		if len(direct) != len(want) {
			t.Fatalf("node %d: %d direct in-edges, %d by Rate scan", j, len(direct), len(want))
		}
		for k := range direct {
			if direct[k] != want[k] {
				t.Fatalf("node %d in-edge %d: %+v vs %+v", j, k, direct[k], want[k])
			}
		}
	}
}
