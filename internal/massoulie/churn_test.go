package massoulie

import (
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// chainOverlay builds a source→1→2→3 relay chain at rate 1: the extreme
// case where the paper's "probably not resilient to churn" warning
// bites — every downstream node depends on a single relay.
func chainOverlay(t *testing.T) (*core.Scheme, *platform.Instance) {
	t.Helper()
	ins := platform.MustInstance(1, []float64{1, 1, 1}, nil)
	s := core.NewScheme(ins)
	s.Add(0, 1, 1)
	s.Add(1, 2, 1)
	s.Add(2, 3, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s, ins
}

// TestChurnRelayDepartureStarvesDownstream: when the first relay leaves
// mid-stream, every node behind it stops receiving — the quantitative
// form of the paper's churn caveat (§VII).
func TestChurnRelayDepartureStarvesDownstream(t *testing.T) {
	s, _ := chainOverlay(t)
	res, err := Simulate(s, 1, Config{
		Packets:   200,
		MaxRounds: 260,
		Seed:      1,
		Churn:     []ChurnEvent{{Round: 100, Node: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("stream completed despite the relay leaving")
	}
	// Nodes 2 and 3 received roughly the first 100 packets only.
	for v := 2; v <= 3; v++ {
		if g := res.Goodput[v]; g > 0.6 {
			t.Fatalf("node %d goodput %v after relay departure, want ≪ 1", v, g)
		}
	}
}

// TestChurnLeafDepartureHarmless: a leaf leaving does not disturb the
// rest of the swarm.
func TestChurnLeafDepartureHarmless(t *testing.T) {
	s, _ := chainOverlay(t)
	res, err := Simulate(s, 1, Config{
		Packets: 150,
		Seed:    2,
		Churn:   []ChurnEvent{{Round: 50, Node: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("surviving nodes should still complete")
	}
	for v := 1; v <= 2; v++ {
		if g := res.Goodput[v]; g < 0.9 {
			t.Fatalf("surviving node %d goodput %v", v, g)
		}
	}
}

// TestChurnRepairBySolvingReducedInstance demonstrates the repair path a
// deployment would take: when a node departs, re-run the (linear-time)
// solver on the surviving nodes and switch overlays. The recovered
// throughput is the reduced instance's own optimum — churn costs a
// re-instantiation, not a redesign.
func TestChurnRepairBySolvingReducedInstance(t *testing.T) {
	// Open node with bandwidth 6 departs (paper numbering index 2).
	// Note the reduced optimum may exceed the full instance's: a
	// departure removes demand (one fewer receiver at rate T) along with
	// its capacity, so no monotonicity is asserted here.
	reduced := platform.MustInstance(10, []float64{8, 4}, []float64{3, 2})
	tReduced, scheme, _, err := core.SolveAcyclic(reduced, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(scheme, tReduced, Config{Packets: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.MinGoodput() < 0.8 {
		t.Fatalf("repaired overlay underdelivers: %v", res)
	}
}

func TestChurnValidation(t *testing.T) {
	s, _ := chainOverlay(t)
	if _, err := Simulate(s, 1, Config{Packets: 10, Churn: []ChurnEvent{{Round: 1, Node: 0}}}); err == nil {
		t.Error("expected error for departing source")
	}
	if _, err := Simulate(s, 1, Config{Packets: 10, Churn: []ChurnEvent{{Round: 1, Node: 99}}}); err == nil {
		t.Error("expected error for out-of-range node")
	}
}
