package platform

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// rebuilt returns a fresh NewInstance over the mutated instance's
// current bandwidths — the reference every cache must match exactly.
func rebuilt(t *testing.T, ins *Instance) *Instance {
	t.Helper()
	ref, err := NewInstance(ins.B0, ins.OpenBW, ins.GuardedBW)
	if err != nil {
		t.Fatalf("rebuilding reference instance: %v", err)
	}
	return ref
}

// checkAgainstRebuild asserts the mutated instance is indistinguishable
// from a freshly constructed one: same sorted bandwidths and
// bit-identical prefix accessors at every rank.
func checkAgainstRebuild(t *testing.T, ins *Instance) {
	t.Helper()
	if err := ins.Validate(); err != nil {
		t.Fatalf("Validate after mutation: %v", err)
	}
	ref := rebuilt(t, ins)
	for k := 0; k <= ins.N(); k++ {
		if got, want := ins.OpenPrefix(k), ref.OpenPrefix(k); got != want {
			t.Fatalf("OpenPrefix(%d) = %v, rebuild gives %v", k, got, want)
		}
	}
	for k := 0; k <= ins.M(); k++ {
		if got, want := ins.GuardedPrefix(k), ref.GuardedPrefix(k); got != want {
			t.Fatalf("GuardedPrefix(%d) = %v, rebuild gives %v", k, got, want)
		}
	}
	if got, want := ins.SumOpen(), ref.SumOpen(); got != want {
		t.Fatalf("SumOpen = %v, rebuild gives %v", got, want)
	}
	if got, want := ins.SumGuarded(), ref.SumGuarded(); got != want {
		t.Fatalf("SumGuarded = %v, rebuild gives %v", got, want)
	}
}

func TestAddRemoveRanks(t *testing.T) {
	ins := MustInstance(6, []float64{5, 3}, []float64{4, 1})
	rank, err := ins.Add(Open, 4)
	if err != nil || rank != 1 {
		t.Fatalf("Add(open, 4) = (%d, %v), want rank 1", rank, err)
	}
	checkAgainstRebuild(t, ins)
	rank, err = ins.Add(Guarded, 0.5)
	if err != nil || rank != 2 {
		t.Fatalf("Add(guarded, 0.5) = (%d, %v), want rank 2", rank, err)
	}
	checkAgainstRebuild(t, ins)
	// Equal bandwidths insert after existing ones.
	rank, err = ins.Add(Open, 5)
	if err != nil || rank != 1 {
		t.Fatalf("Add(open, 5) = (%d, %v), want rank 1", rank, err)
	}
	checkAgainstRebuild(t, ins)
	bw, err := ins.Remove(Open, 0)
	if err != nil || bw != 5 {
		t.Fatalf("Remove(open, 0) = (%v, %v), want bw 5", bw, err)
	}
	checkAgainstRebuild(t, ins)
	bw, err = ins.Remove(Guarded, 2)
	if err != nil || bw != 0.5 {
		t.Fatalf("Remove(guarded, 2) = (%v, %v), want bw 0.5", bw, err)
	}
	checkAgainstRebuild(t, ins)
}

func TestRescaleMovesRank(t *testing.T) {
	ins := MustInstance(6, []float64{8, 4, 2}, []float64{4, 2, 1})
	// 2 × 8 = 16 becomes the largest open node.
	rank, err := ins.Rescale(Open, 2, 8)
	if err != nil || rank != 0 {
		t.Fatalf("Rescale(open, 2, 8) = (%d, %v), want rank 0", rank, err)
	}
	checkAgainstRebuild(t, ins)
	// 4 × 0.1 = 0.4 sinks to the bottom of the guarded class.
	rank, err = ins.Rescale(Guarded, 0, 0.1)
	if err != nil || rank != 2 {
		t.Fatalf("Rescale(guarded, 0, 0.1) = (%d, %v), want rank 2", rank, err)
	}
	checkAgainstRebuild(t, ins)
}

func TestSetSourceBandwidth(t *testing.T) {
	ins := MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	if err := ins.SetSourceBandwidth(3); err != nil {
		t.Fatalf("SetSourceBandwidth(3): %v", err)
	}
	checkAgainstRebuild(t, ins)
	if err := ins.SetSourceBandwidth(0); err == nil {
		t.Fatal("SetSourceBandwidth(0) with receivers should fail")
	}
}

func TestMutationErrors(t *testing.T) {
	ins := MustInstance(6, []float64{5}, []float64{4})
	// Bandwidth errors wrap ErrInvalidInstance, as NewInstance's do.
	_, addNaN := ins.Add(Open, math.NaN())
	_, addNeg := ins.Add(Guarded, -1)
	_, rescaleInf := ins.Rescale(Open, 0, math.Inf(1))
	_, addToZeroSource := MustInstance(0, nil, nil).Add(Open, 1)
	for name, err := range map[string]error{
		"Add(open, NaN)":          addNaN,
		"Add(guarded, -1)":        addNeg,
		"Rescale(open, 0, +Inf)":  rescaleInf,
		"SetSourceBandwidth(NaN)": ins.SetSourceBandwidth(math.NaN()),
		"Add to a zero source":    addToZeroSource,
	} {
		if !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("%s: err = %v, want ErrInvalidInstance in chain", name, err)
		}
	}
	if _, err := ins.Remove(Open, 1); err == nil || err.Error() != "platform: Remove(open, 1) out of range [0,1)" {
		t.Fatalf("Remove(open, 1) out of range: err = %v", err)
	}
	if _, err := ins.Remove(Guarded, -1); err == nil {
		t.Fatal("Remove(guarded, -1) should fail")
	}
	if _, err := ins.Rescale(Guarded, 5, 2); err == nil {
		t.Fatal("Rescale(guarded, 5) out of range should fail")
	}
	// Failed mutations must leave the instance untouched.
	checkAgainstRebuild(t, ins)
	if ins.N() != 1 || ins.M() != 1 || ins.B0 != 6 {
		t.Fatalf("failed mutations changed the instance: %v", ins)
	}
}

func TestCloneIndependence(t *testing.T) {
	ins := MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	cl := ins.Clone()
	if _, err := ins.Add(Open, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Remove(Guarded, 0); err != nil {
		t.Fatal(err)
	}
	if cl.N() != 2 || cl.M() != 3 || cl.OpenPrefix(2) != 16 {
		t.Fatalf("clone mutated alongside the original: %v", cl)
	}
	checkAgainstRebuild(t, cl)
	checkAgainstRebuild(t, ins)
}

// TestMutationFuzz drives hundreds of random mutations of both classes
// and of the source, and checks the instance stays exactly equivalent to
// a from-scratch construction after every step.
func TestMutationFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ins := MustInstance(10, []float64{9, 5, 3}, []float64{7, 2})
	for step := 0; step < 600; step++ {
		k := Kind(rng.Intn(2))
		size := len(*ins.class(k))
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = ins.Add(k, rng.Float64()*100)
		case 1:
			if size > 0 {
				_, err = ins.Remove(k, rng.Intn(size))
			}
		case 2:
			if size > 0 {
				_, err = ins.Rescale(k, rng.Intn(size), 0.25+rng.Float64()*3)
			}
		case 3:
			err = ins.SetSourceBandwidth(ins.B0 * (0.5 + rng.Float64()))
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkAgainstRebuild(t, ins)
	}
}
