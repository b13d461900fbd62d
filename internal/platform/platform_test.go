package platform

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewInstanceSortsAndCopies(t *testing.T) {
	open := []float64{1, 5, 3}
	guarded := []float64{2, 4}
	ins, err := NewInstance(6, open, guarded)
	if err != nil {
		t.Fatal(err)
	}
	if ins.OpenBW[0] != 5 || ins.OpenBW[1] != 3 || ins.OpenBW[2] != 1 {
		t.Fatalf("open not sorted: %v", ins.OpenBW)
	}
	if ins.GuardedBW[0] != 4 || ins.GuardedBW[1] != 2 {
		t.Fatalf("guarded not sorted: %v", ins.GuardedBW)
	}
	open[0] = 99 // caller's slice must not alias
	if ins.OpenBW[0] == 99 || ins.OpenBW[2] == 99 {
		t.Fatal("instance aliases caller slice")
	}
}

func TestNewInstanceRejects(t *testing.T) {
	cases := []struct {
		b0            float64
		open, guarded []float64
	}{
		{-1, nil, nil},
		{math.NaN(), nil, nil},
		{math.Inf(1), nil, nil},
		{1, []float64{-2}, nil},
		{1, nil, []float64{math.NaN()}},
		{0, []float64{1}, nil}, // zero source with receivers
	}
	for i, c := range cases {
		_, err := NewInstance(c.b0, c.open, c.guarded)
		if err == nil {
			t.Errorf("case %d: expected error", i)
			continue
		}
		// Part of the v2 API contract: rejections are typed, not stringly.
		if !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("case %d: err = %v, want ErrInvalidInstance in chain", i, err)
		}
	}
}

func TestValidateWrapsTypedError(t *testing.T) {
	ins := &Instance{B0: 5, OpenBW: []float64{1, 3}} // unsorted, built by hand
	if err := ins.Validate(); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("Validate err = %v, want ErrInvalidInstance in chain", err)
	}
}

func TestKindAndBandwidthNumbering(t *testing.T) {
	ins := MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	if ins.N() != 2 || ins.M() != 3 || ins.Total() != 6 {
		t.Fatal("counts wrong")
	}
	wantKind := []Kind{Open, Open, Open, Guarded, Guarded, Guarded}
	wantBW := []float64{6, 5, 5, 4, 1, 1}
	for i := 0; i < 6; i++ {
		if ins.KindOf(i) != wantKind[i] {
			t.Errorf("KindOf(%d) = %v", i, ins.KindOf(i))
		}
		if ins.Bandwidth(i) != wantBW[i] {
			t.Errorf("Bandwidth(%d) = %v, want %v", i, ins.Bandwidth(i), wantBW[i])
		}
	}
}

func TestKindOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustInstance(1, nil, nil).KindOf(1)
}

func TestSumsAndPrefixes(t *testing.T) {
	ins := MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	if ins.SumOpen() != 10 || ins.SumGuarded() != 6 {
		t.Fatal("sums wrong")
	}
	// S_0 = 6, S_1 = 11, S_2 = 16.
	for k, want := range []float64{6, 11, 16} {
		if got := ins.OpenPrefix(k); got != want {
			t.Errorf("OpenPrefix(%d) = %v, want %v", k, got, want)
		}
	}
	for k, want := range []float64{0, 4, 5, 6} {
		if got := ins.GuardedPrefix(k); got != want {
			t.Errorf("GuardedPrefix(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestBandwidthsAndRatBandwidths(t *testing.T) {
	ins := MustInstance(1.5, []float64{0.25}, []float64{0.125})
	bs := ins.Bandwidths()
	if len(bs) != 3 || bs[0] != 1.5 || bs[1] != 0.25 || bs[2] != 0.125 {
		t.Fatalf("Bandwidths = %v", bs)
	}
	rs := ins.RatBandwidths()
	for i := range bs {
		if f, _ := rs[i].Float64(); f != bs[i] {
			t.Errorf("RatBandwidths[%d] = %v, want %v", i, rs[i], bs[i])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ins := MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	data, err := json.Marshal(ins)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != ins.String() || back.B0 != ins.B0 {
		t.Fatalf("round trip: %v vs %v", &back, ins)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var ins Instance
	if err := json.Unmarshal([]byte(`{"b0":-3,"open":[1]}`), &ins); err == nil {
		t.Fatal("expected error for negative source bandwidth")
	}
}

func TestValidateDetectsUnsorted(t *testing.T) {
	ins := &Instance{B0: 1, OpenBW: []float64{1, 2}}
	if err := ins.Validate(); err == nil {
		t.Fatal("expected unsorted error")
	}
}

// TestPrefixCacheMatchesSummation: the O(1) cached accessors return
// bit-identical values to the summation loops they replaced (compared
// against a cache-less instance assembled field-by-field).
func TestPrefixCacheMatchesSummation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n, m := rng.Intn(15), rng.Intn(15)
		open := make([]float64, n)
		for i := range open {
			open[i] = rng.Float64() * 100
		}
		guarded := make([]float64, m)
		for i := range guarded {
			guarded[i] = rng.Float64() * 100
		}
		cached := MustInstance(1+rng.Float64()*10, open, guarded)
		// Same sorted data without caches: the fallback summation path.
		plain := &Instance{B0: cached.B0, OpenBW: cached.OpenBW, GuardedBW: cached.GuardedBW}
		for k := 0; k <= n; k++ {
			if got, want := cached.OpenPrefix(k), plain.OpenPrefix(k); got != want {
				t.Fatalf("trial %d: OpenPrefix(%d) cached %v != summed %v", trial, k, got, want)
			}
		}
		for k := 0; k <= m; k++ {
			if got, want := cached.GuardedPrefix(k), plain.GuardedPrefix(k); got != want {
				t.Fatalf("trial %d: GuardedPrefix(%d) cached %v != summed %v", trial, k, got, want)
			}
		}
		if cached.SumOpen() != plain.SumOpen() || cached.SumGuarded() != plain.SumGuarded() {
			t.Fatalf("trial %d: cached sums diverge from summation", trial)
		}
	}
	// JSON round-trip re-establishes the caches.
	ins := MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	data, err := json.Marshal(ins)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.srcPre == nil || back.openSum == nil || back.guardedPre == nil {
		t.Fatal("UnmarshalJSON did not rebuild the prefix caches")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = ins.OpenPrefix(2)
		_ = ins.GuardedPrefix(2)
		_ = ins.SumOpen()
		_ = ins.SumGuarded()
	})
	if allocs != 0 {
		t.Fatalf("cached accessors allocate %.1f/op, want 0", allocs)
	}
}

// TestQuickPrefixConsistency: OpenPrefix(n) = b0 + SumOpen and prefixes
// are monotone, for random instances.
func TestQuickPrefixConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		open := make([]float64, n)
		for i := range open {
			open[i] = rng.Float64() * 100
		}
		ins := MustInstance(1+rng.Float64()*10, open, nil)
		if math.Abs(ins.OpenPrefix(n)-(ins.B0+ins.SumOpen())) > 1e-9 {
			return false
		}
		for k := 1; k <= n; k++ {
			if ins.OpenPrefix(k) < ins.OpenPrefix(k-1)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDescendingSortMatchesSortReverse holds NewInstance's typed sort to
// the sort.Reverse(sort.Float64Slice(…)) it replaced, bit for bit: the
// relative order of -0 and +0 (which compare equal) is part of what the
// solver fingerprints pin.
func TestDescendingSortMatchesSortReverse(t *testing.T) {
	rounds := 200_000
	if testing.Short() {
		rounds = 5_000
	}
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < rounds; r++ {
		// A small value set makes ties common, the case where the two
		// sorts could disagree.
		pool := []float64{0, negZero, 1, 2.5, 100, rng.ExpFloat64(), rng.Float64() * 1e3}
		a := make([]float64, rng.Intn(301))
		for i := range a {
			if rng.Intn(4) == 0 {
				a[i] = rng.NormFloat64() * 1e3
			} else {
				a[i] = pool[rng.Intn(len(pool))]
			}
		}
		b := append([]float64(nil), a...)
		slices.SortFunc(a, descending)
		sort.Sort(sort.Reverse(sort.Float64Slice(b)))
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("round %d, len %d: position %d holds %v, sort.Reverse gives %v", r, len(a), i, a[i], b[i])
			}
		}
	}
}
