package wire_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/wire"
)

// The codec layer on benchmark-shaped documents. These benchmarks call
// exported functions only, so the file also runs against an older wire
// package for a before row (BenchmarkAppendFloat reaches the float
// kernel through export_test.go; give an older package an
// export_test.go that binds AppendFloat to its float rule):
//
//	go test -run '^$' -benchmem -benchtime 20x -count 3 -cpu 1 -bench 'BenchmarkEncode|BenchmarkDecode|BenchmarkAppendFloat' ./internal/wire

// solved draws an acyclic, tolerance-checked request of n receivers, as
// the cold and repeat workloads send them, and solves it.
func solved(b *testing.B, seed int64, n int) (engine.Request, *engine.Plan) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	ins, err := generator.Random(distribution.PlanetLab(), n, 0.55, rng)
	if err != nil {
		b.Fatal(err)
	}
	req := engine.NewRequest(ins, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
	plan, err := engine.Execute(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	return req, plan
}

// BenchmarkEncodePlan renders a cold-shaped plan (500 receivers).
func BenchmarkEncodePlan(b *testing.B) {
	_, plan := solved(b, 1, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodePlan(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRequest renders the request of BenchmarkEncodePlan as
// the plan cache keys it: two float lists of 500 bandwidths in all.
func BenchmarkEncodeRequest(b *testing.B) {
	req, _ := solved(b, 1, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeRequest(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFloat formats 4,096 edge rates of cold-shaped plans
// (500 receivers each), the floats that make up most of a plan
// document, one op per 4,096.
func BenchmarkAppendFloat(b *testing.B) {
	var rates []float64
	for seed := int64(1); len(rates) < 4096; seed++ {
		_, plan := solved(b, seed, 500)
		for _, e := range plan.Scheme.Edges() {
			rates = append(rates, e.Weight)
		}
	}
	rates = rates[:4096]
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rates {
			buf = wire.AppendFloat(buf[:0], r)
		}
	}
}

// BenchmarkDecodeRequest decodes the request of BenchmarkEncodePlan.
func BenchmarkDecodeRequest(b *testing.B) {
	req, _ := solved(b, 1, 500)
	doc, err := wire.EncodeRequest(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeRequest(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBatch renders a sweep-shaped batch: 36 acyclic-search items of
// 10–50 receivers.
func sweepBatch(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	reqs := make([]engine.Request, 36)
	for i := range reqs {
		ins, err := generator.Random(distribution.Unif100(), 10+rng.Intn(41), 0.2+0.7*rng.Float64(), rng)
		if err != nil {
			tb.Fatal(err)
		}
		reqs[i] = engine.NewRequest(ins, engine.WithSolver("acyclic-search"))
	}
	doc, err := wire.EncodeBatch(reqs)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// BenchmarkDecodeBatch decodes a sweep-shaped batch (sweepBatch).
func BenchmarkDecodeBatch(b *testing.B) {
	doc := sweepBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeBatch(doc, "batch"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeBatchAllocs bounds BenchmarkDecodeBatch's allocations: the
// items convert as they close and share two arrays of scratch, so no
// []Request or per-item float slice is allocated. That takes 269 (271
// under the race detector); the per-item reads took 333.
func TestDecodeBatchAllocs(t *testing.T) {
	doc := sweepBatch(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.DecodeBatch(doc, "batch"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 271 {
		t.Fatalf("DecodeBatch allocates %v times on a 36-item batch, want at most 271", allocs)
	}
}

// BenchmarkDecodePlan decodes a repeat-shaped plan (100 receivers), as
// the plan store's replay does for every record.
func BenchmarkDecodePlan(b *testing.B) {
	_, plan := solved(b, 3, 100)
	doc, err := wire.EncodePlan(plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodePlan(doc); err != nil {
			b.Fatal(err)
		}
	}
}
