package planstore

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/platform"
)

// neighborSink keeps the benchmarked Neighbor calls observable.
var neighborSink engine.NeighborPlan

// BenchmarkStoreNeighbor times the similarity search on stores shaped
// like the repeat workload's: generator.Random instances of 80–120
// receivers under Unif100 or PlanetLab, one acyclic option set. Records
// go in through addLocked with the solve path's hints, so building a
// store does no log I/O. One op is one pass over a fixed set of 256
// queries: three in four are 1–3-rescale mutants of a stored instance,
// the rest fresh instances.
func BenchmarkStoreNeighbor(b *testing.B) {
	for _, size := range []struct {
		name    string
		records int
	}{{"2k", 2048}, {"20k", 20000}} {
		var s *Store
		var queries []engine.Request
		b.Run(size.name, func(b *testing.B) {
			if s == nil { // built once for the N=1 probe and the timed run
				s, queries = neighborBenchStore(b, size.records)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					neighborSink, _ = s.Neighbor(q)
				}
			}
		})
		if s != nil {
			s.Close()
		}
	}
}

// neighborBenchStore builds a store of n records and its query set.
func neighborBenchStore(b *testing.B, n int) (*Store, []engine.Request) {
	b.Helper()
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	laws := []distribution.Distribution{distribution.Unif100(), distribution.PlanetLab()}
	draw := func() *platform.Instance {
		ins, err := generator.Random(laws[rng.Intn(len(laws))], 80+rng.Intn(41), 0.2+0.7*rng.Float64(), rng)
		if err != nil {
			b.Fatal(err)
		}
		return ins
	}
	request := func(ins *platform.Instance) engine.Request {
		return engine.NewRequest(ins, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
	}

	const nQueries = 256
	// Mutant bases, drawn before the store so the records are kept
	// only while they are needed.
	bases := make(map[int]*platform.Instance)
	baseOf := make([]int, nQueries*3/4)
	for i := range baseOf {
		baseOf[i] = rng.Intn(n)
		bases[baseOf[i]] = nil
	}
	word := make(core.Word, 100) // shared: Neighbor copies it out
	for i := 0; i < n; i++ {
		ins := draw()
		if _, ok := bases[i]; ok {
			bases[i] = ins.Clone()
		}
		req := request(ins)
		var id [8]byte
		binary.LittleEndian.PutUint64(id[:], uint64(i))
		s.mu.Lock()
		s.addLocked(sha256.Sum256(id[:]), recordRef{}, nil, nil, &req, word)
		s.mu.Unlock()
	}

	queries := make([]engine.Request, 0, nQueries)
	for _, i := range baseOf {
		mut := bases[i].Clone()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			f := 0.8 + 0.4*rng.Float64()
			if j := rng.Intn(mut.N() + mut.M()); j < mut.N() {
				_, err = mut.Rescale(platform.Open, j, f)
			} else {
				_, err = mut.Rescale(platform.Guarded, j-mut.N(), f)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		queries = append(queries, request(mut))
	}
	for len(queries) < nQueries {
		queries = append(queries, request(draw()))
	}
	return s, queries
}
