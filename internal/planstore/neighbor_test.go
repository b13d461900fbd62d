package planstore

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/platform"
)

// refRecord is one record as the reference scan sees it: the test's
// own copy of what went into the store.
type refRecord struct {
	opts string
	ins  *platform.Instance
	word core.Word
}

// refNeighbor is the scan without an early exit, kept here as the
// reference: every record of the option set, compared as a string, the
// full multiset distance, the earliest record winning ties. It returns
// the record's position, or −1 when none is within budget, and how many
// records share the best distance.
func refNeighbor(recs []refRecord, req engine.Request, budget int) (best, bestDist, tied int) {
	opts := optsKey(req)
	best, bestDist = -1, budget+1
	for i, r := range recs {
		if r.opts != opts {
			continue
		}
		d := refMultisetDist(r.ins.OpenBW, req.Instance.OpenBW) + refMultisetDist(r.ins.GuardedBW, req.Instance.GuardedBW)
		if r.ins.B0 != req.Instance.B0 {
			d++
		}
		switch {
		case d < bestDist:
			best, bestDist, tied = i, d, 1
		case d == bestDist:
			tied++
		}
	}
	return best, bestDist, tied
}

// refMultisetDist is max(#only-in-a, #only-in-b) by a full merge of two
// non-increasing lists.
func refMultisetDist(a, b []float64) int {
	onlyA, onlyB := 0, 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			onlyA++
			i++
		default:
			onlyB++
			j++
		}
	}
	return max(onlyA+len(a)-i, onlyB+len(b)-j)
}

// recordWord gives record i a word of its own, so an answer names the
// record it came from.
func recordWord(i int) core.Word {
	w := make(core.Word, 24)
	for b := range w {
		if i>>b&1 == 1 {
			w[b] = platform.Open
		} else {
			w[b] = platform.Guarded
		}
	}
	return w
}

// TestNeighborMatchesLinearScan is the differential property: on
// seeded stores of every edit budget Neighbor, with its early exits
// and interned option sets, returns the same (record, distance) as the
// reference scan. The stores mix repeat-sized and tiny instances,
// Unif100, PlanetLab and homogeneous bandwidths, zero and −0
// bandwidths and two option sets, and hold stored mutants so that near
// records and ties are common; queries are mutants of stored records
// (adds, removes, rescales, zero flips, source retunes), fresh
// instances and a never-stored option set.
func TestNeighborMatchesLinearScan(t *testing.T) {
	const stores, records, queries = 12, 120, 200
	var found, ties int
	negZero := math.Copysign(0, -1)
	laws := []distribution.Distribution{
		distribution.Unif100(), distribution.PlanetLab(),
		distribution.Homogeneous{Value: 10}, distribution.Homogeneous{Value: 40},
	}
	optSets := [][]engine.RequestOption{
		{engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)},
		{engine.WithSolver("acyclic")},
		{engine.WithSolver("acyclic-search")}, // never stored
	}
	for _, budget := range []int{1, 4, 8} {
		for seed := int64(1); seed <= stores; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(budget)))
			fresh := func() *platform.Instance {
				n := 80 + rng.Intn(41)
				if rng.Intn(4) == 0 {
					n = 2 + rng.Intn(8)
				}
				ins, err := generator.Random(laws[rng.Intn(len(laws))], n, 0.2+0.7*rng.Float64(), rng)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 { // zero-bandwidth receivers of either sign
					for k := rng.Intn(3); k >= 0; k-- {
						z := 0.0
						if rng.Intn(2) == 0 {
							z = negZero
						}
						if rng.Intn(2) == 0 {
							_, err = ins.Add(platform.Open, z)
						} else {
							_, err = ins.Add(platform.Guarded, z)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				return ins
			}
			mutate := func(ins *platform.Instance, edits int) *platform.Instance {
				m := ins.Clone()
				for ; edits > 0; edits-- {
					var err error
					n, g := m.N(), m.M()
					switch rng.Intn(7) {
					case 0:
						_, err = m.Add(platform.Open, 1+99*rng.Float64())
					case 1:
						_, err = m.Add(platform.Guarded, 1+99*rng.Float64())
					case 2:
						if n > 1 {
							_, err = m.Remove(platform.Open, rng.Intn(n))
						}
					case 3:
						if g > 1 {
							_, err = m.Remove(platform.Guarded, rng.Intn(g))
						}
					case 4:
						if j := rng.Intn(n + g); j < n {
							_, err = m.Rescale(platform.Open, j, 0.8+0.4*rng.Float64())
						} else {
							_, err = m.Rescale(platform.Guarded, j-n, 0.8+0.4*rng.Float64())
						}
					case 5: // flip a zero's sign: distance 0
						for j, v := range m.OpenBW {
							if v == 0 {
								m.OpenBW[j] = -v
								break
							}
						}
					case 6:
						err = m.SetSourceBandwidth(m.B0 * (0.9 + 0.2*rng.Float64()))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				return m
			}

			s, err := Open(Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			s.budget = budget
			var recs []refRecord
			var sets []int // each record's option set
			for i := 0; i < records; i++ {
				ins, set := fresh(), rng.Intn(2)
				if i > 0 && rng.Intn(3) == 0 {
					ins = mutate(recs[rng.Intn(len(recs))].ins, 1+rng.Intn(budget+1))
				}
				sets = append(sets, set)
				req := engine.NewRequest(ins, optSets[set]...)
				var key [sha256.Size]byte
				binary.LittleEndian.PutUint64(key[:], uint64(i))
				s.mu.Lock()
				s.addLocked(key, recordRef{}, nil, nil, &req, recordWord(i))
				s.mu.Unlock()
				recs = append(recs, refRecord{optsKey(req), ins.Clone(), recordWord(i)})
			}

			for q := 0; q < queries; q++ {
				// Mostly mutants under their record's option set.
				r := rng.Intn(len(recs))
				ins, set := mutate(recs[r].ins, rng.Intn(budget+3)), sets[r]
				if q%5 == 4 {
					ins = fresh()
				}
				if rng.Intn(4) == 0 {
					set = rng.Intn(len(optSets))
				}
				req := engine.NewRequest(ins, optSets[set]...)
				want, wantDist, tied := refNeighbor(recs, req, budget)
				if want >= 0 {
					found++
					if tied > 1 {
						ties++
					}
				}
				got, ok := s.Neighbor(req)
				switch {
				case want < 0 && ok:
					t.Fatalf("budget %d seed %d query %d: Neighbor found %v at %d, the scan found none",
						budget, seed, q, got.Word, got.Distance)
				case want >= 0 && (!ok || got.Distance != wantDist || got.Word.String() != recs[want].word.String()):
					t.Fatalf("budget %d seed %d query %d: Neighbor %v at %d (ok=%v), the scan record %d (%v) at %d",
						budget, seed, q, got.Word, got.Distance, ok, want, recs[want].word, wantDist)
				}
			}
			s.Close()
		}
	}
	t.Logf("%d queries: %d found a neighbor, %d of them among tied records",
		3*stores*queries, found, ties)
}
