package planstore

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/wire"
)

// TestWarmStartProperty is the end-to-end property over the warm-start
// tier, run under -race in CI: 200 seeded mutated instances flow
// through a cache sitting on a store, and for every answer — hot, warm
// or cold — the served plan must be max-flow verified and agree with a
// fresh from-scratch solve of the same instance. Warm starts are an
// optimization, never an approximation; a deviating repair must fall
// back to the full solve invisibly.
func TestWarmStartProperty(t *testing.T) {
	const rounds = 200
	rng := rand.New(rand.NewSource(1009))

	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cache := engine.NewCache(512, wire.EncodeRequest)
	cache.SetStore(s)
	render := func(p *engine.Plan) ([]byte, error) { return wire.EncodePlan(p) }
	ctx := context.Background()

	base := func() *platform.Instance {
		open := make([]float64, 20)
		for i := range open {
			open[i] = 1 + 99*rng.Float64()
		}
		guarded := make([]float64, 15)
		for i := range guarded {
			guarded[i] = 1 + 99*rng.Float64()
		}
		return platform.MustInstance(40+40*rng.Float64(), open, guarded)
	}()

	// Seed the store with the base instance's plan so round one already
	// has a neighbor to warm from.
	seedReq := engine.NewRequest(base, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
	if _, _, err := cache.ExecuteRendered(ctx, engine.Default, seedReq, render); err != nil {
		t.Fatal(err)
	}

	// mutate applies 1–3 structural edits, staying within the store's
	// default edit budget so warm starts stay reachable.
	mutate := func(ins *platform.Instance) {
		for edits := 1 + rng.Intn(3); edits > 0; edits-- {
			switch rng.Intn(6) {
			case 0:
				if _, err := ins.Add(platform.Open, 1+99*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			case 1:
				if _, err := ins.Add(platform.Guarded, 1+99*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			case 2:
				if len(ins.OpenBW) > 1 {
					if _, err := ins.Remove(platform.Open, rng.Intn(len(ins.OpenBW))); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				if len(ins.GuardedBW) > 1 {
					if _, err := ins.Remove(platform.Guarded, rng.Intn(len(ins.GuardedBW))); err != nil {
						t.Fatal(err)
					}
				}
			case 4:
				if _, err := ins.Rescale(platform.Open, rng.Intn(len(ins.OpenBW)), 0.75+0.5*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			case 5:
				if _, err := ins.Rescale(platform.Guarded, rng.Intn(len(ins.GuardedBW)), 0.75+0.5*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// wirePlan is the slice of the response document the property
	// checks; decoding the raw JSON keeps the test independent of how
	// much provenance wire.DecodePlan restores.
	type wirePlan struct {
		Throughput       float64 `json:"throughput"`
		Verified         float64 `json:"verified"`
		WarmStarted      bool    `json:"warm_started"`
		NeighborDistance int     `json:"neighbor_distance"`
	}

	var warmHeld, warmAttempts, hits int
	for i := 0; i < rounds; i++ {
		mutant := base.Clone()
		mutate(mutant)
		req := engine.NewRequest(mutant, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
		out, info, err := cache.ExecuteRendered(ctx, engine.Default, req, render)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		var wp wirePlan
		if err := wire.Unmarshal(out, &wp, "plan"); err != nil {
			t.Fatalf("round %d: served document does not decode: %v", i, err)
		}
		if info.Hit {
			hits++ // rng revisited an earlier mutant: served from cache
			continue
		}
		if wp.WarmStarted {
			warmAttempts++
			if wp.NeighborDistance > DefaultEditBudget {
				t.Fatalf("round %d: neighbor distance %d exceeds budget %d", i, wp.NeighborDistance, DefaultEditBudget)
			}
		}
		if info.Warm {
			warmHeld++
			if !wp.WarmStarted {
				t.Fatalf("round %d: info says warm, document says cold", i)
			}
		}
		scale := math.Max(1, wp.Throughput)
		if math.Abs(wp.Verified-wp.Throughput) > 1e-6*scale {
			t.Fatalf("round %d: served plan not verified: T=%v verified=%v (warm=%v)",
				i, wp.Throughput, wp.Verified, wp.WarmStarted)
		}
		// The ground truth: a from-scratch solve of the same instance.
		fresh, err := engine.Execute(ctx, engine.NewRequest(mutant.Clone(),
			engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)))
		if err != nil {
			t.Fatalf("round %d: fresh solve: %v", i, err)
		}
		if math.Abs(fresh.Throughput-wp.Throughput) > 1e-6*scale {
			t.Fatalf("round %d: warm answer %v deviates from fresh solve %v (warm=%v dist=%d)",
				i, wp.Throughput, fresh.Throughput, wp.WarmStarted, wp.NeighborDistance)
		}
	}

	st := s.Stats()
	if int(st.WarmHits) != warmHeld {
		t.Fatalf("store counted %d warm hits, responses carried %d", st.WarmHits, warmHeld)
	}
	if int(st.WarmHits+st.Fallbacks) != warmAttempts {
		t.Fatalf("store counted %d warm attempts (%d held + %d fell back), responses carried %d",
			st.WarmHits+st.Fallbacks, st.WarmHits, st.Fallbacks, warmAttempts)
	}
	if warmHeld == 0 {
		t.Fatalf("no warm start held across %d mutated rounds (attempts=%d hits=%d) — the warm tier is dead",
			rounds, warmAttempts, hits)
	}
	t.Logf("rounds=%d hits=%d warm attempts=%d held=%d fallbacks=%d store entries=%d",
		rounds, hits, warmAttempts, warmHeld, st.Fallbacks, st.Entries)
}
