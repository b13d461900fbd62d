package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// testKeyFunc is a stand-in for wire.EncodeRequest: a deterministic
// canonical rendering of the request fields the cache must
// discriminate on.
func testKeyFunc(req Request) ([]byte, error) {
	doc := map[string]any{
		"solver":    req.Solver,
		"tolerance": req.Tolerance,
	}
	if req.Instance != nil {
		doc["b0"] = req.Instance.B0
		doc["open"] = req.Instance.OpenBW
		doc["guarded"] = req.Instance.GuardedBW
	}
	return json.Marshal(doc)
}

// countingRegistry returns a registry with one solver that counts its
// invocations.
func countingRegistry(t *testing.T, calls *atomic.Int64) *Registry {
	t.Helper()
	r := NewRegistry()
	r.MustRegister(NewSolver("acyclic", CapExact|CapHandlesGuarded|CapBuildsScheme,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			calls.Add(1)
			T, s, err := core.SolveAcyclicWithWorkspace(ins, ws)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s}, nil
		}))
	return r
}

func cacheFig1() *platform.Instance {
	return platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
}

func TestCacheHitSkipsSolver(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))

	first, err := r.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times, want 1 (second request must be a cache hit)", calls.Load())
	}
	if first != second {
		t.Error("cache hit returned a different *Plan than the memoized one")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestCacheDiscriminatesRequests(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	insA, insB := cacheFig1(), platform.MustInstance(6, []float64{5, 4}, []float64{4, 1, 1})

	for _, req := range []Request{
		NewRequest(insA, WithSolver("acyclic"), WithCache(c)),
		NewRequest(insB, WithSolver("acyclic"), WithCache(c)),
		NewRequest(insA, WithSolver("acyclic"), WithTolerance(1e-9), WithCache(c)),
	} {
		if _, err := r.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("solver ran %d times, want 3 (distinct requests must not collide)", calls.Load())
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 0 hits / 3 misses", st)
	}
}

// TestCacheSingleflight floods one cache with identical concurrent
// requests (run under -race in CI): exactly one solve must happen, and
// every caller gets the same plan.
func TestCacheSingleflight(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))

	const clients = 32
	plans := make([]*Plan, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = r.Execute(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("client %d got a different plan pointer", i)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times under concurrent identical load, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != clients-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+shared", st, clients-1)
	}
}

func TestCacheLRUBound(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(2, testKeyFunc)
	reqFor := func(b0 float64) Request {
		return NewRequest(platform.MustInstance(b0, []float64{5, 5}, nil),
			WithSolver("acyclic"), WithCache(c))
	}
	for _, b0 := range []float64{6, 7, 8} { // third insert evicts b0=6
		if _, err := r.Execute(context.Background(), reqFor(b0)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// b0=6 was evicted: re-solving it is a miss; b0=8 is still warm.
	if _, err := r.Execute(context.Background(), reqFor(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(context.Background(), reqFor(8)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("solver ran %d times, want 4 (3 cold + 1 evicted re-solve)", calls.Load())
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	var calls atomic.Int64
	r := NewRegistry()
	r.MustRegister(NewSolver("failing", CapAnytime,
		func(*platform.Instance, *core.Workspace) (Result, error) {
			calls.Add(1)
			return Result{}, fmt.Errorf("%w: synthetic failure", ErrInfeasible)
		}))
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("failing"), WithCache(c))
	for i := 0; i < 2; i++ {
		if _, err := r.Execute(context.Background(), req); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("attempt %d: err = %v, want ErrInfeasible", i, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("solver ran %d times, want 2 (errors must not be memoized)", calls.Load())
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed solves landed in the cache: %+v", st)
	}
}

// TestCacheFollowerSurvivesCanceledLeader: a follower whose own context
// is alive must not inherit the leader's cancellation — it takes over
// the flight and solves.
func TestCacheFollowerSurvivesCanceledLeader(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	var attempt atomic.Int64
	r := NewRegistry()
	r.MustRegister(NewSolver("slow", CapAnytime,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			if attempt.Add(1) == 1 {
				close(started)
				<-block // leader parks here until canceled
				return Result{}, context.Canceled
			}
			return Result{Throughput: ins.B0}, nil // follower's retry
		}))
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("slow"), WithCache(c))

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := r.Execute(leaderCtx, req)
		leaderDone <- err
	}()
	<-started // leader is inside the solver

	followerDone := make(chan error, 1)
	go func() {
		_, err := r.Execute(context.Background(), req)
		followerDone <- err
	}()

	cancelLeader()
	close(block)
	if err := <-leaderDone; !errors.Is(err, ErrCanceled) {
		t.Fatalf("leader err = %v, want ErrCanceled", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("follower failed after leader cancellation: %v", err)
	}
	if attempt.Load() != 2 {
		t.Fatalf("solver attempts = %d, want 2 (follower takes over the flight)", attempt.Load())
	}
}

// TestCacheExecuteRendered: the document path memoizes the rendered
// document; hits return identical bytes without re-running the solver
// or the renderer. An entry holds one kind of answer: a document entry
// does not answer the plan path, a plan entry does not answer the
// document path, and neither caller overwrites the other's entry.
func TestCacheExecuteRendered(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))
	var renders atomic.Int64
	render := func(p *Plan) ([]byte, error) {
		renders.Add(1)
		return json.Marshal(map[string]float64{"throughput": p.Throughput})
	}
	ctx := context.Background()

	first, info, err := c.ExecuteRendered(ctx, r, req, render)
	if err != nil || info.Hit {
		t.Fatalf("cold call: info=%+v err=%v", info, err)
	}
	second, info, err := c.ExecuteRendered(ctx, r, req, render)
	if err != nil || !info.Hit {
		t.Fatalf("warm call: info=%+v err=%v", info, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("rendered bytes differ: %s vs %s", first, second)
	}
	if calls.Load() != 1 || renders.Load() != 1 {
		t.Fatalf("solver/render calls = %d/%d, want 1/1", calls.Load(), renders.Load())
	}

	// A document entry does not answer the plan path: the caller solves,
	// and the entry keeps serving its document.
	if _, err := r.Execute(ctx, req); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("solver calls = %d, want 2 (a document entry holds no plan)", calls.Load())
	}
	third, info, err := c.ExecuteRendered(ctx, r, req, render)
	if err != nil || !info.Hit || !bytes.Equal(third, first) {
		t.Fatalf("document entry after a plan-path solve: info=%+v err=%v out=%s", info, err, third)
	}

	// A plan entry does not answer the document path: each call solves
	// and renders, and the plan path still hits the plan it left.
	other := NewRequest(cacheFig1(), WithSolver("acyclic"), WithTolerance(1e-9), WithCache(c))
	plan, err := r.Execute(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	var outs [2][]byte
	for i := range outs {
		out, info, err := c.ExecuteRendered(ctx, r, other, render)
		if err != nil || info.Hit {
			t.Fatalf("document call %d on a plan entry: info=%+v err=%v, want a miss", i, info, err)
		}
		outs[i] = out
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("rendered bytes differ: %s vs %s", outs[0], outs[1])
	}
	if calls.Load() != 5 || renders.Load() != 3 {
		t.Fatalf("solver/render calls = %d/%d, want 5/3", calls.Load(), renders.Load())
	}
	again, err := r.Execute(ctx, other)
	if err != nil || again != plan {
		t.Fatalf("plan path: %p err=%v, want the entry's plan %p (never overwritten)", again, err, plan)
	}
	if calls.Load() != 5 {
		t.Fatalf("solver calls = %d, want 5 (the plan entry answers its own path)", calls.Load())
	}
	if st := c.Stats(); st.Entries != 2 || st.Hits != 3 || st.Misses != 5 {
		t.Fatalf("stats = %+v, want 2 entries, 3 hits and 5 misses", st)
	}
}

// TestCacheFillServesByteHits pins the cluster back-fill path: a
// pre-rendered document kept with Fill answers Rendered and the
// rendered execute path by its content address without ever running
// the solver, and a later plan-path caller solves once and leaves the
// document entry as it is.
func TestCacheFillServesByteHits(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"))
	data, err := testKeyFunc(req)
	if err != nil {
		t.Fatal(err)
	}
	key := sha256.Sum256(data)
	render := func(p *Plan) ([]byte, error) {
		return []byte(fmt.Sprintf("plan:%.6f", p.Throughput)), nil
	}

	if _, ok := c.Rendered(key); ok {
		t.Fatal("Rendered hit on an empty cache")
	}
	doc := []byte("plan:filled-by-peer")
	c.Fill(key, doc)
	if out, ok := c.Rendered(key); !ok || !bytes.Equal(out, doc) {
		t.Fatalf("Rendered = (%q, %v), want the filled document", out, ok)
	}
	out, info, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit || !bytes.Equal(out, doc) {
		t.Fatalf("info=%+v out=%q, want the filled document", info, out)
	}
	if calls.Load() != 0 {
		t.Fatalf("solver ran %d times answering a filled entry", calls.Load())
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 hits and no miss (Fill counts neither)", st)
	}

	// A plan-path caller needs the *Plan the fill does not carry: it
	// solves once, adds no entry, and the document entry keeps serving
	// the original rendering.
	plan, err := c.execute(context.Background(), r, req)
	if err != nil || plan == nil {
		t.Fatalf("plan=%v err=%v", plan, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times for the plan path, want exactly 1", calls.Load())
	}
	out2, info2, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || !info2.Hit || !bytes.Equal(out2, doc) {
		t.Fatalf("after the plan-path solve: info=%+v out=%q err=%v (the filled rendering must stay)", info2, out2, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %+v, want 1 (the plan-path solve leaves the document entry as it is)", st)
	}

	// Filling an existing entry never clobbers its rendering.
	c.Fill(key, []byte("plan:other"))
	out3, _, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || !bytes.Equal(out3, doc) {
		t.Fatalf("refill clobbered the stored rendering: %q", out3)
	}
}

// TestCacheRecentDiskHitOutlivesOlderPlan is the eviction-rule
// regression: the LRU evicts by recency alone, so a document entry (a
// disk hit) that was just used outlives an older solved plan.
// Requests whose rendered bytes came from the store must not be pushed
// back to disk ahead of one-off solves.
func TestCacheRecentDiskHitOutlivesOlderPlan(t *testing.T) {
	var calls atomic.Int64
	r := countingRegistry(t, &calls)
	c := NewCache(2, testKeyFunc)
	reqFor := func(b0 float64) Request {
		return NewRequest(platform.MustInstance(b0, []float64{5, 5}, nil),
			WithSolver("acyclic"), WithCache(c))
	}
	a, b, cc := reqFor(6), reqFor(7), reqFor(8)
	data, err := testKeyFunc(a)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{"persisted":"A"}`)
	store := &mockPlanStore{rendered: map[[sha256.Size]byte][]byte{sha256.Sum256(data): doc}}
	c.SetStore(store)
	render := func(p *Plan) ([]byte, error) { return json.Marshal(p.Throughput) }
	ctx := context.Background()

	readA := func(step int) {
		t.Helper()
		out, info, err := c.ExecuteRendered(ctx, r, a, render)
		if err != nil || !info.Hit || !bytes.Equal(out, doc) {
			t.Fatalf("step %d: info=%+v out=%q err=%v, want A's stored document as a hit", step, info, out, err)
		}
	}
	readA(1) // a disk hit: A enters memory as a document entry
	if _, err := r.Execute(ctx, b); err != nil {
		t.Fatal(err)
	}
	readA(3) // a memory hit: A is now more recent than B
	if _, err := r.Execute(ctx, cc); err != nil {
		t.Fatal(err)
	}
	readA(5) // B, the least recent, was evicted; A is still held
	store.mu.Lock()
	reads := store.reads
	store.mu.Unlock()
	if reads != 1 {
		t.Fatalf("store read %d times, want 1 (a recently used disk-sourced entry must outlive an older solved plan)", reads)
	}
	if calls.Load() != 2 {
		t.Fatalf("solver ran %d times, want 2 (B and C)", calls.Load())
	}
}

// mockPlanStore scripts the PlanStore interface for cache tests.
type mockPlanStore struct {
	mu       sync.Mutex
	rendered map[[sha256.Size]byte][]byte
	neighbor *NeighborPlan
	reads    int // Rendered calls
	persists int
	warmHeld []bool
}

func (m *mockPlanStore) Rendered(key [sha256.Size]byte) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reads++
	out, ok := m.rendered[key]
	return out, ok
}

func (m *mockPlanStore) Neighbor(Request) (NeighborPlan, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.neighbor == nil {
		return NeighborPlan{}, false
	}
	return *m.neighbor, true
}

func (m *mockPlanStore) Persist(req Request, reqDoc, planDoc []byte, word core.Word) {
	m.mu.Lock()
	m.persists++
	m.mu.Unlock()
}

func (m *mockPlanStore) NoteWarmStart(held bool) {
	m.mu.Lock()
	m.warmHeld = append(m.warmHeld, held)
	m.mu.Unlock()
}

// mockIncRegistry registers an "acyclic" solver whose repair entry is
// scripted: it records the warm-start word it was handed and reports
// FellBack per the test's wish, solving fresh internally so the result
// is always exact.
func mockIncRegistry(solves, repairs *atomic.Int64, lastPrev *core.Word, fellBack bool, repairErr error) *Registry {
	r := NewRegistry()
	r.MustRegister(NewIncrementalSolver("acyclic", CapExact|CapHandlesGuarded|CapBuildsScheme,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			solves.Add(1)
			T, s, w, err := core.SolveAcyclicWordWithWorkspace(ins, ws)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s, Word: w}, nil
		},
		func(ins *platform.Instance, prev core.Word, ws *core.Workspace) (core.RepairResult, error) {
			repairs.Add(1)
			if lastPrev != nil {
				*lastPrev = prev
			}
			if repairErr != nil {
				return core.RepairResult{}, repairErr
			}
			T, s, w, err := core.SolveAcyclicWordWithWorkspace(ins, ws)
			if err != nil {
				return core.RepairResult{}, err
			}
			return core.RepairResult{T: T, Scheme: s, Word: w, Verified: T, FellBack: fellBack}, nil
		}))
	return r
}

// TestCacheStoreDiskHit: an exact document persisted by an earlier
// process answers the rendered path byte-identical with no solve.
func TestCacheStoreDiskHit(t *testing.T) {
	var solves atomic.Int64
	r := countingRegistry(t, &solves)
	c := NewCache(8, testKeyFunc)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))
	data, err := testKeyFunc(req)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{"persisted":true}`)
	store := &mockPlanStore{rendered: map[[sha256.Size]byte][]byte{sha256.Sum256(data): doc}}
	c.SetStore(store)

	render := func(p *Plan) ([]byte, error) { return nil, fmt.Errorf("must not render a disk hit") }
	out, info, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || !info.Hit || info.Warm {
		t.Fatalf("info=%+v err=%v, want a plain hit", info, err)
	}
	if !bytes.Equal(out, doc) {
		t.Fatalf("out=%q, want the persisted document byte-identical", out)
	}
	if solves.Load() != 0 {
		t.Fatalf("solver ran %d times answering a persisted document", solves.Load())
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want the disk answer counted as a hit", st)
	}
}

// TestCacheStoreWarmStart: a neighbor's word seeds the repair path; the
// repair holds, so the answer is warm — and NOT re-spilled (admission
// policy: a repaired plan sits within edit budget of the entry that
// served it, so persisting it adds no similarity coverage).
func TestCacheStoreWarmStart(t *testing.T) {
	var solves, repairs atomic.Int64
	var prev core.Word
	r := mockIncRegistry(&solves, &repairs, &prev, false, nil)
	c := NewCache(8, testKeyFunc)
	nbWord, err := core.ParseWord("gogog")
	if err != nil {
		t.Fatal(err)
	}
	store := &mockPlanStore{neighbor: &NeighborPlan{Word: nbWord, Distance: 2}}
	c.SetStore(store)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))
	render := func(p *Plan) ([]byte, error) { return json.Marshal(p.Throughput) }

	out, info, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || len(out) == 0 {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if info.Hit || !info.Warm || info.Distance != 2 {
		t.Fatalf("info=%+v, want a held warm start at distance 2", info)
	}
	if repairs.Load() != 1 || solves.Load() != 0 {
		t.Fatalf("repairs/solves = %d/%d, want 1/0 (warm start routes through repair)", repairs.Load(), solves.Load())
	}
	if prev.String() != nbWord.String() {
		t.Fatalf("repair saw warm word %q, want the neighbor's %q", prev, nbWord)
	}
	// The document entry does not answer the plan path: that caller
	// warm-starts a solve of its own and leaves the entry as it is.
	plan, err := c.execute(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.WarmStarted || plan.NeighborDistance != 2 || !plan.Repaired {
		t.Fatalf("plan provenance = warm:%v dist:%d repaired:%v", plan.WarmStarted, plan.NeighborDistance, plan.Repaired)
	}
	if repairs.Load() != 2 || solves.Load() != 0 {
		t.Fatalf("repairs/solves = %d/%d, want 2/0 (the plan path repairs again)", repairs.Load(), solves.Load())
	}
	again, info, err := c.ExecuteRendered(context.Background(), r, req, render)
	if err != nil || !info.Hit || !bytes.Equal(again, out) {
		t.Fatalf("document re-read: info=%+v err=%v out=%q, want the first document as a hit", info, err, again)
	}
	store.mu.Lock()
	persists, warmHeld := store.persists, append([]bool(nil), store.warmHeld...)
	store.mu.Unlock()
	if persists != 0 {
		t.Fatalf("persists = %d, want 0 (a held repair is not re-spilled, and the plan path spills nothing)", persists)
	}
	if len(warmHeld) != 2 || !warmHeld[0] || !warmHeld[1] {
		t.Fatalf("warm outcomes = %v, want two held", warmHeld)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want both warm solves counted as misses, the re-read as a hit, one entry", st)
	}
}

// TestCacheStoreWarmFallback: the repair deviates (FellBack) — the
// answer is exact but not warm, and the store hears about the fallback.
func TestCacheStoreWarmFallback(t *testing.T) {
	var solves, repairs atomic.Int64
	r := mockIncRegistry(&solves, &repairs, nil, true, nil)
	c := NewCache(8, testKeyFunc)
	nbWord, err := core.ParseWord("ggggg")
	if err != nil {
		t.Fatal(err)
	}
	store := &mockPlanStore{neighbor: &NeighborPlan{Word: nbWord, Distance: 4}}
	c.SetStore(store)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))

	plan, err := c.execute(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.WarmStarted || plan.Repaired {
		t.Fatalf("warm:%v repaired:%v, want an attempted warm start that fell back", plan.WarmStarted, plan.Repaired)
	}
	store.mu.Lock()
	warmHeld := append([]bool(nil), store.warmHeld...)
	store.mu.Unlock()
	if len(warmHeld) != 1 || warmHeld[0] {
		t.Fatalf("warm outcomes = %v, want one fallback", warmHeld)
	}
}

// TestCacheStoreWarmErrorRetriesCold: a repair-path failure must never
// fail a request the cold path would have answered.
func TestCacheStoreWarmErrorRetriesCold(t *testing.T) {
	var solves, repairs atomic.Int64
	r := mockIncRegistry(&solves, &repairs, nil, false, fmt.Errorf("synthetic repair failure"))
	c := NewCache(8, testKeyFunc)
	nbWord, err := core.ParseWord("ooggg")
	if err != nil {
		t.Fatal(err)
	}
	store := &mockPlanStore{neighbor: &NeighborPlan{Word: nbWord, Distance: 1}}
	c.SetStore(store)
	req := NewRequest(cacheFig1(), WithSolver("acyclic"), WithCache(c))

	plan, err := c.execute(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	if repairs.Load() != 1 || solves.Load() != 1 {
		t.Fatalf("repairs/solves = %d/%d, want 1/1 (failed warm retries cold once)", repairs.Load(), solves.Load())
	}
	if plan.WarmStarted || plan.Repaired {
		t.Fatalf("warm:%v repaired:%v, want a clean cold answer", plan.WarmStarted, plan.Repaired)
	}
}
