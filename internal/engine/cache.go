package engine

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// CacheKeyFunc renders a Request in a canonical, deterministic byte
// form — two requests that mean the same thing must produce the same
// bytes. The wire codec's EncodeRequest is exactly this function; the
// engine takes it as a parameter instead of importing the codec (wire
// depends on engine, not the other way around). The cache addresses
// entries by the SHA-256 of these bytes.
type CacheKeyFunc func(Request) ([]byte, error)

// PlanStore is the persistence and similarity tier a Cache can sit on
// top of (internal/planstore implements it; the engine only sees the
// interface so the dependency arrow keeps pointing at the engine). A
// store answers two kinds of miss:
//
//   - Rendered: the exact content address was persisted by an earlier
//     process — serve the stored canonical document without a solve;
//   - Neighbor: a *similar* instance was persisted — hand back its
//     encoding word and edit distance so the solve can warm-start the
//     incremental-repair path instead of starting from scratch.
//
// All methods must be safe for concurrent use.
type PlanStore interface {
	// Rendered returns the stored canonical plan document for the exact
	// request address, if present. The bytes are immutable.
	Rendered(key [sha256.Size]byte) ([]byte, bool)
	// Neighbor finds the closest stored instance compatible with the
	// request (same solver and options, node-multiset edit distance
	// within the store's budget) and returns its word as a warm start.
	Neighbor(req Request) (NeighborPlan, bool)
	// Persist spills one solved request: the canonical request document
	// (whose SHA-256 is the content address) and the canonical plan
	// document. Duplicate keys are no-ops. req is the decoded form of
	// reqDoc and word, when non-nil, the plan's encoding word — hints
	// that let the store index the entry for similarity search without
	// re-parsing documents it was just handed (the solve path knows
	// both; a caller passing a nil word makes the store decode the plan
	// document itself).
	Persist(req Request, reqDoc, planDoc []byte, word core.Word)
	// NoteWarmStart records the outcome of a Neighbor-seeded solve:
	// held=true when the repair verified (a warm hit), false when it
	// fell back to a full solve.
	NoteWarmStart(held bool)
}

// NeighborPlan is a warm start found by a PlanStore: the stored
// solution's encoding word and how far its instance is from the query
// (node-multiset edit distance).
type NeighborPlan struct {
	Word     core.Word
	Distance int
}

// Cache memoizes successful solves content-addressed by the canonical
// encoding of the Request. Because every solve is a pure function of
// its request (the paper's planning problems carry no hidden state), a
// cached answer is indistinguishable from a fresh one — and since the
// wire encoding is canonical, a cached document is byte-identical to a
// fresh rendering.
//
// It is the only in-memory plan tier, and three mechanisms compose:
//
//   - one size-bounded LRU keyed by content address and evicted by
//     recency alone. An entry holds one kind of answer, the one its
//     path produced: a canonical document (ExecuteRendered, Fill, a
//     disk hit) or a solved *Plan (Execute with WithCache). A caller
//     that needs the other kind solves and leaves the entry as it is;
//   - singleflight deduplication: concurrent identical requests of one
//     kind collapse onto one in-flight solve, followers wait for the
//     leader's result (or their own context, whichever ends first);
//   - monotonic hit/miss/shared/eviction counters (Stats), surfaced by
//     the service's /metrics endpoint. Every answer from a held entry
//     counts as one hit, whether it came through Rendered, Execute or
//     ExecuteRendered.
//
// A Cache can additionally sit on a PlanStore (SetStore): misses then
// consult the store for a similar instance's word (warm start through
// the repair path) and, on the document path, for the exact document
// (disk hit); every rendered solve is spilled back so the store
// survives restarts.
//
// Cached plans and documents are shared between callers and must be
// treated as immutable. A Cache is safe for concurrent use. The service
// builds one, always, and answers every stateless solve through
// ExecuteRendered; library callers attach one to a request with
// WithCache.
type Cache struct {
	key CacheKeyFunc
	max int

	mu       sync.Mutex
	lru      *list.List // of *cacheEntry, front = most recent
	entries  map[[sha256.Size]byte]*list.Element
	inflight map[flightKey]*flight
	store    PlanStore

	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one memoized answer of one kind: a canonical document
// (ExecuteRendered, Fill or a disk hit; plan == nil) or a solved plan
// (Execute with WithCache; rendered == nil).
type cacheEntry struct {
	key      [sha256.Size]byte
	plan     *Plan
	rendered []byte
}

// flightKey names one in-progress solve: a content address and the
// kind of answer its leader produces.
type flightKey struct {
	key [sha256.Size]byte
	doc bool
}

// flight is one in-progress solve that followers wait on.
type flight struct {
	done     chan struct{} // closed after plan/rendered/err are set
	plan     *Plan         // the answer of a plan flight
	rendered []byte        // the answer of a document flight
	info     RenderedInfo
	err      error
}

// DefaultCacheEntries is the LRU bound used when NewCache is given a
// non-positive size.
const DefaultCacheEntries = 1024

// NewCache builds a plan cache bounded to maxEntries entries (≤ 0
// means DefaultCacheEntries). key renders requests canonically;
// pass wire.EncodeRequest (the facade's NewPlanCache does).
func NewCache(maxEntries int, key CacheKeyFunc) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &Cache{
		key:      key,
		max:      maxEntries,
		lru:      list.New(),
		entries:  make(map[[sha256.Size]byte]*list.Element),
		inflight: make(map[flightKey]*flight),
	}
}

// SetStore attaches a persistence/similarity tier under the cache (nil
// detaches). The miss path reads the pointer under the cache lock, so
// SetStore may race with early requests; a solve already past its
// store lookup may still spill to the tier it started with.
func (c *Cache) SetStore(s PlanStore) {
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

// getStore reads the attached store under the lock (SetStore may race
// with early requests during boot).
func (c *Cache) getStore() PlanStore {
	c.mu.Lock()
	s := c.store
	c.mu.Unlock()
	return s
}

// CacheStats is a monotonic snapshot of a cache's counters (Entries
// is the current size, the rest only grow).
type CacheStats struct {
	// Hits counts lookups answered from a completed entry (memory or,
	// with a store attached, the persisted document).
	Hits int64
	// Misses counts lookups that led this caller to run a solve —
	// warm-started or not. Disk-exact answers are hits, not misses.
	Misses int64
	// Shared counts lookups that joined another caller's in-flight
	// solve instead of starting their own (singleflight deduplication).
	Shared int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the number of entries currently held, documents and
	// plans alike (an entry holds one of them).
	Entries int
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// Rendered returns the canonical plan document held in memory under a
// content address (the SHA-256 of a canonical request encoding),
// bumping its recency and counting a hit. It never solves, renders or
// reads the store: a missing entry, or a plan entry, is a miss that
// counts nothing, and the caller falls back to ExecuteRendered. The
// returned bytes are immutable.
func (c *Cache) Rendered(key [sha256.Size]byte) ([]byte, bool) {
	c.mu.Lock()
	var out []byte
	if el, ok := c.entries[key]; ok {
		if out = el.Value.(*cacheEntry).rendered; out != nil {
			c.lru.MoveToFront(el)
		}
	}
	c.mu.Unlock()
	if out == nil {
		return nil, false
	}
	c.hits.Add(1)
	return out, true
}

// Fill keeps a canonical plan document in memory under a content
// address without running a solve (the cluster's back-fill, and a
// non-owner keeping the owner's answer): a document entry, as
// ExecuteRendered would have left. The bytes must be the rendering the
// cache's RenderFunc would have produced; the wire encoding is
// canonical, so any replica's rendering is THE rendering. An existing
// entry, of either kind, is left as it is. Fill never touches the store
// and counts neither a hit nor a miss.
func (c *Cache) Fill(key [sha256.Size]byte, rendered []byte) {
	c.mu.Lock()
	c.insertLocked(key, nil, rendered)
	c.mu.Unlock()
}

// RenderFunc encodes a completed plan into its canonical document
// (wire.EncodePlan in the service). It must be deterministic: the
// cache stores the first rendering and serves it to every later hit.
type RenderFunc func(*Plan) ([]byte, error)

// RenderedInfo labels how an ExecuteRendered answer was produced, for
// the service's X-Bmpcast-Cache header. A warm start's neighbor
// distance travels in the plan itself (Plan.NeighborDistance).
type RenderedInfo struct {
	// Hit: the answer came from a completed entry — memory, or the
	// persisted store under the same content address. Leaders and
	// singleflight followers both report false, consistent with Stats.
	Hit bool
	// Warm: a solve ran, seeded by a stored neighbor's word, and the
	// repair held (verified without falling back). A warm answer is
	// exact — it just cost a repair instead of a full solve.
	Warm bool
}

// execute is the memoizing Execute path: hit, join an in-flight solve,
// or lead one. Only successful plans are cached; errors pass through
// (and are delivered to every follower of the failed flight).
func (c *Cache) execute(ctx context.Context, r *Registry, req Request) (*Plan, error) {
	plan, _, _, err := c.run(ctx, r, req, nil)
	return plan, err
}

// ExecuteRendered runs the request through the cache's document path:
// it memoizes the plan's canonical rendering, not the plan, so a hit
// returns the stored document bytes without re-running the solver or
// the encoder — the path of every stateless solve the service answers.
// A miss reads the store's exact document first (a disk hit), then
// solves, renders and spills the document to the store. An entry a
// plan-path caller (Execute with WithCache) left does not answer it:
// this caller solves and leaves that entry as it is. The RenderedInfo
// reports whether the answer came from a completed cache entry and
// whether a neighbor warm start held (the service's X-Bmpcast-Cache
// label) and stays consistent with Stats. Callers must treat the
// returned bytes as immutable.
func (c *Cache) ExecuteRendered(ctx context.Context, r *Registry, req Request, render RenderFunc) (out []byte, info RenderedInfo, err error) {
	plan, rendered, info, err := c.run(ctx, r, req, render)
	if err != nil {
		return nil, RenderedInfo{}, err
	}
	if rendered == nil {
		// The request's key did not encode, so run solved it without the
		// cache: render for this caller only.
		out, err = render(plan)
		return out, info, err
	}
	return rendered, info, nil
}

// run is the shared cache machinery behind execute and
// ExecuteRendered; render is nil on the plan path. An entry or flight
// of the other kind never answers: the caller leads its own solve.
func (c *Cache) run(ctx context.Context, r *Registry, req Request, render RenderFunc) (*Plan, []byte, RenderedInfo, error) {
	data, err := c.key(req)
	if err != nil {
		// An unencodable request cannot be addressed; solve it directly.
		plan, err := r.executeUncached(ctx, req)
		return plan, nil, RenderedInfo{}, err
	}
	fk := flightKey{key: sha256.Sum256(data), doc: render != nil}
	for {
		c.mu.Lock()
		if el, ok := c.entries[fk.key]; ok {
			if e := el.Value.(*cacheEntry); (e.rendered != nil) == fk.doc {
				c.lru.MoveToFront(el)
				c.mu.Unlock()
				c.hits.Add(1)
				return e.plan, e.rendered, RenderedInfo{Hit: true}, nil
			}
		}
		if f, ok := c.inflight[fk]; ok {
			c.mu.Unlock()
			c.shared.Add(1)
			select {
			case <-f.done:
				if f.err == nil {
					// Followers report hit=false: the answer was not a
					// completed entry (Stats counts them as Shared, and the
					// service's hit label must agree with the hit counter).
					return f.plan, f.rendered, RenderedInfo{Warm: f.info.Warm}, nil
				}
				// The leader's context died, not ours: take over the key
				// (or join whoever already did) instead of surfacing a
				// cancellation this caller never asked for.
				if errors.Is(f.err, ErrCanceled) && ctx.Err() == nil {
					continue
				}
				return nil, nil, RenderedInfo{}, f.err
			case <-ctx.Done():
				return nil, nil, RenderedInfo{}, Canceled(ctx.Err())
			}
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[fk] = f
		c.mu.Unlock()

		plan, rendered, info, err := c.lead(ctx, r, req, fk.key, data, render)
		f.plan, f.rendered, f.info, f.err = plan, rendered, info, err
		c.mu.Lock()
		delete(c.inflight, fk)
		if err == nil {
			c.insertLocked(fk.key, plan, rendered)
		}
		c.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, nil, RenderedInfo{}, err
		}
		return plan, rendered, info, nil
	}
}

// lead is the miss path once this caller owns the flight: with a store
// attached, try the persisted document under the exact address (on the
// document path: a disk hit — no solve at all), then a neighbor warm
// start for incremental solvers; otherwise (and as the final tier) run
// the full solve.
func (c *Cache) lead(ctx context.Context, r *Registry, req Request, k [sha256.Size]byte, data []byte, render RenderFunc) (*Plan, []byte, RenderedInfo, error) {
	store := c.getStore()
	if store != nil {
		if render != nil {
			if out, ok := store.Rendered(k); ok {
				// Exact document persisted by an earlier process: a hit,
				// served byte-identical — the restart survival contract.
				c.hits.Add(1)
				return nil, out, RenderedInfo{Hit: true}, nil
			}
		}
		if len(req.PrevWord) == 0 {
			if s, rerr := r.resolve(req); rerr == nil && s.Capabilities().Has(CapIncremental) {
				if nb, ok := store.Neighbor(req); ok {
					return c.solveAndSpill(ctx, r, req, &nb, data, render)
				}
			}
		}
	}
	return c.solveAndSpill(ctx, r, req, nil, data, render)
}

// solveAndSpill runs the (possibly warm-started) solve and answers with
// the plan on the plan path; on the document path it renders the plan,
// spills the canonical documents to the store so the answer survives a
// restart, and answers with the document alone.
func (c *Cache) solveAndSpill(ctx context.Context, r *Registry, req Request, nb *NeighborPlan, data []byte, render RenderFunc) (*Plan, []byte, RenderedInfo, error) {
	c.misses.Add(1)
	run := req
	if nb != nil {
		run.PrevWord = nb.Word
	}
	plan, err := r.executeUncached(ctx, run)
	if err != nil && nb != nil && !errors.Is(err, ErrCanceled) {
		// A warm start must never fail a request the cold path would
		// have answered: retry from scratch once.
		plan, err = r.executeUncached(ctx, req)
		nb = nil
	}
	if err != nil {
		return nil, nil, RenderedInfo{}, err
	}
	var info RenderedInfo
	if nb != nil {
		plan.WarmStarted = true
		plan.NeighborDistance = nb.Distance
		info.Warm = plan.Repaired // false = repair deviated, full-solve fallback answered
	}
	store := c.getStore()
	if store != nil && nb != nil {
		store.NoteWarmStart(info.Warm)
	}
	if render == nil {
		return plan, nil, info, nil
	}
	rendered, err := render(plan)
	if err != nil {
		return nil, nil, RenderedInfo{}, err
	}
	// Admission policy: a successful warm repair is not re-spilled. Its
	// request sits within the edit budget of the entry that just served
	// it, so storing it adds no similarity coverage — it only grows the
	// log and the signature scan under churn. Everything else spills:
	// cold solves are new coverage by definition, and a fallback
	// (nb != nil, !plan.Repaired) just proved the nearest stored entry
	// could not repair to this request, which is exactly the gap worth
	// persisting.
	if store != nil && !info.Warm {
		store.Persist(req, data, rendered, plan.Word)
	}
	// A document entry does not keep the plan it rendered.
	return nil, rendered, info, nil
}

// insertLocked adds a completed answer, a document (plan == nil) or a
// plan (rendered == nil), and enforces the LRU bound. An existing
// entry, of either kind, is left as it is. Callers hold c.mu.
func (c *Cache) insertLocked(k [sha256.Size]byte, plan *Plan, rendered []byte) {
	if _, ok := c.entries[k]; ok {
		return
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, plan: plan, rendered: rendered})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}
