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

// Cache memoizes successful Execute calls content-addressed by the
// canonical encoding of the Request. Because every solve is a pure
// function of its request (the paper's planning problems carry no
// hidden state), a cached Plan is indistinguishable from a fresh one —
// and since the wire encoding is canonical, re-encoding a cached Plan
// yields byte-identical documents.
//
// It is the only in-memory plan tier, and three mechanisms compose:
//
//   - one size-bounded LRU keyed by content address and evicted by
//     recency alone. An entry holds a solved plan, its canonical
//     rendering, or both: disk hits and Fill keep the rendering only,
//     and a later plan-path caller solves once and merges into the
//     same entry;
//   - singleflight deduplication: concurrent identical requests
//     collapse onto one in-flight solve, followers wait for the
//     leader's result (or their own context, whichever ends first);
//   - monotonic hit/miss/shared/eviction counters (Stats), surfaced by
//     the service's /metrics endpoint. Every answer from a held entry
//     counts as one hit, whether it came through Rendered, Execute or
//     ExecuteRendered.
//
// A Cache can additionally sit on a PlanStore (SetStore): misses then
// consult the store for the exact document (disk hit) or a similar
// instance's word (warm start through the repair path), and every
// rendered solve is spilled back so the store survives restarts.
//
// Cached plans are shared between callers and must be treated as
// immutable. A Cache is safe for concurrent use. Attach one to a
// request with WithCache; the service layer does so by default.
type Cache struct {
	key CacheKeyFunc
	max int

	mu       sync.Mutex
	lru      *list.List // of *cacheEntry, front = most recent
	entries  map[[sha256.Size]byte]*list.Element
	inflight map[[sha256.Size]byte]*flight
	store    PlanStore

	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one memoized answer: a decoded plan, its canonical
// rendered document (filled in by the ExecuteRendered path so byte
// hits skip the encoder too), or both. A disk hit or a Fill holds
// only the document (plan == nil).
type cacheEntry struct {
	key      [sha256.Size]byte
	plan     *Plan
	rendered []byte
}

// flight is one in-progress solve that followers wait on.
type flight struct {
	done     chan struct{} // closed after plan/rendered/err are set
	plan     *Plan         // nil when the leader answered from stored bytes
	rendered []byte        // non-nil when the leader rendered
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
		inflight: make(map[[sha256.Size]byte]*flight),
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
	// Entries is the number of entries currently held: solved plans
	// and rendered-only documents alike.
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
// reads the store: a missing entry, or one without a rendering, is a
// miss that counts nothing, and the caller falls back to
// ExecuteRendered. The returned bytes are immutable.
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
// non-owner keeping the owner's answer). The bytes must be the
// rendering the cache's RenderFunc would have produced; the wire
// encoding is canonical, so any replica's rendering is THE rendering.
// An existing entry keeps its first rendering. Fill never touches the
// store and counts neither a hit nor a miss.
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
// the service's X-Bmpcast-Cache header and metrics.
type RenderedInfo struct {
	// Hit: the answer came from a completed entry — memory, or the
	// persisted store under the same content address. Leaders and
	// singleflight followers both report false, consistent with Stats.
	Hit bool
	// Warm: a solve ran, seeded by a stored neighbor's word, and the
	// repair held (verified without falling back). A warm answer is
	// exact — it just cost a repair instead of a full solve.
	Warm bool
	// Distance is the neighbor's node-multiset edit distance when a
	// warm start was attempted (Warm or fallen back), else 0.
	Distance int
}

// execute is the memoizing Execute path: hit, join an in-flight solve,
// or lead one. Only successful plans are cached; errors pass through
// (and are delivered to every follower of the failed flight).
func (c *Cache) execute(ctx context.Context, r *Registry, req Request) (*Plan, error) {
	plan, _, _, err := c.run(ctx, r, req, nil)
	return plan, err
}

// ExecuteRendered runs the request through the cache like Execute with
// WithCache, additionally memoizing the plan's canonical rendering: a
// hit returns the stored document bytes without re-running the solver
// or the encoder — the service's /v1/solve hot path. The RenderedInfo
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
		// The plan landed via the unrendered path (unencodable request);
		// render for this caller only.
		out, err = render(plan)
		return out, info, err
	}
	return rendered, info, nil
}

// run is the shared cache machinery behind execute and
// ExecuteRendered; render is nil on the plan-only path.
func (c *Cache) run(ctx context.Context, r *Registry, req Request, render RenderFunc) (*Plan, []byte, RenderedInfo, error) {
	data, err := c.key(req)
	if err != nil {
		// An unencodable request cannot be addressed; solve it directly.
		plan, err := r.executeUncached(ctx, req)
		return plan, nil, RenderedInfo{}, err
	}
	k := sha256.Sum256(data)
	for {
		c.mu.Lock()
		if el, ok := c.entries[k]; ok {
			e := el.Value.(*cacheEntry)
			if e.plan != nil || render != nil {
				c.lru.MoveToFront(el)
				plan, rendered := e.plan, e.rendered
				c.mu.Unlock()
				c.hits.Add(1)
				if render != nil && rendered == nil {
					// Plan cached by an unrendered caller: render once and
					// remember the bytes for the next byte-level hit.
					plan, rendered, err = c.attachRendering(k, plan, render)
					return plan, rendered, RenderedInfo{Hit: true}, err
				}
				return plan, rendered, RenderedInfo{Hit: true}, nil
			}
			// Rendered-only entry (a disk hit or a Fill) but this caller
			// needs the *Plan: fall through to solve; insertLocked merges,
			// keeping the rendered bytes.
		}
		if f, ok := c.inflight[k]; ok {
			c.mu.Unlock()
			c.shared.Add(1)
			select {
			case <-f.done:
				if f.err == nil {
					if f.plan == nil && render == nil {
						// The leader answered from stored bytes; this caller
						// needs a decoded plan. Retry — the rendered-only entry
						// falls through to a solve above.
						continue
					}
					// Followers report hit=false: the answer was not a
					// completed entry (Stats counts them as Shared, and the
					// service's hit label must agree with the hit counter).
					if render != nil && f.rendered == nil {
						plan, rendered, err := c.attachRendering(k, f.plan, render)
						return plan, rendered, RenderedInfo{Warm: f.info.Warm, Distance: f.info.Distance}, err
					}
					return f.plan, f.rendered, RenderedInfo{Warm: f.info.Warm, Distance: f.info.Distance}, nil
				}
				// The leader's context died, not ours: take over the key
				// (or join whoever already did) instead of surfacing a
				// cancellation this caller never asked for.
				if errors.Is(f.err, ErrCanceled) && ctx.Err() == nil {
					continue
				}
				return nil, nil, RenderedInfo{}, f.err
			case <-ctx.Done():
				return nil, nil, RenderedInfo{}, canceledErr(ctx.Err())
			}
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[k] = f
		c.mu.Unlock()

		plan, rendered, info, err := c.lead(ctx, r, req, k, data, render)
		f.plan, f.rendered, f.info, f.err = plan, rendered, info, err
		c.mu.Lock()
		delete(c.inflight, k)
		if err == nil {
			c.insertLocked(k, plan, rendered)
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
// attached, try the persisted document under the exact address (a disk
// hit — no solve at all), then a neighbor warm start for incremental
// solvers; otherwise (and as the final tier) run the full solve.
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

// solveAndSpill runs the (possibly warm-started) solve, renders it,
// and spills the canonical documents to the store so the answer
// survives a restart.
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
		info.Distance = nb.Distance
	}
	var rendered []byte
	if render != nil {
		if rendered, err = render(plan); err != nil {
			return nil, nil, RenderedInfo{}, err
		}
	}
	if store := c.getStore(); store != nil {
		if nb != nil {
			store.NoteWarmStart(plan.Repaired)
		}
		// Admission policy: a successful warm repair is not re-spilled.
		// Its request sits within the edit budget of the entry that
		// just served it, so storing it adds no similarity coverage —
		// it only grows the log and the signature scan under churn.
		// Everything else spills: cold solves are new coverage by
		// definition, and a fallback (nb != nil, !plan.Repaired) just
		// proved the nearest stored entry could not repair to this
		// request, which is exactly the gap worth persisting.
		if rendered != nil && !(nb != nil && plan.Repaired) {
			store.Persist(req, data, rendered, plan.Word)
		}
	}
	return plan, rendered, info, nil
}

// attachRendering renders a cached plan and stores the bytes on its
// entry (keeping the first rendering when two callers race — the
// render is deterministic, so either is canonical).
func (c *Cache) attachRendering(k [sha256.Size]byte, plan *Plan, render RenderFunc) (*Plan, []byte, error) {
	out, err := render(plan)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		if e.rendered == nil {
			e.rendered = out
		} else {
			out = e.rendered
		}
	}
	c.mu.Unlock()
	return plan, out, nil
}

// insertLocked adds a completed answer (with plan == nil, a
// rendered-only one) and enforces the LRU bound. An existing entry
// keeps its first plan and rendering and gains whichever it lacked.
// Callers hold c.mu.
func (c *Cache) insertLocked(k [sha256.Size]byte, plan *Plan, rendered []byte) {
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		if e.plan == nil {
			e.plan = plan
		}
		if e.rendered == nil {
			e.rendered = rendered
		}
		c.lru.MoveToFront(el)
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
