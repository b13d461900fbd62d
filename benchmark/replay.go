package main

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/wire"
)

// replayer re-runs each served op in process, after the op has
// returned, through the public functions the service composes, with
// one span per call: request decode, request key, the plan cache over
// the benchmark's own copy of the store, the solver phases, the
// max-flow verify and the plan encode. With one client the replay meets
// the same cache states as the daemon, so its tier can be compared with
// the served label.
//
// The replay is single-threaded except inside a replayed batch, where
// engine.ExecuteBatch runs solver calls on several workers; op and
// parent are set before that call and only read during it.
type replayer struct {
	rec    *Recorder
	reg    *engine.Registry
	cache  *engine.Cache
	front  *frontLRU
	verify bool // run the tolerance verify inside the solver (requests carry Tolerance)

	op     int
	parent int
	keyDoc []byte // canonical request of the current op, handed to the cache's key function
}

// newReplayer builds a replayer whose registry holds timed versions of
// the acyclic and acyclic-search solvers. cacheSize ≥ 0 attaches a plan
// cache of that many entries (0 = engine default) and a raw-body front
// cache of the same size, like `bmpcast serve`'s defaults; store, when
// non-nil, sits under the cache.
func newReplayer(rec *Recorder, verify bool, cacheSize int, store engine.PlanStore) (*replayer, error) {
	r := &replayer{rec: rec, verify: verify, parent: -1}
	r.reg = engine.NewRegistry()
	acyclic, err := engine.Get("acyclic")
	if err != nil {
		return nil, err
	}
	search, err := engine.Get("acyclic-search")
	if err != nil {
		return nil, err
	}
	r.reg.MustRegister(engine.NewIncrementalSolver("acyclic",
		acyclic.Capabilities()&^engine.CapIncremental, r.solveAcyclic, r.repairAcyclic))
	r.reg.MustRegister(engine.NewSolver("acyclic-search", search.Capabilities(), r.searchOnly))
	if cacheSize >= 0 {
		r.cache = engine.NewCache(cacheSize, r.cacheKey)
		size := cacheSize
		if size == 0 {
			size = engine.DefaultCacheEntries
		}
		r.front = newFrontLRU(size)
		if store != nil {
			r.cache.SetStore(timedStore{r: r, s: store})
		}
	}
	return r, nil
}

func (r *replayer) begin(name string) int { return r.rec.Begin(r.op, r.parent, name) }
func (r *replayer) end(id int)            { r.rec.End(id) }

// count records the work a solver phase did on its workspace.
func (r *replayer) count(before, after core.WorkspaceStats) {
	d := after.Sub(before)
	r.rec.Add(r.op, "greedy_tests", d.GreedyTests)
	r.rec.Add(r.op, "word_evals", d.WordEvals)
	r.rec.Add(r.op, "flow_evals", d.FlowEvals)
}

// cacheKey hands the cache the canonical request the replay already
// rendered (and timed as wire.request_key); it encodes only when called
// outside a replayed solve.
func (r *replayer) cacheKey(req engine.Request) ([]byte, error) {
	if doc := r.keyDoc; doc != nil {
		r.keyDoc = nil
		return doc, nil
	}
	return wire.EncodeRequest(req)
}

// solveAcyclic is the acyclic solver (search + low-degree build, with
// the same shaved retry) split into timed phases, plus the max-flow
// verify the engine runs for requests with a tolerance.
func (r *replayer) solveAcyclic(ins *platform.Instance, ws *core.Workspace) (engine.Result, error) {
	sp := r.begin("core.search")
	before := ws.Stats()
	T, w, err := core.OptimalAcyclicThroughputWithWorkspace(ins, ws)
	r.count(before, ws.Stats())
	r.end(sp)
	if err != nil {
		return engine.Result{}, err
	}
	sp = r.begin("core.build")
	s, err := core.BuildSchemeWithWorkspace(ins, w, T, ws)
	if err != nil {
		T *= 1 - 1e-12
		s, err = core.BuildSchemeWithWorkspace(ins, w, T, ws)
	}
	r.end(sp)
	if err != nil {
		return engine.Result{}, err
	}
	res := engine.Result{Throughput: T, Scheme: s, Word: w}
	if r.verify {
		vws := engine.AcquireWorkspace()
		sp = r.begin("maxflow.verify")
		before := vws.Stats()
		res.Verified = s.ThroughputWithWorkspace(vws)
		r.count(before, vws.Stats())
		r.end(sp)
		engine.ReleaseWorkspace(vws)
	}
	return res, nil
}

// repairAcyclic is the warm-start repair, timed as one phase (its
// capped max-flow verify runs inside and is counted, not spanned).
func (r *replayer) repairAcyclic(ins *platform.Instance, prev core.Word, ws *core.Workspace) (core.RepairResult, error) {
	sp := r.begin("core.repair")
	before := ws.Stats()
	rr, err := core.RepairAcyclicWithWorkspace(ins, prev, ws)
	r.count(before, ws.Stats())
	r.end(sp)
	return rr, err
}

// searchOnly is the acyclic-search solver, timed.
func (r *replayer) searchOnly(ins *platform.Instance, ws *core.Workspace) (engine.Result, error) {
	sp := r.begin("core.search")
	before := ws.Stats()
	T, w, err := core.OptimalAcyclicThroughputWithWorkspace(ins, ws)
	r.count(before, ws.Stats())
	r.end(sp)
	if err != nil {
		return engine.Result{}, err
	}
	return engine.Result{Throughput: T, Word: w}, nil
}

// render is the cache's render function: wire.EncodePlan, timed.
func (r *replayer) render(p *engine.Plan) ([]byte, error) {
	sp := r.begin("wire.encode_plan")
	defer r.end(sp)
	return wire.EncodePlan(p)
}

// solve replays one /v1/solve body the way the service answers it and
// returns the tier label the service would put on it ("hit", "warm",
// "miss", or "error" for a refusal).
func (r *replayer) solve(op int, body []byte) string {
	r.op = op
	root := r.rec.Begin(op, -1, "bench.replay")
	defer r.rec.End(root)
	r.parent = root
	bodyKey := sha256.Sum256(body)
	if _, ok := r.front.get(bodyKey); ok {
		return "hit"
	}
	sp := r.begin("wire.decode_request")
	req, err := wire.DecodeRequest(body)
	r.end(sp)
	if err != nil {
		return "error"
	}
	sp = r.begin("wire.request_key")
	doc, err := wire.EncodeRequest(req)
	if err == nil {
		_ = sha256.Sum256(doc)
	}
	r.end(sp)
	if err != nil {
		return "error"
	}
	r.keyDoc = doc
	sp = r.begin("engine.cache")
	r.parent = sp
	out, info, err := r.cache.ExecuteRendered(context.Background(), r.reg, req, r.render)
	r.parent = root
	r.end(sp)
	r.keyDoc = nil
	if err != nil {
		return "error"
	}
	r.front.put(bodyKey, out)
	switch {
	case info.Hit:
		return "hit"
	case info.Warm:
		return "warm"
	default:
		return "miss"
	}
}

// jobLine mirrors the service's NDJSON stream line.
type jobLine struct {
	V     int        `json:"v"`
	Index int        `json:"index"`
	Plan  *wire.Plan `json:"plan,omitempty"`
	Code  string     `json:"code,omitempty"`
	Error string     `json:"error,omitempty"`
}

// batchAnswer mirrors the service's /v1/batch answer.
type batchAnswer struct {
	V     int         `json:"v"`
	Plans []wire.Plan `json:"plans"`
}

// batch replays one /v1/batch or /v1/jobs body: the batch document
// decode, engine.ExecuteBatch of the items through the replay's cache,
// and the answer encode (one compact line per item for a job, one
// indented document for a batch).
func (r *replayer) batch(op int, body []byte, job bool) error {
	r.op = op
	root := r.rec.Begin(op, -1, "bench.replay")
	defer r.rec.End(root)
	r.parent = root

	sp := r.begin("wire.batch_decode")
	var doc batchDoc
	err := wire.Unmarshal(body, &doc, "batch request")
	reqs := make([]engine.Request, len(doc.Requests))
	for i, wr := range doc.Requests {
		if err != nil {
			break
		}
		if reqs[i], err = wr.Request(); err == nil && r.cache != nil {
			engine.WithCache(r.cache)(&reqs[i])
		}
	}
	r.end(sp)
	if err != nil {
		return fmt.Errorf("replaying batch decode: %w", err)
	}

	sp = r.begin("engine.batch")
	r.parent = sp
	plans, err := r.reg.ExecuteBatch(context.Background(), reqs, engine.BatchOptions{})
	r.parent = root
	r.end(sp)
	if err != nil {
		return fmt.Errorf("replaying batch: %w", err)
	}

	if job {
		for i, p := range plans {
			sp := r.begin("wire.stream_line")
			wp := wire.FromPlan(p)
			_, err = wire.MarshalCompact(jobLine{V: wire.Version, Index: i, Plan: &wp})
			r.end(sp)
			if err != nil {
				return err
			}
		}
		return nil
	}
	sp = r.begin("wire.batch_encode")
	ans := batchAnswer{V: wire.Version, Plans: make([]wire.Plan, len(plans))}
	for i, p := range plans {
		ans.Plans[i] = wire.FromPlan(p)
	}
	_, err = wire.Marshal(ans)
	r.end(sp)
	return err
}

// timedStore wraps the replay's plan store with one span per call.
type timedStore struct {
	r *replayer
	s engine.PlanStore
}

func (t timedStore) Rendered(key [sha256.Size]byte) ([]byte, bool) {
	sp := t.r.begin("planstore.rendered")
	defer t.r.end(sp)
	return t.s.Rendered(key)
}

func (t timedStore) Neighbor(req engine.Request) (engine.NeighborPlan, bool) {
	sp := t.r.begin("planstore.neighbor")
	defer t.r.end(sp)
	return t.s.Neighbor(req)
}

func (t timedStore) Persist(req engine.Request, reqDoc, planDoc []byte, word core.Word) {
	sp := t.r.begin("planstore.persist")
	defer t.r.end(sp)
	t.s.Persist(req, reqDoc, planDoc, word)
}

func (t timedStore) NoteWarmStart(held bool) { t.s.NoteWarmStart(held) }

// frontLRU mirrors the service's raw-body front cache: an LRU of body
// digests that answers a byte-identical resubmission before decode.
type frontLRU struct {
	max     int
	lru     *list.List
	entries map[[sha256.Size]byte]*list.Element
}

func newFrontLRU(max int) *frontLRU {
	return &frontLRU{max: max, lru: list.New(), entries: make(map[[sha256.Size]byte]*list.Element)}
}

func (f *frontLRU) get(k [sha256.Size]byte) ([]byte, bool) {
	el, ok := f.entries[k]
	if !ok {
		return nil, false
	}
	f.lru.MoveToFront(el)
	return el.Value.(*frontEntry).out, true
}

func (f *frontLRU) put(k [sha256.Size]byte, out []byte) {
	if el, ok := f.entries[k]; ok {
		f.lru.MoveToFront(el)
		return
	}
	f.entries[k] = f.lru.PushFront(&frontEntry{key: k, out: out})
	for f.lru.Len() > f.max {
		oldest := f.lru.Back()
		f.lru.Remove(oldest)
		delete(f.entries, oldest.Value.(*frontEntry).key)
	}
}

type frontEntry struct {
	key [sha256.Size]byte
	out []byte
}
