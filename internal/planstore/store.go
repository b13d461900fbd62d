package planstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// DefaultEditBudget is the node-multiset edit distance within which a
// stored plan counts as a warm-start neighbor. Each platform mutation
// (add/remove/rescale a node, retune the source) moves an instance by
// at most one unit per class, so the default tolerates a small churn
// burst without admitting unrelated instances.
const DefaultEditBudget = 4

const logName = "plans.log"

// Config tunes a Store.
type Config struct {
	// Dir is the store directory, created if absent.
	Dir string
}

// Stats is a snapshot of a store's counters. Entries/Bytes are current
// sizes; the hit counters only grow; Truncated, Skipped and Problems
// describe what Open had to drop.
type Stats struct {
	// Entries is the number of stored plans.
	Entries int
	// Bytes is the log size on disk.
	Bytes int64
	// DiskHits counts exact-address lookups answered from disk.
	DiskHits int64
	// WarmHits counts neighbor warm starts where the repair held.
	WarmHits int64
	// Fallbacks counts neighbor warm starts that deviated and were
	// answered by the full-solve fallback instead.
	Fallbacks int64
	// Truncated counts torn tails dropped by Open (0 or 1: the log is
	// append-only, so at most its end can tear).
	Truncated int
	// Skipped counts whole records left out of the indexes: frames
	// whose content address or checksum fails, documents that do not
	// decode as wire documents (e.g. written by a future version) and
	// repeated addresses. Compact removes them from the log.
	Skipped int
	// Problems has one line per record Open truncated or skipped, in
	// log order; nil for a clean log. Open sets it and nothing changes
	// it afterwards, so the slice is shared.
	Problems []string
}

// recordRef locates one record inside the log.
type recordRef struct {
	off     int64 // record start (header line)
	n       int   // total frame length
	planOff int64 // plan document start
	planLen int
}

// sig is one stored similarity signature: the instance's node
// multiset, copied so that the store owns it, its interned option set
// and the stored solution's word.
type sig struct {
	opts    int32 // interned optsKey
	b0      float64
	open    []float64 // non-increasing, the platform invariant
	guarded []float64
	word    core.Word
}

// Store is a persistent content-addressed plan store. It implements
// engine.PlanStore; attach it to a cache with Cache.SetStore (the
// service does when Config.StoreDir is set). Safe for concurrent use.
type Store struct {
	dir    string
	budget int // Neighbor's distance cap: DefaultEditBudget

	mu    sync.Mutex
	f     *os.File
	size  int64
	refs  map[[sha256.Size]byte]recordRef
	order [][sha256.Size]byte // insertion order, for Compact
	sigs  []sig
	// optIDs interns optsKey, so a Neighbor scan compares integers.
	optIDs map[string]int32

	truncated int
	skipped   int
	problems  []string // set by Open only

	diskHits  atomic.Int64
	warmHits  atomic.Int64
	fallbacks atomic.Int64
}

// Open loads (or creates) the store in cfg.Dir, recovering from a torn
// tail: the first frame that does not parse ends the log, everything
// after it is truncated away, and everything before it is served. A
// re-solve of the dropped request re-persists it — crash consistency
// by replay, not by fsync. A whole frame that fails its checksum or
// address (a flipped bit) is skipped. The replay is the only reader of
// the log: each record it truncates or skips becomes one line of
// Stats.Problems, which `bmpcast store verify` reports.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("planstore: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	path := filepath.Join(cfg.Dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("planstore: %w", err)
	}
	s := &Store{
		dir:    cfg.Dir,
		budget: DefaultEditBudget,
		f:      f,
		refs:   make(map[[sha256.Size]byte]recordRef),
		optIDs: make(map[string]int32),
	}
	var off int64
	for int(off) < len(data) {
		key, reqDoc, planDoc, n, err := decodeRecord(data[off:])
		if err != nil && n > 0 { // a whole frame that fails its check
			s.skipped++
			s.problems = append(s.problems, fmt.Sprintf("offset %d: %v (skipped)", off, err))
			off += int64(n)
			continue
		}
		if err != nil {
			// Torn tail (or tampering): the log ends here. Drop the
			// unreachable remainder so the next append starts clean.
			s.truncated++
			s.problems = append(s.problems, fmt.Sprintf("offset %d: %v (%d bytes truncated)", off, err, int64(len(data))-off))
			break
		}
		if err := s.addLocked(key, recordRef{
			off: off, n: n,
			planOff: off + int64(n-len(planDoc)), planLen: len(planDoc),
		}, reqDoc, planDoc, nil, nil); err != nil {
			s.problems = append(s.problems, fmt.Sprintf("offset %d (%x): %v", off, key[:4], err))
		}
		off += int64(n)
	}
	s.size = off
	if int(off) < len(data) {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("planstore: dropping torn tail: %w", err)
		}
	}
	if _, err := f.Seek(off, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("planstore: %w", err)
	}
	return s, nil
}

// addLocked indexes one decoded record. A record whose address repeats
// an indexed one, or whose documents do not decode as wire documents,
// is counted as skipped and left out — it would never match a live
// request's address anyway — and the returned error says why. A
// non-nil reqHint is trusted as the decoded form of reqDoc and a
// non-nil word as the plan's encoding word (the solve path just
// produced all four), skipping the JSON re-parses; the Open replay
// path passes neither and decodes + validates both documents here.
func (s *Store) addLocked(key [sha256.Size]byte, ref recordRef, reqDoc, planDoc []byte, reqHint *engine.Request, word core.Word) error {
	if prev, dup := s.refs[key]; dup {
		s.skipped++
		return fmt.Errorf("address repeats the record at offset %d", prev.off)
	}
	var req engine.Request
	if reqHint != nil {
		req = *reqHint
	} else {
		var err error
		if req, err = wire.DecodeRequest(reqDoc); err != nil {
			s.skipped++
			return fmt.Errorf("request document: %w", err)
		}
	}
	if word == nil {
		plan, err := wire.DecodePlan(planDoc)
		if err != nil {
			s.skipped++
			return fmt.Errorf("plan document: %w", err)
		}
		if plan.Word != "" {
			if w, err := core.ParseWord(plan.Word); err == nil {
				word = w
			}
		}
	}
	s.refs[key] = ref
	s.order = append(s.order, key)
	if len(word) == 0 || req.Instance == nil {
		return nil // valid record, but wordless plans cannot seed a repair
	}
	opts := optsKey(req)
	id, ok := s.optIDs[opts]
	if !ok {
		id = int32(len(s.optIDs))
		s.optIDs[opts] = id
	}
	// Copy the bandwidths: the caller may go on mutating its instance,
	// and platform.Instance's mutators edit in place.
	ins := req.Instance
	n := len(ins.OpenBW)
	bw := make([]float64, n+len(ins.GuardedBW))
	copy(bw, ins.OpenBW)
	copy(bw[n:], ins.GuardedBW)
	s.sigs = append(s.sigs, sig{opts: id, b0: ins.B0, open: bw[:n:n], guarded: bw[n:], word: word})
	return nil
}

// Rendered implements engine.PlanStore: the stored canonical plan
// document under the exact content address, byte-identical to what was
// persisted.
func (s *Store) Rendered(key [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	ref, ok := s.refs[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	out := make([]byte, ref.planLen)
	_, err := s.f.ReadAt(out, ref.planOff)
	s.mu.Unlock()
	if err != nil {
		return nil, false
	}
	s.diskHits.Add(1)
	return out, true
}

// Neighbor implements engine.PlanStore: the closest stored instance
// with the same solver and request options, within the edit budget.
// Ties break toward the earliest stored record, so a given store
// answers deterministically. The scan visits every record of the
// option set, but distance gives up on a record as soon as it cannot
// beat the best so far, so most records cost a length comparison or
// the first few steps of a merge.
func (s *Store) Neighbor(req engine.Request) (engine.NeighborPlan, bool) {
	if req.Instance == nil {
		return engine.NeighborPlan{}, false
	}
	opts := optsKey(req)
	s.mu.Lock()
	id, ok := s.optIDs[opts]
	sigs := s.sigs // entries are immutable; append replaces the slice
	s.mu.Unlock()
	if !ok {
		return engine.NeighborPlan{}, false // an option set never stored
	}
	best, bestDist := -1, s.budget+1
	for i := range sigs {
		if sigs[i].opts != id {
			continue
		}
		if d := distance(&sigs[i], req, bestDist); d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return engine.NeighborPlan{}, false
	}
	word := make(core.Word, len(sigs[best].word))
	copy(word, sigs[best].word)
	return engine.NeighborPlan{Word: word, Distance: bestDist}, true
}

// distance is the node-multiset edit distance between a stored
// signature and the query instance, cut off at limit (the caller's
// current best): per node class, the larger of deletions and additions
// (a rescale is one edit, not two), plus one for a source retune. Each
// class costs at least its length difference, a bound checked before
// any merge.
func distance(sg *sig, req engine.Request, limit int) int {
	ins := req.Instance
	d := 0
	if sg.b0 != ins.B0 {
		d++
	}
	dOpen := absDiff(len(sg.open), len(ins.OpenBW))
	dGuarded := absDiff(len(sg.guarded), len(ins.GuardedBW))
	if d+dOpen+dGuarded >= limit {
		return limit
	}
	d += multisetDist(sg.open, ins.OpenBW, limit-d-dGuarded)
	if d+dGuarded >= limit {
		return limit
	}
	return d + multisetDist(sg.guarded, ins.GuardedBW, limit-d)
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// multisetDist compares two bandwidth multisets (both sorted
// non-increasing, the platform invariant): max(#only-in-a, #only-in-b),
// or budget as soon as either count reaches it.
func multisetDist(a, b []float64, budget int) int {
	onlyA, onlyB := 0, 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			onlyA++
			if onlyA >= budget {
				return budget
			}
			i++
		default:
			onlyB++
			if onlyB >= budget {
				return budget
			}
			j++
		}
	}
	return min(max(onlyA+len(a)-i, onlyB+len(b)-j), budget)
}

// optsKey fingerprints everything about a request except its instance:
// solver, tolerance, artifacts, capabilities. Warm starts only cross
// instances, never option sets — a plan solved under a different
// solver or tolerance is not a neighbor. Built by hand rather than by
// marshaling the wire form, which would encode the whole instance too:
// it runs once per Neighbor query and once per Persist, on the solve
// path. The key only ever compares against other keys from this
// function, so the format is free to be internal.
func optsKey(req engine.Request) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(req.Solver)
	for _, n := range req.Need.Names() {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(int64(req.Deadline), 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(req.Tolerance, 'g', -1, 64))
	b.WriteByte('|')
	if req.WantScheme {
		b.WriteByte('s')
	}
	if req.WantTrees {
		b.WriteByte('t')
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(req.ScheduleBlocks))
	return b.String()
}

// Persist implements engine.PlanStore: append one solved request/plan
// document pair. Duplicate addresses and framing failures are no-ops —
// spilling is best-effort, the cache stays correct without it. A
// partial append is rolled back so the in-memory view never drifts
// from the log (and a crash mid-append is healed by Open's recovery).
// req (the decoded form of reqDoc) and a non-nil word skip the JSON
// re-parses when building the similarity signature — the solve path
// passes what it just computed; nil-word callers pay one plan decode.
func (s *Store) Persist(req engine.Request, reqDoc, planDoc []byte, word core.Word) {
	key := sha256.Sum256(reqDoc)
	hdr, err := encodeHeader(key, reqDoc, planDoc)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.refs[key]; dup {
		return
	}
	// Segmented appends instead of one concatenated buffer — the plan
	// document dominates the record and is written straight from the
	// caller's bytes. A failure at any segment rolls the log back to
	// the pre-append size (the same torn state Open's recovery heals).
	off := s.size
	if f, ok := chaos.Hit(chaos.StoreAppend); ok {
		// Simulated crash mid-append: a prefix of the frame lands on
		// disk, then the "process dies" before the rollback or the
		// in-memory update — exactly the torn state Open's recovery
		// heals.
		// In-memory size/refs stay at the pre-append state, so a later
		// successful append overwrites the garbage from the same
		// offset, and a reopen truncates any surviving tail.
		frame := make([]byte, 0, len(hdr)+len(reqDoc)+len(planDoc))
		frame = append(append(append(frame, hdr...), reqDoc...), planDoc...)
		n := int(f.Frac * float64(len(frame)))
		if n >= len(frame) {
			n = len(frame) - 1
		}
		if n < 1 {
			n = 1
		}
		_, _ = s.f.WriteAt(frame[:n], off)
		return
	}
	for _, seg := range [3][]byte{hdr, reqDoc, planDoc} {
		n, err := s.f.WriteAt(seg, off)
		if err != nil {
			_ = s.f.Truncate(s.size)
			return
		}
		off += int64(n)
	}
	total := int(off - s.size)
	ref := recordRef{
		off: s.size, n: total,
		planOff: off - int64(len(planDoc)), planLen: len(planDoc),
	}
	s.size = off
	s.addLocked(key, ref, reqDoc, planDoc, &req, word)
}

// NoteWarmStart implements engine.PlanStore.
func (s *Store) NoteWarmStart(held bool) {
	if held {
		s.warmHits.Add(1)
	} else {
		s.fallbacks.Add(1)
	}
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Entries:   len(s.refs),
		Bytes:     s.size,
		Truncated: s.truncated,
		Skipped:   s.skipped,
		Problems:  s.problems,
	}
	s.mu.Unlock()
	st.DiskHits = s.diskHits.Load()
	st.WarmHits = s.warmHits.Load()
	st.Fallbacks = s.fallbacks.Load()
	return st
}

// Close closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Compact rewrites the log keeping only indexed records (in their
// original order, so neighbor tie-breaks are stable), dropping skipped
// ones, and reports how many bytes it reclaimed. The rewrite
// is atomic: a crash mid-compaction leaves either the old or the new
// log.
func (s *Store) Compact() (reclaimed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmpPath := filepath.Join(s.dir, logName+".tmp")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return 0, fmt.Errorf("planstore: compact: %w", err)
	}
	defer os.Remove(tmpPath)
	newRefs := make(map[[sha256.Size]byte]recordRef, len(s.refs))
	var off int64
	for _, key := range s.order {
		ref := s.refs[key]
		buf := make([]byte, ref.n)
		if _, err := s.f.ReadAt(buf, ref.off); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("planstore: compact: %w", err)
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("planstore: compact: %w", err)
		}
		shift := off - ref.off
		newRefs[key] = recordRef{off: off, n: ref.n, planOff: ref.planOff + shift, planLen: ref.planLen}
		off += int64(ref.n)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("planstore: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("planstore: compact: %w", err)
	}
	if _, ok := chaos.Hit(chaos.StoreCompact); ok {
		// Crash after the rewrite, before the atomic rename: the
		// deferred Remove discards the tmp file and the live log is
		// untouched — compaction must be all-or-nothing.
		return 0, fmt.Errorf("planstore: compact: injected crash before rename")
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		return 0, fmt.Errorf("planstore: compact: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(s.dir, logName), os.O_RDWR, 0o644)
	if err != nil {
		return 0, fmt.Errorf("planstore: compact: reopening: %w", err)
	}
	if _, err := f.Seek(off, 0); err != nil {
		f.Close()
		return 0, fmt.Errorf("planstore: compact: %w", err)
	}
	old := s.f
	reclaimed = s.size - off
	s.f, s.size, s.refs = f, off, newRefs
	s.skipped = 0
	_ = old.Close()
	return reclaimed, nil
}
