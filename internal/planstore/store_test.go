package planstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/platform"
	"repro/internal/wire"
)

// solveDocs renders one request/plan document pair through the real
// engine and wire codec — store tests exercise the exact bytes the
// cache would spill.
func solveDocs(t *testing.T, req engine.Request) (reqDoc, planDoc []byte) {
	t.Helper()
	reqDoc, err := wire.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	planDoc, err = wire.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return reqDoc, planDoc
}

func fig1Request(b0 float64) engine.Request {
	return engine.NewRequest(platform.MustInstance(b0, []float64{5, 5}, []float64{4, 1, 1}),
		engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
}

// persistDocs solves req, persists the document pair the way the
// cache's spill path would (decoded request alongside the bytes), and
// returns the docs.
func persistDocs(t *testing.T, s *Store, req engine.Request) (reqDoc, planDoc []byte) {
	t.Helper()
	reqDoc, planDoc = solveDocs(t, req)
	s.Persist(req, reqDoc, planDoc, nil)
	return reqDoc, planDoc
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reopenProblems closes s and returns what a fresh Open of dir finds
// wrong with the log: the lines `bmpcast store verify` prints.
func reopenProblems(t *testing.T, s *Store, dir string) []string {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir)
	defer s.Close()
	return s.Stats().Problems
}

func TestStoreRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)

	type rec struct {
		key     [sha256.Size]byte
		planDoc []byte
	}
	var recs []rec
	for _, b0 := range []float64{6, 7, 8} {
		reqDoc, planDoc := persistDocs(t, s, fig1Request(b0))
		recs = append(recs, rec{sha256.Sum256(reqDoc), planDoc})
	}
	st := s.Stats()
	if st.Entries != 3 || st.Bytes <= 0 || st.Truncated != 0 {
		t.Fatalf("stats after persist: %+v", st)
	}
	// Duplicate persists are no-ops.
	persistDocs(t, s, fig1Request(6))
	if got := s.Stats(); got.Entries != 3 || got.Bytes != st.Bytes {
		t.Fatalf("duplicate persist grew the store: %+v -> %+v", st, got)
	}
	for i, r := range recs {
		out, ok := s.Rendered(r.key)
		if !ok || !bytes.Equal(out, r.planDoc) {
			t.Fatalf("record %d: ok=%v, bytes differ", i, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every document must round-trip byte-identical, nothing
	// truncated, skipped or reported.
	s2 := openStore(t, dir)
	defer s2.Close()
	st = s2.Stats()
	if st.Entries != 3 || st.Truncated != 0 || st.Skipped != 0 || len(st.Problems) != 0 {
		t.Fatalf("stats after reopen: %+v", st)
	}
	for i, r := range recs {
		out, ok := s2.Rendered(r.key)
		if !ok || !bytes.Equal(out, r.planDoc) {
			t.Fatalf("record %d after reopen: ok=%v, byte-identity broken", i, ok)
		}
	}
}

// TestStoreCrashConsistency simulates a daemon killed mid-append: the
// log ends in a torn record. Open must load everything before the
// tear, drop the tail, report it, and accept a re-persist of the lost
// plan on the next solve.
func TestStoreCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	var lastReq, lastPlan []byte
	var lastR engine.Request
	var keys [][sha256.Size]byte
	var lastOff int64 // where the third record starts
	for _, b0 := range []float64{6, 7, 8} {
		lastOff = s.Stats().Bytes
		lastR = fig1Request(b0)
		reqDoc, planDoc := persistDocs(t, s, lastR)
		lastReq, lastPlan = reqDoc, planDoc
		keys = append(keys, sha256.Sum256(reqDoc))
	}
	full := s.Stats().Bytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, logName)
	info, err := os.Stat(logPath)
	if err != nil || info.Size() != full {
		t.Fatalf("log size %d, want %d (err=%v)", info.Size(), full, err)
	}
	// Tear the last record at a handful of depths: inside the payload,
	// at the payload boundary, and inside the header line.
	for _, cut := range []int64{1, int64(len(lastPlan)), int64(len(lastPlan) + len(lastReq) + 2)} {
		if err := os.Truncate(logPath, full-cut); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: open after crash: %v", cut, err)
		}
		st := s.Stats()
		if st.Entries != 2 || st.Truncated != 1 {
			t.Fatalf("cut %d: stats %+v, want 2 entries / 1 truncated", cut, st)
		}
		head := fmt.Sprintf("offset %d: %v: ", lastOff, ErrTruncated)
		tail := fmt.Sprintf("(%d bytes truncated)", full-cut-lastOff)
		if len(st.Problems) != 1 || !strings.HasPrefix(st.Problems[0], head) || !strings.HasSuffix(st.Problems[0], tail) {
			t.Fatalf("cut %d: problems %q, want one %q…%q", cut, st.Problems, head, tail)
		}
		for i := 0; i < 2; i++ {
			if _, ok := s.Rendered(keys[i]); !ok {
				t.Fatalf("cut %d: surviving record %d unreadable", cut, i)
			}
		}
		if _, ok := s.Rendered(keys[2]); ok {
			t.Fatalf("cut %d: torn record still served", cut)
		}
		// The next solve of the lost request re-persists it cleanly.
		s.Persist(lastR, lastReq, lastPlan, nil)
		out, ok := s.Rendered(keys[2])
		if !ok || !bytes.Equal(out, lastPlan) {
			t.Fatalf("cut %d: re-persist after crash failed", cut)
		}
		full = s.Stats().Bytes
		if p := reopenProblems(t, s, dir); len(p) != 0 {
			t.Fatalf("cut %d: problems after recovery: %q", cut, p)
		}
	}
}

func TestStoreNeighbor(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()

	base := fig1Request(6)
	persistDocs(t, s, base)

	// One rescaled open node: distance 1, same options — a neighbor.
	mut := base.Instance.Clone()
	if _, err := mut.Rescale(platform.Open, 0, 0.9); err != nil {
		t.Fatal(err)
	}
	query := engine.NewRequest(mut, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
	nb, ok := s.Neighbor(query)
	if !ok || nb.Distance != 1 || len(nb.Word) == 0 {
		t.Fatalf("neighbor = %+v ok=%v, want distance 1 with a word", nb, ok)
	}

	// Different options (tolerance) never match.
	diffOpts := engine.NewRequest(mut, engine.WithSolver("acyclic"))
	if _, ok := s.Neighbor(diffOpts); ok {
		t.Fatal("neighbor crossed option sets")
	}

	// Beyond the edit budget: no neighbor.
	far := platform.MustInstance(60, []float64{50, 40, 30, 20, 10}, []float64{9, 8, 7})
	farReq := engine.NewRequest(far, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
	if nb, ok := s.Neighbor(farReq); ok {
		t.Fatalf("far instance matched: %+v", nb)
	}

	// A closer stored instance wins over a farther one.
	persistDocs(t, s, engine.NewRequest(mut.Clone(), engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)))
	mut2 := mut.Clone()
	if _, err := mut2.Rescale(platform.Open, 1, 1.1); err != nil {
		t.Fatal(err)
	}
	query2 := engine.NewRequest(mut2, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
	nb2, ok := s.Neighbor(query2)
	if !ok || nb2.Distance != 1 {
		t.Fatalf("nearest neighbor not chosen: %+v ok=%v", nb2, ok)
	}
}

func TestStoreCompactDropsSkippedRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	var key0 [sha256.Size]byte
	var plan0 []byte
	for _, b0 := range []float64{6, 7} {
		reqDoc, planDoc := persistDocs(t, s, fig1Request(b0))
		if b0 == 6 {
			key0, plan0 = sha256.Sum256(reqDoc), planDoc
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Append a structurally valid record whose documents are not wire
	// documents — a future version's record, say — and a second copy of
	// the whole log, whose addresses repeat. Open skips all three.
	junk, err := encodeRecord([]byte(`{"v":99}`), []byte(`{"v":99}`))
	if err != nil {
		t.Fatal(err)
	}
	waste := append(append([]byte{}, junk...), data...)
	if err := os.WriteFile(logPath, append(data, waste...), 0o644); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, dir)
	st := s.Stats()
	if st.Entries != 2 || st.Skipped != 3 {
		t.Fatalf("stats with junk record: %+v", st)
	}
	junkOff, copyOff := len(data), len(data)+len(junk)
	junkKey := sha256.Sum256([]byte(`{"v":99}`))
	wants := []string{
		fmt.Sprintf("offset %d (%x): request document: ", junkOff, junkKey[:4]),
		fmt.Sprintf("offset %d (%x): address repeats the record at offset 0", copyOff, key0[:4]),
		"address repeats the record at offset ",
	}
	if len(st.Problems) != len(wants) {
		t.Fatalf("problems %q, want %d", st.Problems, len(wants))
	}
	for i, want := range wants {
		if !strings.Contains(st.Problems[i], want) {
			t.Errorf("problem %d = %q, want it to contain %q", i, st.Problems[i], want)
		}
	}
	before := st.Bytes
	reclaimed, err := s.Compact()
	if err != nil || reclaimed != int64(len(waste)) {
		t.Fatalf("compact reclaimed %d (err=%v), want %d", reclaimed, err, len(waste))
	}
	st = s.Stats()
	if st.Entries != 2 || st.Skipped != 0 || st.Bytes != before-int64(len(waste)) {
		t.Fatalf("stats after compact: %+v", st)
	}
	out, ok := s.Rendered(key0)
	if !ok || !bytes.Equal(out, plan0) {
		t.Fatal("compact broke byte-identity of surviving records")
	}
	if p := reopenProblems(t, s, dir); len(p) != 0 {
		t.Fatalf("problems after compact: %q", p)
	}
}

// TestStoreVerifyFlagsCorruption: one flipped bit in a plan document
// costs that record only. Open skips it, serves the records around it,
// keeps the whole log (compact drops the record) and names it in
// Stats.Problems — the line `bmpcast store verify` prints.
func TestStoreVerifyFlagsCorruption(t *testing.T) {
	for _, c := range []struct{ records, bad int }{{1, 0}, {3, 1}} {
		dir := t.TempDir()
		s := openStore(t, dir)
		var offs []int64 // where each record starts
		for i := 0; i < c.records; i++ {
			offs = append(offs, s.Stats().Bytes)
			persistDocs(t, s, fig1Request(float64(6+i)))
		}
		full := s.Stats().Bytes
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		end := full // where the bad record ends
		if c.bad+1 < c.records {
			end = offs[c.bad+1]
		}
		logPath := filepath.Join(dir, logName)
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		data[end-2] ^= 0x40 // flip a bit inside the bad record's plan document
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s = openStore(t, dir)
		st := s.Stats()
		head := fmt.Sprintf("offset %d: %v: plan checksum ", offs[c.bad], ErrCorrupt)
		if st.Entries != c.records-1 || st.Truncated != 0 || st.Skipped != 1 || st.Bytes != full {
			t.Errorf("%d records, record %d corrupt: stats %+v", c.records, c.bad, st)
		}
		if len(st.Problems) != 1 || !strings.HasPrefix(st.Problems[0], head) || !strings.HasSuffix(st.Problems[0], "(skipped)") {
			t.Errorf("%d records, record %d corrupt: problems %q, want one %q…(skipped)", c.records, c.bad, st.Problems, head)
		}
		if reclaimed, err := s.Compact(); err != nil || reclaimed != end-offs[c.bad] {
			t.Errorf("compact reclaimed %d (err=%v), want the bad record's %d bytes", reclaimed, err, end-offs[c.bad])
		}
		if p := reopenProblems(t, s, dir); len(p) != 0 {
			t.Errorf("problems after compact: %q", p)
		}
	}
}

// TestMultisetDist checks the exact distance below the budget and the
// cut-off at or above it, in both argument orders.
func TestMultisetDist(t *testing.T) {
	cases := []struct {
		a, b []float64
		want int
	}{
		{nil, nil, 0},
		{[]float64{5, 5}, []float64{5, 5}, 0},
		{[]float64{5, 5}, []float64{5, 4.5}, 1},  // rescale
		{[]float64{5, 5}, []float64{5, 5, 3}, 1}, // add
		{[]float64{5, 5, 3}, []float64{5, 5}, 1}, // remove
		{[]float64{9, 5, 2}, []float64{8, 4, 1}, 3},
		{[]float64{5}, []float64{7, 6, 5}, 2},
		{[]float64{3, 0}, []float64{3, math.Copysign(0, -1)}, 0}, // +0 == −0
		{[]float64{9, 8, 7, 6, 5}, []float64{4, 3, 2, 1}, 5},
		{[]float64{9, 7, 5, 3, 1}, []float64{8, 6, 4, 2}, 5},
		{[]float64{9, 7, 5, 3}, []float64{9}, 3}, // a tail past the budget
	}
	for _, c := range cases {
		for budget := 1; budget <= c.want+2; budget++ {
			want := min(c.want, budget)
			if got := multisetDist(c.a, c.b, budget); got != want {
				t.Errorf("multisetDist(%v, %v, %d) = %d, want %d", c.a, c.b, budget, got, want)
			}
			if got := multisetDist(c.b, c.a, budget); got != want {
				t.Errorf("multisetDist(%v, %v, %d) = %d, want %d (asymmetric)", c.b, c.a, budget, got, want)
			}
		}
	}
}

// TestStoreNeighborDeterministic pins the tie-break: equal-distance
// candidates resolve to the earliest stored record, every time, in
// either insertion order.
func TestStoreNeighborDeterministic(t *testing.T) {
	base := fig1Request(6)
	// Two stored instances both at distance 1 from the query, each
	// persisted with a word of its own through Persist's trusted word.
	left := base.Instance.Clone()
	if _, err := left.Rescale(platform.Open, 0, 0.8); err != nil {
		t.Fatal(err)
	}
	right := base.Instance.Clone()
	if _, err := right.Rescale(platform.Open, 0, 1.2); err != nil {
		t.Fatal(err)
	}
	word := func(letters string) core.Word {
		w, err := core.ParseWord(letters)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	recs := []struct {
		req  engine.Request
		word core.Word
	}{
		{engine.NewRequest(left, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)), word("ooggg")},
		{engine.NewRequest(right, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)), word("ogogg")},
	}
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		s := openStore(t, t.TempDir())
		for _, i := range order {
			reqDoc, planDoc := solveDocs(t, recs[i].req)
			s.Persist(recs[i].req, reqDoc, planDoc, recs[i].word)
		}
		want := recs[order[0]].word.String()
		for i := 0; i < 10; i++ {
			got, ok := s.Neighbor(base)
			if !ok || got.Distance != 1 || got.Word.String() != want {
				t.Fatalf("order %v, call %d: neighbor %v at %d (ok=%v), want the earlier record's %v at 1",
					order, i, got.Word, got.Distance, ok, want)
			}
		}
		s.Close()
	}
}

// TestStoreOwnsSignatures: a caller that persists a request and then
// mutates its instance in place must not move the stored signature.
func TestStoreOwnsSignatures(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	req := fig1Request(6)
	orig := req.Instance.Clone()
	persistDocs(t, s, req)
	if _, err := req.Instance.Rescale(platform.Open, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	nb, ok := s.Neighbor(engine.NewRequest(orig, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)))
	if !ok || nb.Distance != 0 {
		t.Fatalf("neighbor of the persisted instance: %+v ok=%v, want distance 0", nb, ok)
	}
}

// TestStoreNeighborConcurrentPersist runs queries against the shared
// signatures and option-set table while other goroutines persist into
// them (run under -race in CI); afterwards every persisted instance is
// found at distance 0.
func TestStoreNeighborConcurrentPersist(t *testing.T) {
	const writers, perWriter, readers = 4, 8, 4
	rng := rand.New(rand.NewSource(3))
	type doc struct {
		req             engine.Request
		reqDoc, planDoc []byte
	}
	docs := make([]doc, writers*perWriter)
	for i := range docs {
		ins, err := generator.Random(distribution.Unif100(), 10+rng.Intn(20), 0.6, rng)
		if err != nil {
			t.Fatal(err)
		}
		req := engine.NewRequest(ins, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
		reqDoc, planDoc := solveDocs(t, req)
		docs[i] = doc{req, reqDoc, planDoc}
	}
	s := openStore(t, t.TempDir())
	defer s.Close()

	var readWG, writeWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
		readWG.Add(1)
		go func(w int) {
			defer readWG.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if nb, ok := s.Neighbor(docs[i%len(docs)].req); ok && (nb.Distance > DefaultEditBudget || len(nb.Word) == 0) {
					t.Errorf("neighbor %+v out of contract", nb)
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for _, d := range docs[w*perWriter : (w+1)*perWriter] {
				s.Persist(d.req, d.reqDoc, d.planDoc, nil)
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if st := s.Stats(); st.Entries != len(docs) {
		t.Fatalf("%d entries after concurrent persists, want %d", st.Entries, len(docs))
	}
	for i, d := range docs {
		if nb, ok := s.Neighbor(d.req); !ok || nb.Distance != 0 {
			t.Fatalf("record %d: neighbor %+v ok=%v, want distance 0", i, nb, ok)
		}
	}
}
