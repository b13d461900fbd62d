package planstore

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/chaos"
)

// armStore arms a single-point plan and disarms on cleanup.
func armStore(t *testing.T, pt chaos.Point, rate, frac float64) {
	t.Helper()
	plan, err := chaos.NewPlan(17, chaos.Rule{Point: pt, Rate: rate, Frac: frac})
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(plan)
	t.Cleanup(chaos.Disarm)
}

// TestStoreRecoversFromInjectedTornAppends is the torn-write property
// test: appends torn mid-frame by the chaos layer must never corrupt
// surviving records — not in memory, not across reopen — and the torn
// keys must simply be re-persistable afterwards.
func TestStoreRecoversFromInjectedTornAppends(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)

	armStore(t, chaos.StoreAppend, 0.3, 0.9)
	type rec struct {
		key     [sha256.Size]byte
		planDoc []byte
		req     int // b0 offset, to re-persist later
	}
	var kept, torn []rec
	for i := 0; i < 40; i++ {
		req := fig1Request(float64(6 + i))
		reqDoc, planDoc := persistDocs(t, s, req)
		r := rec{key: sha256.Sum256(reqDoc), planDoc: planDoc, req: i}
		if _, ok := s.Rendered(r.key); ok {
			kept = append(kept, r)
		} else {
			torn = append(torn, r)
		}
	}
	chaos.Disarm()
	if len(torn) == 0 {
		t.Fatal("rate 0.3 tore no appends in 40 — injection not reaching the store")
	}
	if len(kept) == 0 {
		t.Fatal("every append torn at rate 0.3 — decision function broken")
	}

	// Surviving records stay byte-identical in the torn-up log…
	for _, r := range kept {
		got, ok := s.Rendered(r.key)
		if !ok || !bytes.Equal(got, r.planDoc) {
			t.Fatalf("record %d corrupted in-memory after torn appends", r.req)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// …and across reopen, where recovery may also drop a torn tail.
	s2 := openStore(t, dir)
	for _, r := range kept {
		got, ok := s2.Rendered(r.key)
		if !ok || !bytes.Equal(got, r.planDoc) {
			t.Fatalf("record %d lost or corrupted across reopen", r.req)
		}
	}
	for _, r := range torn {
		if _, ok := s2.Rendered(r.key); ok {
			t.Fatalf("torn record %d resurrected with unknown bytes", r.req)
		}
	}

	// Re-persisting the torn keys heals the store completely.
	for _, r := range torn {
		req := fig1Request(float64(6 + r.req))
		reqDoc, planDoc := persistDocs(t, s2, req)
		got, ok := s2.Rendered(sha256.Sum256(reqDoc))
		if !ok || !bytes.Equal(got, planDoc) {
			t.Fatalf("re-persisted record %d not served back", r.req)
		}
	}
	if p := reopenProblems(t, s2, dir); len(p) != 0 {
		t.Fatalf("problems after healing: %q", p)
	}
}

// TestCompactSurvivesInjectedCrash: a compaction failing after the
// rewrite but before the rename must leave the live log fully intact,
// and the next (uninjected) compaction must succeed.
func TestCompactSurvivesInjectedCrash(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	type rec struct {
		key     [sha256.Size]byte
		planDoc []byte
	}
	var recs []rec
	for i := 0; i < 8; i++ {
		reqDoc, planDoc := persistDocs(t, s, fig1Request(float64(6+i)))
		recs = append(recs, rec{sha256.Sum256(reqDoc), planDoc})
	}

	armStore(t, chaos.StoreCompact, 1, 0)
	if _, err := s.Compact(); err == nil {
		t.Fatal("injected compact crash did not surface")
	}
	chaos.Disarm()

	for i, r := range recs {
		got, ok := s.Rendered(r.key)
		if !ok || !bytes.Equal(got, r.planDoc) {
			t.Fatalf("record %d damaged by failed compaction", i)
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("clean compaction after injected crash: %v", err)
	}
	for i, r := range recs {
		got, ok := s.Rendered(r.key)
		if !ok || !bytes.Equal(got, r.planDoc) {
			t.Fatalf("record %d damaged by the follow-up compaction", i)
		}
	}
}
