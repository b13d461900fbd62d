package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/wire"
)

// fig1Mutated is fig1Request with one open bandwidth rescaled — a
// node-multiset edit distance of 1 from the stored instance, well
// inside the default warm-start budget.
const fig1Mutated = `{"v":1,"instance":{"v":1,"b0":6,"open":[5,4.5],"guarded":[4,1,1]},"solver":"acyclic","tolerance":1e-9}`

// postCache posts a solve and returns status, body and the
// X-Bmpcast-Cache label.
func postCache(t *testing.T, url, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Bmpcast-Cache")
}

// TestStoreServesAcrossRestart is the restart-survival contract at the
// service layer: a plan solved before shutdown is served byte-identical
// by a fresh process over the same store directory — as a hit, without
// a solve — and a similar request takes the warm path.
func TestStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	code, cold, label := postCache(t, ts.URL+"/v1/solve", fig1Request)
	if code != http.StatusOK || label != "miss" {
		t.Fatalf("first solve: status %d label %q: %s", code, label, cold)
	}
	ts.Close()
	srv.Close()

	// "Restart": a brand-new server over the same directory.
	srv2, err := NewServer(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() { ts2.Close(); srv2.Close() }()
	if st := srv2.StoreStats(); st.Entries != 1 || st.Truncated != 0 {
		t.Fatalf("store after restart: %+v, want the persisted plan loaded clean", st)
	}

	code, again, label := postCache(t, ts2.URL+"/v1/solve", fig1Request)
	if code != http.StatusOK || label != "hit" {
		t.Fatalf("replay after restart: status %d label %q", code, label)
	}
	if !bytes.Equal(cold, again) {
		t.Fatalf("restart broke byte identity:\n before %s\n after  %s", cold, again)
	}
	if cs := srv2.CacheStats(); cs.Misses != 0 {
		t.Fatalf("replay ran a solve (%+v), want a pure disk hit", cs)
	}

	// A mutated instance warm-starts from the stored neighbor.
	code, warm, label := postCache(t, ts2.URL+"/v1/solve", fig1Mutated)
	if code != http.StatusOK {
		t.Fatalf("mutated solve: status %d: %s", code, warm)
	}
	if label != "warm" {
		t.Fatalf("mutated solve label %q, want warm (body: %s)", label, warm)
	}
	if !strings.Contains(string(warm), `"warm_started": true`) {
		t.Fatalf("warm plan does not carry provenance: %s", warm)
	}
	st := srv2.StoreStats()
	if st.WarmHits != 1 || st.Entries != 1 {
		t.Fatalf("store stats after warm solve: %+v, want 1 warm hit and no re-spill (admission policy: a repaired plan is within edit budget of the entry that served it)", st)
	}
}

// TestBatchAndJobItemsUseTheStore: batch and job items take
// /v1/solve's document path, so a store-backed server persists their
// misses and, after a restart on the same directory, answers the same
// batch and job byte-identically from disk, without a solve. Each call
// holds one incremental (acyclic) request, and the two differ in their
// options, so no item warm-starts from another and skips its spill.
func TestBatchAndJobItemsUseTheStore(t *testing.T) {
	const (
		batch = `{"v":1,"requests":[` + fig1Request + `,` +
			`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"solver":"greedy"}]}`
		job = `{"v":1,"requests":[` +
			`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5,3],"guarded":[4,1]},"solver":"acyclic"},` +
			`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5,3],"guarded":[4,1]},"solver":"greedy"}]}`
	)
	dir := t.TempDir()
	answer := func() (batchDoc []byte, jobLines [][]byte, cs engine.CacheStats, diskHits int64) {
		t.Helper()
		srv, err := NewServer(Config{Workers: 2, StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer func() { ts.Close(); srv.Close() }()
		code, batchDoc := post(t, ts.URL+"/v1/batch", batch)
		if code != http.StatusOK {
			t.Fatalf("batch: status %d: %s", code, batchDoc)
		}
		id := submitJob(t, ts.URL, job)
		waitJobDone(t, ts.URL, id)
		if _, completed, errs := jobStatus(t, ts.URL, id); completed != 2 || errs != 0 {
			t.Fatalf("job: %d items completed, %d errors", completed, errs)
		}
		return batchDoc, readStream(t, ts.URL, id, 0), srv.CacheStats(), srv.StoreStats().DiskHits
	}
	batch1, lines1, cs, hits := answer()
	if cs.Misses != 4 || hits != 0 {
		t.Fatalf("first run: %d misses, %d disk hits; want 4 solves on an empty store", cs.Misses, hits)
	}
	// "Restart": a brand-new server over the same directory.
	batch2, lines2, cs, hits := answer()
	if cs.Misses != 0 || hits != 4 {
		t.Fatalf("after restart: %d misses, %d disk hits; want every item answered from disk", cs.Misses, hits)
	}
	if !bytes.Equal(batch1, batch2) {
		t.Fatalf("restart changed the batch answer:\n before %s\n after  %s", batch1, batch2)
	}
	if !bytes.Equal(bytes.Join(lines1, nil), bytes.Join(lines2, nil)) || len(lines2) != 2 {
		t.Fatalf("restart changed the job stream:\n before %q\n after  %q", lines1, lines2)
	}
}

// TestStoreKeepsBackfill: a plan back-filled into a standalone replica
// over /v1/cluster/fill is persisted to its store, so a fresh process
// over the same directory answers the request from disk without a
// solve.
func TestStoreKeepsBackfill(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	canonical := canonicalFig1(t)
	req, err := wire.DecodeRequest(canonical)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Default.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := wire.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.NewFromConfig(client.Config{Endpoints: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if stored, err := c.PeerFill(context.Background(), canonical, rendered); err != nil || !stored {
		t.Fatalf("PeerFill = (%v, %v), want stored", stored, err)
	}
	ts.Close()
	srv.Close()

	srv2, err := NewServer(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() { ts2.Close(); srv2.Close() }()
	code, got, label := postCache(t, ts2.URL+"/v1/solve", fig1Request)
	if code != http.StatusOK || label != "hit" {
		t.Fatalf("solve after restart: status %d label %q: %s", code, label, got)
	}
	if !bytes.Equal(got, rendered) {
		t.Fatalf("served plan differs from the back-filled one:\n%s\nvs\n%s", got, rendered)
	}
	if cs := srv2.CacheStats(); cs.Misses != 0 {
		t.Fatalf("cache stats %+v, want no solve", cs)
	}
	if st := srv2.StoreStats(); st.DiskHits != 1 {
		t.Fatalf("store stats %+v, want the back-fill served as 1 disk hit", st)
	}
}

// TestStoreMetrics pins the store gauge lines on /metrics.
func TestStoreMetrics(t *testing.T) {
	srv, err := NewServer(Config{Workers: 2, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	if code, body, _ := postCache(t, ts.URL+"/v1/solve", fig1Request); code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bmpcast_cache_entries 1",
		"bmpcast_store_entries 1",
		"bmpcast_store_disk_hits 0",
		"bmpcast_store_warm_hits 0",
		"bmpcast_store_fallbacks 0",
		"bmpcast_store_truncated_records 0",
	} {
		if !strings.Contains(string(data), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}
	if !strings.Contains(string(data), "bmpcast_store_bytes ") ||
		strings.Contains(string(data), "bmpcast_store_bytes 0\n") {
		t.Errorf("bmpcast_store_bytes missing or zero after a persisted solve:\n%s", data)
	}
}

// TestStoreRequiresCache pins the config contract: a store without the
// plan cache is a misconfiguration, surfaced as an error by NewServer.
func TestStoreRequiresCache(t *testing.T) {
	if _, err := NewServer(Config{CacheSize: -1, StoreDir: t.TempDir()}); err == nil {
		t.Fatal("NewServer accepted StoreDir with caching disabled")
	}
}
