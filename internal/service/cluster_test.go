package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/wire"
)

// lateHandler lets an httptest listener start (so its URL exists)
// before the Server that advertises that URL as Config.Self is built.
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterOpts tunes startCluster. Zero value: everyone peers with
// everyone, default hedge, no middleware.
type clusterOpts struct {
	hedge    time.Duration
	peersFor func(i int, urls []string) []string
	wrap     func(i int, urls []string, h http.Handler) http.Handler
}

// startCluster boots n in-process replicas that know their URLs from
// birth (listen first, then construct each Server with Self/Peers).
func startCluster(t *testing.T, n int, opts clusterOpts) ([]*Server, []string) {
	t.Helper()
	handlers := make([]*lateHandler, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range handlers {
		handlers[i] = &lateHandler{}
		tss[i] = httptest.NewServer(handlers[i])
		urls[i] = tss[i].URL
	}
	srvs := make([]*Server, n)
	for i := range srvs {
		peers := urls
		if opts.peersFor != nil {
			peers = opts.peersFor(i, urls)
		}
		srvs[i] = New(Config{Workers: 4, Self: urls[i], Peers: peers, HedgeAfter: opts.hedge})
		var h http.Handler = srvs[i]
		if opts.wrap != nil {
			h = opts.wrap(i, urls, h)
		}
		handlers[i].set(h)
	}
	t.Cleanup(func() {
		for _, ts := range tss {
			ts.Close()
		}
		for _, s := range srvs {
			s.Close()
		}
	})
	return srvs, urls
}

// canonicalFig1 returns the fig1 request in canonical wire form — the
// bytes whose SHA-256 is both the plan-cache key and the ring key.
func canonicalFig1(t *testing.T) []byte {
	t.Helper()
	req, err := wire.DecodeRequest([]byte(fig1Request))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := wire.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return canonical
}

// ownerIndex resolves which replica owns canonical on a fresh ring
// over urls — the same ring every replica and client builds.
func ownerIndex(t *testing.T, urls []string, canonical []byte) int {
	t.Helper()
	owner := cluster.NewRing(urls).Owner(cluster.Key(canonical))
	for i, u := range urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q not among replicas %v", owner, urls)
	return -1
}

func sumMisses(srvs []*Server) int64 {
	var n int64
	for _, s := range srvs {
		n += s.CacheStats().Misses
	}
	return n
}

// postHdr is post plus the response headers.
func postHdr(t *testing.T, url, body string) (int, []byte, http.Header) {
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
	return resp.StatusCode, data, resp.Header
}

// drainBody consumes the request body and puts the bytes back. A
// middleware that stalls before the body is read would never see
// r.Context() fire on client disconnect — the server's background
// disconnect watch only starts once the body is consumed.
func drainBody(r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterSolvesEachKeyOnce is the tentpole invariant: the same
// request posted to every replica is solved exactly once cluster-wide
// — non-owners forward to the ring owner, whose cache memoizes — and
// every replica answers byte-identical bytes.
func TestClusterSolvesEachKeyOnce(t *testing.T) {
	srvs, urls := startCluster(t, 3, clusterOpts{})
	var bodies [][]byte
	forwards := 0
	for _, u := range urls {
		code, body, hdr := postHdr(t, u+"/v1/solve", fig1Request)
		if code != http.StatusOK {
			t.Fatalf("solve on %s: status %d: %s", u, code, body)
		}
		if hdr.Get("X-Bmpcast-Cache") == "forward" {
			forwards++
		}
		bodies = append(bodies, body)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("replica %d answered different bytes:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if forwards != 2 {
		t.Errorf("forwarded responses = %d, want 2 (every non-owner forwards)", forwards)
	}
	if got := sumMisses(srvs); got != 1 {
		t.Errorf("cluster-wide cache misses = %d, want exactly 1", got)
	}
	var fwdN int64
	for _, s := range srvs {
		fwdN += s.forwardsN.Load()
	}
	if fwdN != 2 {
		t.Errorf("forward counter sum = %d, want 2", fwdN)
	}

	// Round 2: every replica now answers from memory, whether the
	// repeat is spelled as in round 1 or in canonical form. A non-owner
	// finds the owner's answer under the canonical key and forwards
	// nothing.
	for _, in := range []string{fig1Request, string(canonicalFig1(t))} {
		for _, u := range urls {
			code, body, hdr := postHdr(t, u+"/v1/solve", in)
			if code != http.StatusOK || !bytes.Equal(body, bodies[0]) {
				t.Fatalf("repeat on %s diverged (status %d)", u, code)
			}
			if got := hdr.Get("X-Bmpcast-Cache"); got != "hit" {
				t.Errorf("repeat on %s: X-Bmpcast-Cache = %q, want hit", u, got)
			}
		}
	}
	if got := sumMisses(srvs); got != 1 {
		t.Errorf("cluster-wide misses after repeats = %d, want still 1", got)
	}
	fwdN = 0
	for _, s := range srvs {
		fwdN += s.forwardsN.Load()
	}
	if fwdN != 2 {
		t.Errorf("forward counter sum after repeats = %d, want still 2", fwdN)
	}
}

// TestClusterHedgeFallsBackAndBackfills pins the hedge path: an owner
// that stays silent past HedgeAfter is raced by a local solve, the
// local result answers the request, and the owner's cache is
// back-filled — still exactly one solve cluster-wide, because the
// canceled forward never reaches the owner's solver.
func TestClusterHedgeFallsBackAndBackfills(t *testing.T) {
	slowPeerSolve := func(i int, urls []string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cluster/solve" {
				// Drain the body before stalling: the server only notices a
				// disconnect (and cancels r.Context()) once the body is read.
				drainBody(r)
				select {
				case <-time.After(10 * time.Second):
				case <-r.Context().Done():
					return // forward canceled: the owner never solves
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	srvs, urls := startCluster(t, 2, clusterOpts{hedge: 5 * time.Millisecond, wrap: slowPeerSolve})
	canonical := canonicalFig1(t)
	owner := ownerIndex(t, urls, canonical)
	entry := 1 - owner

	code, body, hdr := postHdr(t, urls[entry]+"/v1/solve", fig1Request)
	if code != http.StatusOK {
		t.Fatalf("hedged solve: status %d: %s", code, body)
	}
	if got := hdr.Get("X-Bmpcast-Cache"); got != "forward" {
		t.Errorf("X-Bmpcast-Cache = %q, want forward", got)
	}
	if got := srvs[entry].hedgesN.Load(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	if got := srvs[entry].fallbackWinsN.Load(); got != 1 {
		t.Errorf("local fallback wins = %d, want 1", got)
	}

	// The back-fill is asynchronous; once it lands the owner holds the
	// rendered plan without ever having solved it.
	waitFor(t, "back-fill to reach the owner", func() bool {
		return srvs[owner].fillsRecvN.Load() == 1 && srvs[entry].fillsSentN.Load() == 1
	})
	if got := sumMisses(srvs); got != 1 {
		t.Errorf("cluster-wide misses = %d, want exactly 1 (the hedged local solve)", got)
	}

	// The owner now answers the same request byte-identically straight
	// from the filled cache — no new solve anywhere.
	code, got, hdr := postHdr(t, urls[owner]+"/v1/solve", string(canonical))
	if code != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("owner after fill diverged (status %d):\n%s\nvs\n%s", code, got, body)
	}
	if h := hdr.Get("X-Bmpcast-Cache"); h != "hit" {
		t.Errorf("owner after fill: X-Bmpcast-Cache = %q, want hit", h)
	}
	if got := sumMisses(srvs); got != 1 {
		t.Errorf("cluster-wide misses after fill replay = %d, want still 1", got)
	}
}

// TestClusterClientHedgesToHealthyReplica drives the hedge from the
// SDK side: the multi-endpoint client gives up on a silent owner after
// Hedge.After and asks the next ring replica, which forwards to the
// owner's (healthy) peer endpoint — one solve cluster-wide, counted.
func TestClusterClientHedgesToHealthyReplica(t *testing.T) {
	canonicalCh := make(chan []byte, 1)
	slowOwnerSolve := func(i int, urls []string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Only the public solve endpoint of the key's owner is slow —
			// the peer-to-peer /v1/cluster/solve stays healthy.
			if r.URL.Path == "/v1/solve" {
				canonical := <-canonicalCh
				canonicalCh <- canonical
				if urls[i] == cluster.NewRing(urls).Owner(cluster.Key(canonical)) {
					drainBody(r)
					select {
					case <-time.After(10 * time.Second):
					case <-r.Context().Done():
						return
					}
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	srvs, urls := startCluster(t, 2, clusterOpts{wrap: slowOwnerSolve})
	canonical := canonicalFig1(t)
	canonicalCh <- canonical
	owner := ownerIndex(t, urls, canonical)
	entry := 1 - owner

	c, err := client.NewFromConfig(client.Config{
		Endpoints: urls,
		Hedge:     client.Hedge{After: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.Solve(context.Background(), engine.NewRequest(
		platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1}),
		engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)))
	if err != nil {
		t.Fatal(err)
	}
	if d := plan.Throughput - 4; d < -1e-6 || d > 1e-6 {
		t.Errorf("Throughput = %v, want ≈4", plan.Throughput)
	}
	if got := sumMisses(srvs); got != 1 {
		t.Errorf("cluster-wide misses = %d, want exactly 1", got)
	}
	if got := srvs[entry].forwardsN.Load(); got != 1 {
		t.Errorf("hedge target forwarded %d solves, want 1", got)
	}
	if got := srvs[owner].requests["clustersolve"].Load(); got != 1 {
		t.Errorf("owner answered %d peer solves, want 1", got)
	}
}

// TestClusterJobPinnedToReplica is the satellite regression: jobs are
// replica-local, so a reattached handle (fresh client, id only) must
// find the owning replica, and streams must resume byte-identically
// from a cursor — including across a membership change mid-stream.
func TestClusterJobPinnedToReplica(t *testing.T) {
	srvs, urls := startCluster(t, 3, clusterOpts{})
	c, err := client.NewFromConfig(client.Config{Endpoints: urls})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const items = 4
	reqs := make([]client.Request, items)
	for i := range reqs {
		reqs[i] = engine.NewRequest(
			platform.MustInstance(6, []float64{5, 5, float64(i + 1)}, []float64{4, 1, 1}),
			engine.WithSolver("acyclic"))
	}
	job, err := c.Submit(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}

	// Cluster job ids are namespaced with the owning replica's tag.
	dash := strings.LastIndex(job.ID, "-")
	if dash < 0 {
		t.Fatalf("cluster job id %q has no replica tag", job.ID)
	}
	jobOwner := -1
	for i, u := range urls {
		if job.ID[dash+1:] == cluster.ShortID(u) {
			jobOwner = i
		}
	}
	if jobOwner < 0 {
		t.Fatalf("job id %q names no replica in %v", job.ID, urls)
	}

	// Reattach with a fresh client that only knows the id: Status must
	// probe the endpoints and pin the owning replica.
	c2, err := client.NewFromConfig(client.Config{Endpoints: urls})
	if err != nil {
		t.Fatal(err)
	}
	j2 := c2.Job(job.ID)
	var st client.JobStatus
	waitFor(t, "reattached job to finish", func() bool {
		st, err = j2.Status(ctx)
		return err == nil && st.Done()
	})
	if st.Items != items || st.Errors != 0 {
		t.Fatalf("reattached status = %+v, want %d clean items", st, items)
	}

	// Stream the full job from the reattached handle, applying a
	// membership change after the first item: the pinned stream and the
	// remaining items must be unaffected (ring swaps steer future
	// requests only).
	stream, err := j2.Stream(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	removed := (jobOwner + 1) % len(urls)
	announcer := (jobOwner + 2) % len(urls)
	for i := 0; i < items; i++ {
		item, err := stream.Next()
		if err != nil {
			t.Fatalf("stream item %d: %v", i, err)
		}
		if item.Index != i || item.Plan == nil || item.Err != nil {
			t.Fatalf("stream item %d = %+v", i, item)
		}
		if i == 0 {
			ca, err := client.NewFromConfig(client.Config{Endpoints: []string{urls[announcer]}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ca.ClusterLeave(ctx, urls[removed], true); err != nil {
				t.Fatalf("mid-stream leave: %v", err)
			}
		}
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Fatalf("stream end: %v, want EOF", err)
	}
	for _, i := range []int{jobOwner, announcer} {
		waitFor(t, fmt.Sprintf("replica %d to see the leave", i), func() bool {
			return len(srvs[i].Members()) == 2
		})
	}

	// Byte-level resume: the raw NDJSON replay from a cursor is exactly
	// the tail of the full replay.
	get := func(path string) []byte {
		resp, err := http.Get(urls[jobOwner] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, data)
		}
		return data
	}
	full := get("/v1/jobs/" + job.ID + "/stream")
	lines := bytes.SplitAfter(full, []byte("\n"))
	resumed := get("/v1/jobs/" + job.ID + "/stream?from=2")
	if want := bytes.Join(lines[2:], nil); !bytes.Equal(resumed, want) {
		t.Fatalf("resume from 2 not byte-identical:\n%s\nvs\n%s", resumed, want)
	}

	// Other replicas must not resolve the id (no false positives).
	for i, u := range urls {
		if i == jobOwner {
			continue
		}
		resp, err := http.Get(u + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("replica %d resolves foreign job id: status %d", i, resp.StatusCode)
		}
	}
}

// TestClusterFillStoresRenderedPlan exercises /v1/cluster/fill
// directly: a fill delivers the rendered plan into the target's cache
// (no solve, no miss) and the target then serves it byte-identically.
func TestClusterFillStoresRenderedPlan(t *testing.T) {
	srvs, urls := startCluster(t, 2, clusterOpts{})
	canonical := canonicalFig1(t)

	// Solve on replica 0 via the peer endpoint (always local).
	code, rendered, _ := postHdr(t, urls[0]+"/v1/cluster/solve", string(canonical))
	if code != http.StatusOK {
		t.Fatalf("peer solve: status %d: %s", code, rendered)
	}

	cb, err := client.NewFromConfig(client.Config{Endpoints: []string{urls[1]}})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := cb.PeerFill(context.Background(), canonical, rendered)
	if err != nil || !stored {
		t.Fatalf("PeerFill = (%v, %v), want stored", stored, err)
	}
	if got := srvs[1].fillsRecvN.Load(); got != 1 {
		t.Errorf("fills received = %d, want 1", got)
	}

	code, got, _ := postHdr(t, urls[1]+"/v1/cluster/solve", string(canonical))
	if code != http.StatusOK || !bytes.Equal(got, rendered) {
		t.Fatalf("filled replica diverged (status %d):\n%s\nvs\n%s", code, got, rendered)
	}
	if misses := srvs[1].CacheStats().Misses; misses != 0 {
		t.Errorf("filled replica misses = %d, want 0 (fill must pre-empt the solve)", misses)
	}

	// A fill whose plan doesn't decode is a typed 400, not a store.
	if _, err := cb.PeerFill(context.Background(), canonical, []byte(`{"not":"a plan"}`)); err == nil {
		t.Error("malformed fill accepted")
	}
	if got := srvs[1].fillsRecvN.Load(); got != 1 {
		t.Errorf("fills received after malformed fill = %d, want still 1", got)
	}
}

// TestClusterMembershipPropagates covers gossip-lite join/leave: one
// reachable seed teaches a joiner the whole cluster and the whole
// cluster about the joiner; a leave broadcast empties the same way.
func TestClusterMembershipPropagates(t *testing.T) {
	srvs, urls := startCluster(t, 3, clusterOpts{
		peersFor: func(i int, urls []string) []string {
			switch i {
			case 0:
				return []string{urls[1]}
			case 1:
				return []string{urls[0]}
			default:
				return nil // the late joiner starts alone
			}
		},
	})
	if got := len(srvs[2].Members()); got != 1 {
		t.Fatalf("joiner starts with %d members, want 1", got)
	}

	if err := srvs[2].JoinCluster(context.Background(), []string{urls[0]}); err != nil {
		t.Fatal(err)
	}
	if got := len(srvs[2].Members()); got != 3 {
		t.Errorf("joiner sees %d members after join, want 3 (seed taught it the cluster)", got)
	}
	for i := 0; i < 2; i++ {
		waitFor(t, fmt.Sprintf("replica %d to learn of the joiner", i), func() bool {
			return len(srvs[i].Members()) == 3
		})
	}

	srvs[2].LeaveCluster(context.Background())
	for i := 0; i < 2; i++ {
		waitFor(t, fmt.Sprintf("replica %d to see the leave", i), func() bool {
			return len(srvs[i].Members()) == 2
		})
	}
}
