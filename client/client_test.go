package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/chaos/leakcheck"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/wire"
)

func fig1() *platform.Instance {
	return platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
}

// newService spins an in-process daemon and a client wired to it.
func newService(t *testing.T) (*service.Server, *client.Client) {
	t.Helper()
	srv := service.New(service.Config{Workers: 4})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, newClient(t, ts.URL, 2, time.Millisecond)
}

// newClient builds a one-endpoint client that retries idempotent calls
// retries times (negative: never), backing off from backoff.
func newClient(t *testing.T, base string, retries int, backoff time.Duration) *client.Client {
	t.Helper()
	c, err := client.NewFromConfig(client.Config{
		Endpoints: []string{base},
		Retry:     client.Retry{Retries: retries, Backoff: backoff},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSolveMatchesLocalExecute(t *testing.T) {
	_, c := newService(t)
	req := engine.NewRequest(fig1(), engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))

	remote, err := c.SolveRaw(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	local, err := wire.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local) {
		t.Fatalf("remote solve differs from local Execute:\n%s\nvs\n%s", remote, local)
	}

	decoded, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Solver != "acyclic" || decoded.TStar != 4.4 {
		t.Errorf("decoded plan: %+v", decoded)
	}
}

// TestSentinelsCrossTheWire is the acceptance check: errors.Is on the
// engine sentinels works against errors a remote service produced.
func TestSentinelsCrossTheWire(t *testing.T) {
	_, c := newService(t)
	ctx := context.Background()

	_, err := c.Solve(ctx, engine.NewRequest(fig1(), engine.WithSolver("does-not-exist")))
	if !errors.Is(err, engine.ErrUnknownSolver) {
		t.Errorf("unknown solver: errors.Is = false, err = %v", err)
	}
	if errors.Is(err, engine.ErrInfeasible) {
		t.Errorf("unknown solver error also matches ErrInfeasible: %v", err)
	}

	// acyclic-open rejects guarded nodes → infeasible.
	_, err = c.Solve(ctx, engine.NewRequest(fig1(), engine.WithSolver("acyclic-open")))
	if !errors.Is(err, engine.ErrInfeasible) {
		t.Errorf("infeasible: errors.Is = false, err = %v", err)
	}
	if err == nil || err.Error() == "" {
		t.Error("remote error lost its message")
	}
}

func TestBatch(t *testing.T) {
	_, c := newService(t)
	var reqs []client.Request
	for i := 0; i < 5; i++ {
		ins := platform.MustInstance(6, []float64{5, 5, float64(i + 1)}, []float64{4, 1, 1})
		reqs = append(reqs, engine.NewRequest(ins, engine.WithSolver("acyclic")))
	}
	plans, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 5 {
		t.Fatalf("got %d plans, want 5", len(plans))
	}
	for i, p := range plans {
		if p.Throughput <= 0 || p.Solver != "acyclic" {
			t.Errorf("plan %d: %+v", i, p)
		}
	}
}

func TestJobSubmitStreamStatus(t *testing.T) {
	_, c := newService(t)
	ctx := context.Background()
	var reqs []client.Request
	for i := 0; i < 6; i++ {
		ins := platform.MustInstance(6, []float64{5, 5, float64(i + 1)}, []float64{4, 1, 1})
		reqs = append(reqs, engine.NewRequest(ins, engine.WithSolver("acyclic")))
	}
	job, err := c.Submit(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Items != 6 {
		t.Fatalf("job handle: %+v", job)
	}

	stream, err := job.Stream(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i := 0; i < 6; i++ {
		item, err := stream.Next()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if item.Index != i || item.Err != nil || item.Plan == nil || item.Plan.Throughput <= 0 {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Fatalf("after last item: err = %v, want io.EOF", err)
	}

	st, err := job.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() || st.Completed != 6 || st.Errors != 0 {
		t.Fatalf("final status: %+v", st)
	}

	// Reattach by id (fresh handle, no Items) and resume mid-batch.
	resumed, err := c.Job(job.ID).Stream(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for i := 4; i < 6; i++ {
		item, err := resumed.Next()
		if err != nil || item.Index != i {
			t.Fatalf("resumed item %d: %+v, %v", i, item, err)
		}
	}
	if _, err := resumed.Next(); err != io.EOF {
		t.Fatalf("resumed tail: err = %v, want io.EOF", err)
	}
}

func TestJobStreamCarriesItemErrors(t *testing.T) {
	_, c := newService(t)
	ctx := context.Background()
	reqs := []client.Request{
		engine.NewRequest(fig1(), engine.WithSolver("acyclic")),
		engine.NewRequest(fig1(), engine.WithSolver("acyclic-open")), // infeasible on guarded nodes
	}
	job, err := c.Submit(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := job.Stream(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	ok, err := stream.Next()
	if err != nil || ok.Err != nil || ok.Plan == nil {
		t.Fatalf("item 0: %+v, %v", ok, err)
	}
	failed, err := stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(failed.Err, engine.ErrInfeasible) {
		t.Fatalf("item 1 Err = %v, want ErrInfeasible (sentinel across the stream)", failed.Err)
	}
}

// tornStream passes every request through to the service, except the
// first job stream, which it cuts mid-line: item 0 and half of item 1,
// then the response ends.
type tornStream struct {
	backend http.Handler
	mu      sync.Mutex
	streams []string // the query of each stream request
}

func (p *tornStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/stream") {
		p.backend.ServeHTTP(w, r)
		return
	}
	p.mu.Lock()
	p.streams = append(p.streams, r.URL.RawQuery)
	first := len(p.streams) == 1
	p.mu.Unlock()
	if !first {
		p.backend.ServeHTTP(w, r)
		return
	}
	full := httptest.NewRecorder()
	p.backend.ServeHTTP(full, r)
	body := full.Body.Bytes()
	one := bytes.IndexByte(body, '\n') + 1
	two := one + bytes.IndexByte(body[one:], '\n') + 1
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(body[:(one+two)/2])
}

// TestStreamResumesAfterTornLine: a stream whose body ends mid-line was
// cut, not finished. The client reconnects from its cursor instead of
// decoding the torn tail, and delivers every item once, in order.
func TestStreamResumesAfterTornLine(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	proxy := &tornStream{backend: srv}
	ts := httptest.NewServer(proxy)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := newClient(t, ts.URL, 2, time.Millisecond)
	ctx := context.Background()
	var reqs []client.Request
	for i := 0; i < 3; i++ {
		ins := platform.MustInstance(6, []float64{5, 5, float64(i + 1)}, []float64{4, 1, 1})
		reqs = append(reqs, engine.NewRequest(ins, engine.WithSolver("acyclic")))
	}
	job, err := c.Submit(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := job.Stream(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i := 0; i < 3; i++ {
		item, err := stream.Next()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if item.Index != i || item.Err != nil || item.Plan == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Fatalf("after last item: err = %v, want io.EOF", err)
	}
	proxy.mu.Lock()
	defer proxy.mu.Unlock()
	if got := strings.Join(proxy.streams, " "); got != "from=0 from=1" {
		t.Fatalf("stream requests %q, want from=0 then from=1", got)
	}
}

// flakyProxy fails the first n requests per path with 503, then
// forwards to the real service — the retry loop must ride through.
type flakyProxy struct {
	backend  http.Handler
	failures atomic.Int64
	budget   int64
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.failures.Add(1) <= p.budget {
		http.Error(w, "synthetic outage", http.StatusServiceUnavailable)
		return
	}
	p.backend.ServeHTTP(w, r)
}

func TestRetryRidesThroughTransientFailures(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	proxy := &flakyProxy{backend: srv, budget: 2}
	ts := httptest.NewServer(proxy)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	c := newClient(t, ts.URL, 3, time.Millisecond)
	plan, err := c.Solve(context.Background(), engine.NewRequest(fig1(), engine.WithSolver("acyclic")))
	if err != nil {
		t.Fatalf("solve through flaky proxy: %v", err)
	}
	if plan.Throughput <= 0 {
		t.Fatalf("plan: %+v", plan)
	}
	if got := proxy.failures.Load(); got != 3 { // 2 failures + 1 success
		t.Errorf("proxy saw %d attempts, want 3", got)
	}
}

func TestRetryGivesUpWithinBudget(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(always.Close)
	c := newClient(t, always.URL, 1, time.Millisecond)
	_, err := c.Solve(context.Background(), engine.NewRequest(fig1()))
	if err == nil {
		t.Fatal("solve against a dead service succeeded")
	}
}

func TestTypedFailuresAreNotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := service.New(service.Config{Workers: 2})
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { counting.Close(); srv.Close() })
	c := newClient(t, counting.URL, 3, time.Millisecond)
	_, err := c.Solve(context.Background(), engine.NewRequest(fig1(), engine.WithSolver("nope")))
	if !errors.Is(err, engine.ErrUnknownSolver) {
		t.Fatal(err)
	}
	if hits.Load() != 1 {
		t.Fatalf("client retried a 4xx: %d attempts", hits.Load())
	}
}

func TestContextCancelsBackoff(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(always.Close)
	c := newClient(t, always.URL, 5, time.Hour) // backoff would block for hours
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Solve(ctx, engine.NewRequest(fig1()))
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrCanceled joined with DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, backoff ignored the context", elapsed)
	}
}

// TestStreamDisconnectLeavesNoWorkspaceLeaked: a client canceling its
// stream mid-batch leaves the service at its workspace baseline once
// the job drains (the acceptance leak check, SDK-side).
func TestStreamDisconnectLeavesNoWorkspaceLeaked(t *testing.T) {
	base := leakcheck.Snapshot()
	srv := service.New(service.Config{Workers: 4})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := newClient(t, ts.URL, 2, time.Millisecond)
	ctx := context.Background()
	var reqs []client.Request
	for i := 0; i < 8; i++ {
		ins := platform.MustInstance(6, []float64{5, 5, float64(i + 1)}, []float64{4, 1, 1})
		reqs = append(reqs, engine.NewRequest(ins, engine.WithSolver("acyclic")))
	}
	job, err := c.Submit(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	streamCtx, cancel := context.WithCancel(ctx)
	stream, err := job.Stream(streamCtx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err != nil { // consume one item, then walk away
		t.Fatal(err)
	}
	cancel()
	stream.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := job.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish after stream disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := engine.LeasedWorkspaces(); got != base.Leased {
		t.Fatalf("LeasedWorkspaces = %d after disconnect, want baseline %d", got, base.Leased)
	}
	// The canceled context is sticky on the old stream: already-buffered
	// lines may still drain, but it must end in cancellation or EOF
	// without ever reconnecting.
	for {
		_, err := stream.Next()
		if err == nil {
			continue
		}
		if !errors.Is(err, engine.ErrCanceled) && err != io.EOF {
			t.Fatalf("canceled stream ended with %v, want ErrCanceled or io.EOF", err)
		}
		break
	}
	// …but a fresh stream resumes from any index without re-solving.
	resumed, err := job.Stream(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		item, err := resumed.Next()
		if err != nil || item.Index != i {
			t.Fatalf("resumed item %d: %+v, %v", i, item, err)
		}
	}
	resumed.Close()
	srv.Close()
	ts.Close()
	base.CheckHTTP(t) // everything unwound, SDK side included
}

func TestHealthz(t *testing.T) {
	_, c := newService(t)
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	dead := newClient(t, "http://127.0.0.1:1", -1, time.Millisecond)
	if err := dead.Healthz(context.Background()); err == nil {
		t.Fatal("healthz against nothing succeeded")
	}
}

func TestBaseURLTrailingSlash(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL + "/")
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSolveSurfacesWarmStart: client.Plan is the wire document, so
// plan-store warm-start provenance (warm_started, neighbor_distance)
// reaches SDK callers with no extra plumbing.
func TestSolveSurfacesWarmStart(t *testing.T) {
	srv, err := service.NewServer(service.Config{Workers: 2, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()

	cold, err := c.Solve(ctx, engine.NewRequest(fig1(), engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)))
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted || cold.NeighborDistance != 0 {
		t.Fatalf("cold plan claims warm provenance: %+v", cold)
	}

	mutated := platform.MustInstance(6, []float64{5, 4.5}, []float64{4, 1, 1})
	warm, err := c.Solve(ctx, engine.NewRequest(mutated, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9)))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted || warm.NeighborDistance != 1 {
		t.Fatalf("warm plan = warm:%v dist:%d, want a distance-1 warm start", warm.WarmStarted, warm.NeighborDistance)
	}
	if d := warm.Verified - warm.Throughput; d < -1e-9 || d > 1e-9 {
		t.Fatalf("warm plan not verified: T=%v verified=%v", warm.Throughput, warm.Verified)
	}
}
