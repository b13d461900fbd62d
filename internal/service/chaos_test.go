package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/chaos"
	"repro/internal/chaos/leakcheck"
	"repro/internal/engine"
	"repro/internal/wire"
)

// armPlan arms the given rules under a fixed seed and disarms on
// cleanup so no schedule bleeds into the next test.
func armPlan(t *testing.T, rules ...chaos.Rule) {
	t.Helper()
	plan, err := chaos.NewPlan(23, rules...)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(plan)
	t.Cleanup(chaos.Disarm)
}

// TestStreamResumesByteIdenticalAcrossInjectedFaults is the stream
// property test from two angles. First, a raw consumer that tears the
// connection after every few lines (while the server's write path is
// injected with delayed and short writes) must reassemble, via ?from=
// cursors, the exact bytes an undisturbed reader saw. Second, the SDK
// iterator must ride through injected client-side disconnects and
// still deliver every item exactly once, in order.
func TestStreamResumesByteIdenticalAcrossInjectedFaults(t *testing.T) {
	_, ts := newTestServer(t)
	const items = 12
	id := submitJob(t, ts.URL, jobBatchBody(items))
	waitJobDone(t, ts.URL, id)
	golden := readStream(t, ts.URL, id, 0) // pristine bytes, read disarmed
	if len(golden) != items {
		t.Fatalf("golden read returned %d lines, want %d", len(golden), items)
	}

	fired0 := injectedCount(chaos.StreamDrop) + injectedCount(chaos.StreamWrite)
	armPlan(t,
		chaos.Rule{Point: chaos.StreamWrite, Rate: 0.6, Delay: time.Millisecond, Frac: 0.9},
		chaos.Rule{Point: chaos.StreamDrop, Rate: 0.3},
	)

	// Raw resume loop: take a few lines, hang up, come back at the
	// cursor. The short/delayed writes injected server-side must never
	// surface as torn lines.
	rng := rand.New(rand.NewSource(1))
	var pieced [][]byte
	for cursor := 0; cursor < items; {
		take := 1 + rng.Intn(3)
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?from=%d", ts.URL, id, cursor))
		if err != nil {
			t.Fatal(err)
		}
		lines := scanLines(t, resp.Body, take)
		resp.Body.Close() // tear the connection mid-stream
		if len(lines) == 0 {
			t.Fatalf("no lines at cursor %d", cursor)
		}
		pieced = append(pieced, lines...)
		cursor += len(lines)
	}
	if len(pieced) != items {
		t.Fatalf("pieced %d lines, want %d", len(pieced), items)
	}
	for i := range golden {
		if !bytes.Equal(pieced[i], golden[i]) {
			t.Fatalf("line %d differs after resume:\n got %s\nwant %s", i, pieced[i], golden[i])
		}
	}

	// SDK pass: injected StreamDrop closes the body between items; the
	// iterator must reconnect from its cursor and deliver 0..items-1.
	c, err := client.NewFromConfig(client.Config{
		Endpoints: []string{ts.URL},
		Retry:     client.Retry{Retries: 8, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := c.Job(id).Stream(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i := 0; i < items; i++ {
		item, err := stream.Next()
		if err != nil {
			t.Fatalf("item %d under injection: %v", i, err)
		}
		if item.Index != i || item.Plan == nil || item.Err != nil {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Fatalf("tail err = %v, want io.EOF", err)
	}
	if tot := injectedCount(chaos.StreamDrop) + injectedCount(chaos.StreamWrite); tot == fired0 {
		t.Fatal("neither stream fault fired — the test exercised nothing")
	}
}

// scanLines reads up to max NDJSON lines from r.
func scanLines(t *testing.T, r io.Reader, max int) [][]byte {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines [][]byte
	for len(lines) < max && sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	return lines
}

// TestCanceledSolvesReturnWorkspacesUnderStarvation: with the worker
// gate and the solve path both stalled by injection, clients that give
// up must always get their workspace (and gate permit) back. Batch and
// job items take their permits through the same starved gate and solve
// through the same delayed path as /v1/solve.
func TestCanceledSolvesReturnWorkspacesUnderStarvation(t *testing.T) {
	srv, ts := newTestServer(t)
	fired0 := injectedCount(chaos.GateStarve) + injectedCount(chaos.SolveDelay)
	armPlan(t,
		chaos.Rule{Point: chaos.GateStarve, Rate: 1, Delay: 200 * time.Millisecond},
		chaos.Rule{Point: chaos.SolveDelay, Rate: 1, Delay: 200 * time.Millisecond},
	)
	base := engine.LeasedWorkspaces()
	// giveUp posts body and hangs up after timeout, long before the
	// injected 200 ms stall ends.
	giveUp := func(path, body string, timeout time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	for i := 0; i < 20; i++ {
		giveUp("/v1/solve", fig1Request, 5*time.Millisecond)
	}
	starved, delayed := injectedCount(chaos.GateStarve), injectedCount(chaos.SolveDelay)
	for i := 0; i < 20; i++ {
		giveUp("/v1/batch", jobBatchBody(4), 50*time.Millisecond)
	}
	// This client outwaits the starved gate (under 200 ms) but not the
	// solve delay after it: its items are canceled on the solve path.
	giveUp("/v1/batch", jobBatchBody(4), 300*time.Millisecond)
	if injectedCount(chaos.GateStarve) == starved {
		t.Fatal("service.gate.starve never reached a batch item")
	}
	if injectedCount(chaos.SolveDelay) == delayed {
		t.Fatal("service.solve.delay never reached a batch item")
	}
	starved, delayed = injectedCount(chaos.GateStarve), injectedCount(chaos.SolveDelay)
	waitJobDone(t, ts.URL, submitJob(t, ts.URL, jobBatchBody(4)))
	if injectedCount(chaos.GateStarve) == starved {
		t.Fatal("service.gate.starve never reached a job item")
	}
	if injectedCount(chaos.SolveDelay) == delayed {
		t.Fatal("service.solve.delay never reached a job item")
	}
	chaos.Disarm()
	deadline := time.Now().Add(5 * time.Second)
	for engine.LeasedWorkspaces() != base || len(srv.gate) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workspaces still leased and %d gate permits held after canceled solves",
				engine.LeasedWorkspaces()-base, len(srv.gate))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The gate must be whole again: a normal solve still goes through.
	if code, body := post(t, ts.URL+"/v1/solve", fig1Request); code != http.StatusOK {
		t.Fatalf("post-starvation solve: status %d: %s", code, body)
	}
	if injectedCount(chaos.GateStarve)+injectedCount(chaos.SolveDelay) == fired0 {
		t.Fatal("no stall was injected — the test exercised nothing")
	}
}

// TestHedgedForwardUnderSlowPeerLeaksNothing: a non-owner forwarding
// to an injected-slow owner hedges to its local engine; the losing
// peer call must unwind without leaving a goroutine behind.
func TestHedgedForwardUnderSlowPeerLeaksNothing(t *testing.T) {
	_, urls := startCluster(t, 3, clusterOpts{hedge: 5 * time.Millisecond})
	base := leakcheck.Snapshot() // after boot: accept loops are steady state
	fired0 := injectedCount(chaos.PeerSlow)
	armPlan(t, chaos.Rule{Point: chaos.PeerSlow, Rate: 1, Delay: 300 * time.Millisecond})

	canonical := canonicalFig1(t)
	nonOwner := (ownerIndex(t, urls, canonical) + 1) % len(urls)
	for i := 0; i < 8; i++ {
		code, body := post(t, urls[nonOwner]+"/v1/solve", string(canonical))
		if code != http.StatusOK {
			t.Fatalf("hedged solve %d: status %d: %s", i, code, body)
		}
		if _, err := wire.DecodePlan(body); err != nil {
			t.Fatalf("hedged solve %d: %v", i, err)
		}
	}
	if injectedCount(chaos.PeerSlow) == fired0 {
		t.Fatal("cluster.peer.slow never fired — forward path not exercised")
	}
	chaos.Disarm()
	base.CheckHTTP(t)
}

// TestSlowStreamReaderDoesNotStarveOtherJobs is the backpressure
// property: one consumer draining a finished job at a byte every
// 10 ms must not pin workers or block other jobs — job lines live in
// the job's own bounded buffer, and the stalled writer blocks on the
// socket, not on a worker.
func TestSlowStreamReaderDoesNotStarveOtherJobs(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	base := engine.LeasedWorkspaces()

	idA := submitJob(t, ts.URL, jobBatchBody(6))
	waitJobDone(t, ts.URL, idA)

	// Attach the slow reader and keep it attached for the whole test:
	// 1 byte per 10 ms, then simply stop reading (a fully stalled
	// server-side writer) without closing.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?from=0", ts.URL, idA))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for i := 0; i < 24; i++ {
		var b [1]byte
		if _, err := resp.Body.Read(b[:]); err != nil {
			t.Fatalf("slow read %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// With the reader stalled, both workers must still serve job B to
	// completion and every workspace must come home.
	idB := submitJob(t, ts.URL, jobBatchBody(4))
	waitJobDone(t, ts.URL, idB)
	if lines := readStream(t, ts.URL, idB, 0); len(lines) != 4 {
		t.Fatalf("job B stream returned %d lines, want 4", len(lines))
	}
	deadline := time.Now().Add(5 * time.Second)
	for engine.LeasedWorkspaces() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%d workspaces pinned while a slow reader is attached",
				engine.LeasedWorkspaces()-base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDebugLeaksAndChaosMetrics: the leak probe and the chaos
// counters the soak harness polls are wired end to end.
func TestDebugLeaksAndChaosMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	armPlan(t, chaos.Rule{Point: chaos.SolveDelay, Rate: 1, Delay: time.Millisecond})
	if code, body := post(t, ts.URL+"/v1/solve", fig1Request); code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/debug/leaks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc LeaksDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.V != 1 || doc.Goroutines <= 0 {
		t.Fatalf("leaks doc: %+v", doc)
	}
	if doc.Inflight != 0 || doc.SessionsOpen != 0 || doc.JobsRunning != 0 {
		t.Fatalf("idle daemon reports activity: %+v", doc)
	}
	if !doc.ChaosArmed || doc.ChaosInjected[string(chaos.SolveDelay)] == 0 {
		t.Fatalf("chaos state not surfaced: %+v", doc)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bmpcast_goroutines ",
		"bmpcast_chaos_armed 1",
		`bmpcast_chaos_injected_total{point="service.solve.delay"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// injectedCount reads the monotonic fired counter for one point.
func injectedCount(pt chaos.Point) int64 {
	for _, pc := range chaos.InjectedTotals() {
		if pc.Point == pt {
			return pc.Count
		}
	}
	return 0
}
