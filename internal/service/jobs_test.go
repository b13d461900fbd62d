package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos/leakcheck"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/wire"
)

// jobBatchBody builds a {"v":1,"requests":[...]} document of n fig1
// variants (open node i+1 appended, so every item is distinct).
func jobBatchBody(n int) string {
	reqs := make([]string, n)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5,%d],"guarded":[4,1,1]},"solver":"acyclic"}`, i+1)
	}
	return `{"v":1,"requests":[` + strings.Join(reqs, ",") + `]}`
}

// submitJob posts a job and returns its id.
func submitJob(t *testing.T, url, body string) string {
	t.Helper()
	code, data := post(t, url+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202: %s", code, data)
	}
	var doc struct {
		Job    string `json:"job"`
		Status string `json:"status"`
		Items  int    `json:"items"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Job == "" {
		t.Fatalf("submit response: %s", data)
	}
	return doc.Job
}

// jobStatus fetches a job's status document.
func jobStatus(t *testing.T, url, id string) (status string, completed, errs int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d: %s", resp.StatusCode, data)
	}
	var doc struct {
		Status    string `json:"status"`
		Completed int    `json:"completed"`
		Errors    int    `json:"errors"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Status, doc.Completed, doc.Errors
}

// waitJobDone polls until the job leaves "running".
func waitJobDone(t *testing.T, url, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if status, _, _ := jobStatus(t, url, id); status != jobRunning {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 10s", id)
}

// readStream fetches /v1/jobs/{id}/stream?from=K and returns the
// NDJSON lines.
func readStream(t *testing.T, url, id string, from int) [][]byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?from=%d", url, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestJobLifecycleAndStreamOrder(t *testing.T) {
	_, ts := newTestServer(t)
	const items = 6
	id := submitJob(t, ts.URL, jobBatchBody(items))

	lines := readStream(t, ts.URL, id, 0) // follows the live job to completion
	if len(lines) != items {
		t.Fatalf("stream returned %d lines, want %d", len(lines), items)
	}
	for i, line := range lines {
		var doc struct {
			V     int        `json:"v"`
			Index int        `json:"index"`
			Plan  *wire.Plan `json:"plan"`
			Error string     `json:"error"`
		}
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if doc.V != wire.Version || doc.Index != i || doc.Error != "" {
			t.Fatalf("line %d out of order or failed: %s", i, line)
		}
		if doc.Plan == nil || doc.Plan.Throughput <= 0 {
			t.Fatalf("line %d has no plan: %s", i, line)
		}
	}

	status, completed, errs := jobStatus(t, ts.URL, id)
	if status != jobDone || completed != items || errs != 0 {
		t.Fatalf("status = %s/%d/%d, want done/%d/0", status, completed, errs, items)
	}

	// Resume mid-batch: from=3 replays exactly the tail, byte-identical.
	tail := readStream(t, ts.URL, id, 3)
	if len(tail) != items-3 {
		t.Fatalf("resumed stream returned %d lines, want %d", len(tail), items-3)
	}
	for i, line := range tail {
		if !bytes.Equal(line, lines[3+i]) {
			t.Fatalf("resumed line %d differs from original:\n%s\nvs\n%s", 3+i, line, lines[3+i])
		}
	}
}

// slowRegistry registers a "slow" solver whose solves park until
// released, so tests control exactly when each job item completes.
func slowRegistry(release chan struct{}, solves *atomic.Int64) *engine.Registry {
	r := engine.NewRegistry()
	r.MustRegister(engine.NewSolver("slow", engine.CapHandlesGuarded|engine.CapAnytime,
		func(ins *platform.Instance, _ *core.Workspace) (engine.Result, error) {
			<-release
			solves.Add(1)
			return engine.Result{Throughput: ins.B0}, nil
		}))
	return r
}

// slowBatchBody: n distinct requests for the "slow" solver.
func slowBatchBody(n int) string {
	reqs := make([]string, n)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"v":1,"instance":{"v":1,"b0":%d,"open":[5,5]},"solver":"slow"}`, i+6)
	}
	return `{"v":1,"requests":[` + strings.Join(reqs, ",") + `]}`
}

// TestJobStreamFollowsLiveJob attaches a stream before any item has
// completed and watches lines arrive as solves finish.
func TestJobStreamFollowsLiveJob(t *testing.T) {
	release := make(chan struct{})
	var solves atomic.Int64
	srv := New(Config{Workers: 4, Registry: slowRegistry(release, &solves)})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { close(release); ts.Close(); srv.Close() })

	const items = 3
	id := submitJob(t, ts.URL, slowBatchBody(items))
	if status, completed, _ := jobStatus(t, ts.URL, id); status != jobRunning || completed != 0 {
		t.Fatalf("fresh job: %s/%d, want running/0", status, completed)
	}

	type streamResult struct {
		lines [][]byte
		err   error
	}
	done := make(chan streamResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
		if err != nil {
			done <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		var lines [][]byte
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
		done <- streamResult{lines: lines, err: sc.Err()}
	}()

	// Nothing can arrive while every solve is parked.
	select {
	case r := <-done:
		t.Fatalf("stream ended before any solve finished: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	for i := 0; i < items; i++ {
		release <- struct{}{}
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.lines) != items {
		t.Fatalf("live stream returned %d lines, want %d", len(r.lines), items)
	}
	waitJobDone(t, ts.URL, id)
}

// TestJobStreamDisconnectLeaksNothing: a client abandoning the stream
// mid-batch leaves no goroutines holding workspaces — the job runs to
// completion and LeasedWorkspaces returns to baseline.
func TestJobStreamDisconnectLeaksNothing(t *testing.T) {
	base := leakcheck.Snapshot()
	srv, ts := newTestServer(t)
	const items = 8
	id := submitJob(t, ts.URL, jobBatchBody(items))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_, _ = resp.Body.Read(buf) // at least one byte flowed
	cancel()                   // client walks away mid-stream
	resp.Body.Close()

	waitJobDone(t, ts.URL, id)
	if got := engine.LeasedWorkspaces(); got != base.Leased {
		t.Fatalf("LeasedWorkspaces = %d after disconnect, want baseline %d", got, base.Leased)
	}
	// The full result set is still there for a resumed read.
	if lines := readStream(t, ts.URL, id, 0); len(lines) != items {
		t.Fatalf("post-disconnect stream returned %d lines, want %d", len(lines), items)
	}
	srv.Close()
	ts.Close()
	base.CheckHTTP(t) // the abandoned stream handler unwound too
}

// TestJobItemErrorsInline: a failing item records an error line at its
// index; the other items still solve (no fail-fast, unlike /v1/batch).
func TestJobItemErrorsInline(t *testing.T) {
	_, ts := newTestServer(t)
	// Item 1 is infeasible: acyclic-open cannot handle guarded nodes.
	body := `{"v":1,"requests":[` +
		`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"solver":"acyclic"},` +
		`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"solver":"acyclic-open"},` +
		`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"solver":"greedy"}]}`
	id := submitJob(t, ts.URL, body)
	waitJobDone(t, ts.URL, id)

	status, completed, errs := jobStatus(t, ts.URL, id)
	if status != jobDone || completed != 3 || errs != 1 {
		t.Fatalf("status = %s/%d/%d, want done/3/1", status, completed, errs)
	}
	lines := readStream(t, ts.URL, id, 0)
	if len(lines) != 3 {
		t.Fatalf("stream returned %d lines, want 3", len(lines))
	}
	var failed struct {
		Index int    `json:"index"`
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[1], &failed); err != nil {
		t.Fatal(err)
	}
	if failed.Index != 1 || failed.Code != wire.CodeInfeasible || failed.Error == "" {
		t.Fatalf("item 1 error line: %s", lines[1])
	}
	for _, i := range []int{0, 2} {
		var ok struct {
			Plan *wire.Plan `json:"plan"`
		}
		if err := json.Unmarshal(lines[i], &ok); err != nil || ok.Plan == nil {
			t.Fatalf("item %d should have solved: %s", i, lines[i])
		}
	}
}

func TestJobBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"v":2,"requests":[]}`, http.StatusBadRequest},
		{`{"v":1,"requests":[]}`, http.StatusBadRequest},
	} {
		if code, data := post(t, ts.URL+"/v1/jobs", c.body); code != c.want {
			t.Errorf("%s → status %d, want %d (%s)", c.body, code, c.want, data)
		}
	}
	// Unknown job id and bad cursors are client errors.
	resp, err := http.Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown job status = %d, want 400", resp.StatusCode)
	}
	id := submitJob(t, ts.URL, jobBatchBody(2))
	waitJobDone(t, ts.URL, id)
	for _, cursor := range []string{"-1", "zebra", "3"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream?from=" + cursor)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cursor %q status = %d, want 400", cursor, resp.StatusCode)
		}
	}
	// from == items is a valid empty replay.
	if lines := readStream(t, ts.URL, id, 2); len(lines) != 0 {
		t.Errorf("from=items returned %d lines, want 0", len(lines))
	}
}

func TestFinishedJobEviction(t *testing.T) {
	srv := New(Config{Workers: 2, MaxJobs: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	var ids []string
	for i := 0; i < 3; i++ {
		id := submitJob(t, ts.URL, jobBatchBody(1))
		waitJobDone(t, ts.URL, id)
		ids = append(ids, id)
	}
	// The oldest finished job fell off; the two newest remain.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("evicted job still resolvable: status %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if status, _, _ := jobStatus(t, ts.URL, id); status != jobDone {
			t.Errorf("job %s: status %s, want done", id, status)
		}
	}
}

// ---------------------------------------------------------------------------
// Cache behavior through the service

// TestCacheHitOnResubmit is the acceptance check: resubmitting an
// identical request returns byte-identical bytes without re-solving —
// the hit counter increments and no new solver work happens.
func TestCacheHitOnResubmit(t *testing.T) {
	release := make(chan struct{})
	close(release) // never block; we only count solves
	var solves atomic.Int64
	srv := New(Config{Workers: 2, Registry: slowRegistry(release, &solves)})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	const body = `{"v":1,"instance":{"v":1,"b0":6,"open":[5,5]},"solver":"slow"}`
	var bodies [][]byte
	var labels []string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", i, resp.StatusCode, data)
		}
		bodies = append(bodies, data)
		labels = append(labels, resp.Header.Get("X-Bmpcast-Cache"))
	}
	if solves.Load() != 1 {
		t.Fatalf("solver ran %d times for 3 identical requests, want 1", solves.Load())
	}
	for i := 1; i < 3; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("cached response %d not byte-identical:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if labels[0] != "miss" || labels[1] != "hit" || labels[2] != "hit" {
		t.Fatalf("X-Bmpcast-Cache labels = %v, want [miss hit hit]", labels)
	}
	metrics := getMetrics(t, ts.URL)
	for _, want := range []string{"bmpcast_cache_hits_total 2", "bmpcast_cache_misses_total 1", "bmpcast_cache_entries 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

// TestCacheSharedAcrossEndpoints: a plan solved via /v1/solve is a hit
// for the identical request inside a batch and a job.
func TestCacheSharedAcrossEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	code, _ := post(t, ts.URL+"/v1/solve", fig1Request)
	if code != http.StatusOK {
		t.Fatal("seed solve failed")
	}
	code, _ = post(t, ts.URL+"/v1/batch", `{"v":1,"requests":[`+fig1Request+`]}`)
	if code != http.StatusOK {
		t.Fatal("batch failed")
	}
	id := submitJob(t, ts.URL, `{"v":1,"requests":[`+fig1Request+`]}`)
	waitJobDone(t, ts.URL, id)
	metrics := getMetrics(t, ts.URL)
	if !strings.Contains(metrics, "bmpcast_cache_hits_total 2") {
		t.Errorf("batch+job over a seeded cache should score 2 hits:\n%s", metrics)
	}
}

func TestCacheDisabled(t *testing.T) {
	srv := New(Config{Workers: 2, CacheSize: -1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(fig1Request))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("X-Bmpcast-Cache"); h != "" {
		t.Errorf("X-Bmpcast-Cache = %q with caching disabled, want unset", h)
	}
	if m := getMetrics(t, ts.URL); strings.Contains(m, "bmpcast_cache_hits_total") {
		t.Errorf("cache metrics exported with caching disabled:\n%s", m)
	}
}

// TestJobShutdownLeaksNoGatePermits: closing the server mid-job must
// not strand worker-gate permits — after Close drains the job workers,
// the gate is empty (a stranded permit would starve every later
// acquire on a reused server).
func TestJobShutdownLeaksNoGatePermits(t *testing.T) {
	release := make(chan struct{})
	close(release) // solves never block; permits cycle rapidly
	var solves atomic.Int64
	srv := New(Config{Workers: 1, Registry: slowRegistry(release, &solves)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A long job whose submission loop races the shutdown: after
	// jobsCancel, freed permits must not be re-acquired and stranded.
	reqs := make([]string, 512)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"v":1,"instance":{"v":1,"b0":%d,"open":[5,5]},"solver":"slow"}`, i+6)
	}
	submitJob(t, ts.URL, `{"v":1,"requests":[`+strings.Join(reqs, ",")+`]}`)
	srv.Close() // cancels the job context and waits for the workers
	if n := len(srv.gate); n != 0 {
		t.Fatalf("%d worker-gate permits stranded after Close", n)
	}
}

// TestJobCloseCancelsUnclaimedItems pins the shutdown rule: Close
// mid-job lets the item a worker already claimed finish, gives every
// item no worker claimed a canceled line, and ends the job canceled
// with no gate permit left behind.
func TestJobCloseCancelsUnclaimedItems(t *testing.T) {
	release := make(chan struct{})
	var solves atomic.Int64
	srv := New(Config{Workers: 1, Registry: slowRegistry(release, &solves)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const items = 3
	id := submitJob(t, ts.URL, slowBatchBody(items))
	deadline := time.Now().Add(5 * time.Second)
	for srv.CacheStats().Misses == 0 { // item 0 is parked in the solver
		if time.Now().After(deadline) {
			t.Fatal("item 0 never started")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	for srv.jobsCtx.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Close never canceled the job context")
		}
		time.Sleep(time.Millisecond)
	}
	release <- struct{}{} // item 0 returns; items 1 and 2 were never claimed
	<-closed

	if n := len(srv.gate); n != 0 {
		t.Fatalf("%d worker-gate permits stranded after Close", n)
	}
	status, completed, errs := jobStatus(t, ts.URL, id)
	if status != jobCanceled || completed != items {
		t.Fatalf("status = %s/%d/%d, want %s/%d", status, completed, errs, jobCanceled, items)
	}
	lines := readStream(t, ts.URL, id, 0)
	if len(lines) != items {
		t.Fatalf("stream returned %d lines, want %d", len(lines), items)
	}
	for _, line := range lines[1:] {
		var doc struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(line, &doc); err != nil || doc.Code != wire.CodeCanceled {
			t.Fatalf("unclaimed item line: %s, want code %q", line, wire.CodeCanceled)
		}
	}
}

// TestJobSubmitAfterCloseRejected: a closing server refuses new jobs.
func TestJobSubmitAfterCloseRejected(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close() })
	srv.Close()
	code, data := post(t, ts.URL+"/v1/jobs", jobBatchBody(1))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("submit after close: status %d (%s), want 504", code, data)
	}
}
