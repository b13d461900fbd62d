package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos/leakcheck"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/wire"
)

const fig1Request = `{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"solver":"acyclic","tolerance":1e-9}`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func post(t *testing.T, url, body string) (int, []byte) {
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
	return resp.StatusCode, data
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/v1/solve", fig1Request)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	plan, err := wire.DecodePlan(body)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Solver != "acyclic" || plan.TStar != 4.4 || plan.Verified == 0 {
		t.Errorf("unexpected plan: %+v", plan)
	}
	if d := plan.Throughput - 4; d < -1e-6 || d > 1e-6 {
		t.Errorf("Throughput = %v, want ≈4", plan.Throughput)
	}
}

func TestSolveByteStableUnderConcurrency(t *testing.T) {
	_, ts := newTestServer(t)
	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(fig1Request))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				bodies[i], _ = io.ReadAll(resp.Body)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if bodies[i] == nil {
			t.Fatalf("client %d got no 200 response", i)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("responses diverge between clients:\n%s\nvs\n%s", bodies[i], bodies[0])
		}
	}
}

func TestSolveErrorsAreTypedStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"v":2,"instance":{"v":1,"b0":5}}`, http.StatusBadRequest},
		{`{"v":1,"instance":{"v":1,"b0":5},"solver":"nope"}`, http.StatusBadRequest},
		{`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"solver":"acyclic-open"}`, http.StatusUnprocessableEntity},
		{`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5]},"solver":"cyclic-bound","want_trees":true}`, http.StatusUnprocessableEntity},
		// 2^40 schedule blocks: refused before anything is solved.
		{`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"schedule_blocks":1099511627776}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		code, body := post(t, ts.URL+"/v1/solve", c.body)
		if code != c.want {
			t.Errorf("%s → status %d, want %d (%s)", c.body, code, c.want, body)
		}
		var ed struct {
			V     int    `json:"v"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &ed); err != nil || ed.V != wire.Version || ed.Error == "" {
			t.Errorf("error body not a wire error doc: %s", body)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var reqs []string
	for i := 0; i < 6; i++ {
		reqs = append(reqs, fmt.Sprintf(`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5,%d],"guarded":[4,1,1]},"solver":"acyclic"}`, i+1))
	}
	body := `{"v":1,"requests":[` + strings.Join(reqs, ",") + `]}`
	code, data := post(t, ts.URL+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp struct {
		V     int         `json:"v"`
		Plans []wire.Plan `json:"plans"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.V != wire.Version || len(resp.Plans) != 6 {
		t.Fatalf("batch answered %d plans: %s", len(resp.Plans), data)
	}
	for i, p := range resp.Plans {
		if p.Throughput <= 0 {
			t.Errorf("plan %d empty: %+v", i, p)
		}
	}
}

// TestBatchErrorIsTheCause: when one item fails, the batch answers with
// that failure, not with the cancellation it causes in a sibling. Item
// 0 joins another client's in-flight solve of the same request and is
// canceled when item 1 fails on an unknown solver; the answer must be
// item 1's 400, not item 0's 504.
func TestBatchErrorIsTheCause(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	var solves atomic.Int64
	srv := New(Config{Workers: 4, Registry: slowRegistry(release, &solves)})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { free(); ts.Close(); srv.Close() })

	const x = `{"v":1,"instance":{"v":1,"b0":6,"open":[5,5]},"solver":"slow"}`
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(x))
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.CacheStats().Misses == 0 { // the flight for x is open
		if time.Now().After(deadline) {
			t.Fatal("the held solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	nope := `{"v":1,"instance":{"v":1,"b0":6,"open":[5,5]},"solver":"nope"}`
	code, data := post(t, ts.URL+"/v1/batch", `{"v":1,"requests":[`+x+`,`+nope+`]}`)
	var ed wire.ErrorDoc
	if err := json.Unmarshal(data, &ed); err != nil {
		t.Fatalf("batch answer is not an error doc: %s", data)
	}
	if code != http.StatusBadRequest || ed.Code != wire.CodeUnknownSolver {
		t.Fatalf("batch answered %d %q (%s), want 400 %q", code, ed.Code, ed.Error, wire.CodeUnknownSolver)
	}
	free()
	if got := <-held; got != http.StatusOK {
		t.Fatalf("held solve: status %d, want 200", got)
	}
}

func TestSessionLifecycle(t *testing.T) {
	srv, ts := newTestServer(t)
	code, data := post(t, ts.URL+"/v1/session", `{"v":1,"op":"open","solver":"acyclic"}`)
	if code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, data)
	}
	var opened struct {
		Session string `json:"session"`
		Solver  string `json:"solver"`
	}
	if err := json.Unmarshal(data, &opened); err != nil || opened.Session == "" {
		t.Fatalf("open response: %s", data)
	}
	if srv.OpenSessions() != 1 {
		t.Fatalf("OpenSessions = %d, want 1", srv.OpenSessions())
	}

	// Two resolves on an evolving platform: the second should take the
	// incremental-repair path (same session carries the word across).
	resolve := func(instance string) (int, []byte) {
		return post(t, ts.URL+"/v1/session",
			`{"v":1,"op":"resolve","session":"`+opened.Session+`","instance":`+instance+`}`)
	}
	code, data = resolve(`{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]}`)
	if code != http.StatusOK {
		t.Fatalf("resolve 1: status %d: %s", code, data)
	}
	code, data = resolve(`{"v":1,"b0":6,"open":[5,5,3],"guarded":[4,1,1]}`)
	if code != http.StatusOK {
		t.Fatalf("resolve 2: status %d: %s", code, data)
	}
	var r2 struct {
		Plan  *wire.Plan `json:"plan"`
		Stats *struct {
			Events  int `json:"events"`
			Repairs int `json:"repairs"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &r2); err != nil || r2.Plan == nil || r2.Stats == nil {
		t.Fatalf("resolve 2 response: %s", data)
	}
	if r2.Stats.Events != 2 {
		t.Errorf("session events = %d, want 2", r2.Stats.Events)
	}
	if !r2.Plan.Repaired || r2.Stats.Repairs == 0 {
		t.Errorf("second resolve should repair incrementally: %s", data)
	}

	code, data = post(t, ts.URL+"/v1/session", `{"v":1,"op":"close","session":"`+opened.Session+`"}`)
	if code != http.StatusOK {
		t.Fatalf("close: status %d: %s", code, data)
	}
	if srv.OpenSessions() != 0 {
		t.Fatalf("OpenSessions = %d after close, want 0", srv.OpenSessions())
	}
	// Resolve on a closed session is a client error.
	if code, _ = resolve(`{"v":1,"b0":6,"open":[5,5]}`); code != http.StatusBadRequest {
		t.Fatalf("resolve on closed session: status %d, want 400", code)
	}
}

// TestIdleSessionReaped: a session nobody touches (its open reply
// lost to a dropped connection, say) is reclaimed after SessionTTL —
// workspace returned, id invalidated, reap counted. An actively used
// session must survive the same window.
func TestIdleSessionReaped(t *testing.T) {
	srv := New(Config{Workers: 4, SessionTTL: 60 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	base := engine.LeasedWorkspaces()

	_, data := post(t, ts.URL+"/v1/session", `{"v":1,"op":"open"}`)
	var opened struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(data, &opened); err != nil || opened.Session == "" {
		t.Fatalf("open response: %s", data)
	}

	// Keep the session warm across several TTL windows: resolves are
	// touches, so the reaper must leave it alone.
	resolve := func() (int, []byte) {
		return post(t, ts.URL+"/v1/session",
			`{"v":1,"op":"resolve","session":"`+opened.Session+`","instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]}}`)
	}
	for i := 0; i < 4; i++ {
		if code, body := resolve(); code != http.StatusOK {
			t.Fatalf("warm resolve %d: status %d: %s", i, code, body)
		}
		time.Sleep(40 * time.Millisecond)
	}

	// Now abandon it: the reaper must reclaim the workspace.
	deadline := time.Now().Add(5 * time.Second)
	for srv.OpenSessions() != 0 || engine.LeasedWorkspaces() != base {
		if time.Now().After(deadline) {
			t.Fatalf("idle session not reaped: open=%d leased=%d (baseline %d)",
				srv.OpenSessions(), engine.LeasedWorkspaces(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if srv.SessionReaps() == 0 {
		t.Fatal("reap counter did not move")
	}
	if code, _ := resolve(); code != http.StatusBadRequest {
		t.Fatalf("resolve on reaped session: status %d, want 400", code)
	}
}

func TestSessionConcurrentResolves(t *testing.T) {
	_, ts := newTestServer(t)
	_, data := post(t, ts.URL+"/v1/session", `{"v":1,"op":"open"}`)
	var opened struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(data, &opened); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"v":1,"op":"resolve","session":%q,"instance":{"v":1,"b0":6,"open":[5,5,%d],"guarded":[4,1,1]}}`,
				opened.Session, i+1)
			resp, err := http.Post(ts.URL+"/v1/session", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// All resolves landed on one serialized session.
	_, data = post(t, ts.URL+"/v1/session", `{"v":1,"op":"close","session":"`+opened.Session+`"}`)
	var closed struct {
		Stats struct {
			Events int `json:"events"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &closed); err != nil {
		t.Fatal(err)
	}
	if closed.Stats.Events != clients {
		t.Fatalf("session events = %d, want %d", closed.Stats.Events, clients)
	}
}

func TestWorkspacesReturnToPoolAfterLoad(t *testing.T) {
	base := leakcheck.Snapshot()
	srv, ts := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(fig1Request))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// A session held open across the load leases exactly one workspace.
	_, data := post(t, ts.URL+"/v1/session", `{"v":1,"op":"open"}`)
	wg.Wait()
	if got := engine.LeasedWorkspaces(); got != base.Leased+1 {
		t.Fatalf("LeasedWorkspaces = %d with one session open, want %d", got, base.Leased+1)
	}
	var opened struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(data, &opened); err != nil {
		t.Fatal(err)
	}
	post(t, ts.URL+"/v1/session", `{"v":1,"op":"close","session":"`+opened.Session+`"}`)
	if got := engine.LeasedWorkspaces(); got != base.Leased {
		t.Fatalf("LeasedWorkspaces = %d after close, want baseline %d", got, base.Leased)
	}
	// Server.Close releases sessions clients abandoned.
	post(t, ts.URL+"/v1/session", `{"v":1,"op":"open"}`)
	post(t, ts.URL+"/v1/session", `{"v":1,"op":"open"}`)
	srv.Close()
	ts.Close()
	// Everything — workspaces and goroutines — back at the pre-server
	// baseline once the daemon and its keep-alive connections are gone.
	base.CheckHTTP(t)
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	post(t, ts.URL+"/v1/solve", fig1Request)
	post(t, ts.URL+"/v1/solve", `{`)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`bmpcast_requests_total{endpoint="solve"} 2`,
		"bmpcast_errors_total 1",
		"bmpcast_sessions_open 0",
		"bmpcast_workspaces_leased",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve status %d, want 405", resp.StatusCode)
	}
}

// TestReadBody checks the sized, pooled body read: a declared length
// that never arrives allocates no more than the capped buffer, a body of
// no declared length is read whole, and a body past the limit is still
// a 400 with the malformed-document error.
func TestReadBody(t *testing.T) {
	srv, _ := newTestServer(t)
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader("0123456789"))
	r.ContentLength = maxBodyBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, release, err := srv.readBody(httptest.NewRecorder(), r)
	runtime.ReadMemStats(&after)
	if err != nil || string(body) != "0123456789" {
		t.Fatalf("declared 8 MiB, sent 10 bytes: got %q, %v", body, err)
	}
	release()
	if n := after.TotalAlloc - before.TotalAlloc; n >= 128<<10 {
		t.Errorf("declared 8 MiB, sent 10 bytes: readBody allocated %d bytes, want under 128 KiB", n)
	}

	whole := strings.Repeat("0123456789", 30_000)
	r = httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(whole))
	r.ContentLength = -1
	if body, release, err = srv.readBody(httptest.NewRecorder(), r); err != nil || string(body) != whole {
		t.Fatalf("undeclared length: read %d of %d bytes, %v", len(body), len(whole), err)
	}
	release()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(strings.Repeat(" ", maxBodyBytes+1))))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "reading body: http: request body too large") {
		t.Errorf("over-limit body: status %d, %s", rec.Code, rec.Body.String())
	}
}

// TestPooledBodiesAnswerByteForByte: request bodies share pooled
// buffers, so a decoded value that aliased one would change under a
// later request. Goroutines post distinct bodies of different sizes to
// /v1/solve, /v1/batch and /v1/jobs on one server at once, and every
// answer must be the in-process engine.Execute plus wire.EncodePlan
// bytes. Run it under -race -count=10 after touching readBody.
func TestPooledBodiesAnswerByteForByte(t *testing.T) {
	_, ts := newTestServer(t)
	ctx := context.Background()
	fetch := func(method, url string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}
	// round posts one body built from distinct requests and checks the
	// answer against the in-process documents.
	round := func(g, r int) error {
		reqs := make([]engine.Request, 1+r%3*(2+g%3))
		want := make([][]byte, len(reqs))
		for i := range reqs {
			open := make([]float64, 2+(g+i)%7)
			for k := range open {
				open[k] = float64(1 + g*1000 + r*50 + i*7 + k)
			}
			ins, err := platform.NewInstance(6, open, []float64{4, 1, 1})
			if err != nil {
				return err
			}
			reqs[i] = engine.NewRequest(ins, engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
			plan, err := engine.Execute(ctx, reqs[i])
			if err != nil {
				return err
			}
			if want[i], err = wire.EncodePlan(plan); err != nil {
				return err
			}
		}
		endpoint, expect := "/v1/solve", want[0]
		body, err := wire.EncodeRequest(reqs[0])
		if r%3 != 0 {
			endpoint, expect = "/v1/batch", wire.EncodeBatchPlans(want)
			body, err = wire.EncodeBatch(reqs)
		}
		if err != nil {
			return err
		}
		if r%3 == 2 {
			code, data, err := fetch(http.MethodPost, ts.URL+"/v1/jobs", body)
			var st wire.JobStatus
			if err != nil || code != http.StatusAccepted || json.Unmarshal(data, &st) != nil {
				return fmt.Errorf("job submit: %d %s %v", code, data, err)
			}
			endpoint, body, expect = "/v1/jobs/"+st.Job+"/stream", nil, nil
			for i, doc := range want {
				expect = append(expect, wire.EncodeJobLine(i, doc)...)
			}
		}
		method := http.MethodPost
		if body == nil {
			method = http.MethodGet
		}
		code, data, err := fetch(method, ts.URL+endpoint, body)
		if err != nil || code != http.StatusOK || !bytes.Equal(data, expect) {
			return fmt.Errorf("%s: status %d, %v, %d bytes, want the %d in-process bytes", endpoint, code, err, len(data), len(expect))
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				if err := round(g, r); err != nil {
					t.Errorf("goroutine %d, round %d: %v", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
