// Package client is the typed Go SDK for the broadcast-planning
// service (`bmpcast serve`). It speaks only versioned wire documents
// (internal/wire) over HTTP and maps the service's error documents
// back onto the engine's typed sentinels, so remote failures branch
// exactly like local ones:
//
//	c := client.New("http://planner:8080")
//	plan, err := c.Solve(ctx, engine.NewRequest(ins, engine.WithSolver("acyclic")))
//	if errors.Is(err, engine.ErrInfeasible) { ... } // works across the network
//
// A client can also front a whole replica cluster. Configured with
// several endpoints it routes every request to the replica that owns
// the request's content-addressed key on the cluster's consistent-hash
// ring — the same ring the replicas shard their plan caches by — so a
// request lands on the node whose cache memoizes its plan:
//
//	c, err := client.NewFromConfig(client.Config{
//	    Endpoints: []string{"http://a:8080", "http://b:8080", "http://c:8080"},
//	    Hedge:     client.Hedge{After: 150 * time.Millisecond},
//	})
//
// Three calling styles:
//
//   - Solve / Batch: one synchronous round trip (POST /v1/solve,
//     /v1/batch);
//   - Submit + Job.Stream: asynchronous jobs — submit a batch, get a
//     job id immediately, then consume per-item Plans as NDJSON in
//     item order as they complete (GET /v1/jobs/{id}/stream);
//   - Job.Status: progress polling.
//
// Idempotent calls (every solve is a pure function of its request, so
// all of them) are retried on transport errors and 5xx responses —
// rotating through the replicas in ring order before backing off, and
// optionally hedging onto the next replica when the owner stays silent
// past Hedge.After. 4xx and 504 responses are typed failures, never
// retried. Jobs are stateful per replica: Submit pins the job handle
// to the replica that accepted it, and Status/Stream stick to that
// endpoint so a resumed stream replays the same in-memory lines. A
// Stream that loses its connection mid-batch resumes from its
// item-index cursor — the service replays completed items from memory,
// nothing is re-solved.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/wire"
)

// Request and Plan are the SDK's request/answer pair — aliases of the
// engine request the facade exports and the wire plan the service
// returns.
type (
	Request = engine.Request
	Plan    = wire.Plan
)

// Retry tunes the retry loop for idempotent calls. The zero value
// means the defaults (2 extra attempts, 100ms initial backoff); set
// Retries negative to disable retrying altogether.
type Retry struct {
	// Retries is the number of extra attempts after the first. 0 means
	// the default (2); negative disables retrying.
	Retries int
	// Backoff is the pause before the first retry, doubled per retry
	// cycle. 0 means the default (100ms).
	Backoff time.Duration
}

// Hedge tunes hedged requests across replicas: when the replica owning
// a request's key stays silent for After, the client races a second
// copy against the next replica in ring order and keeps whichever
// answers first (solves are pure, so the duplicate is harmless — and
// the loser's singleflighted solve is shared, not repeated). Zero
// disables hedging; hedging never applies to single-endpoint clients
// or non-idempotent calls (Submit).
type Hedge struct {
	After time.Duration
}

// Config describes a client. Endpoints is the replica set (one entry
// for a classic single-server deployment); the other fields default
// sensibly from their zero values.
type Config struct {
	// Endpoints lists the service base URLs (e.g.
	// "http://127.0.0.1:8080"; trailing slashes are tolerated). With
	// more than one, requests route by content-addressed key on the
	// cluster ring.
	Endpoints []string
	// Retry tunes retries for idempotent calls.
	Retry Retry
	// Hedge tunes cross-replica request hedging (disabled by default).
	Hedge Hedge
	// HTTPClient substitutes the underlying *http.Client (timeouts,
	// transports, instrumentation). Defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// Client talks to a bmpcast service — one replica or a cluster of
// them. Create with New or NewFromConfig; a Client is safe for
// concurrent use.
type Client struct {
	httpc   *http.Client
	retries int           // extra attempts after the first
	backoff time.Duration // first retry delay, doubled per retry cycle
	hedge   time.Duration // 0 = hedging disabled

	mu        sync.RWMutex // guards endpoints+ring (RefreshMembers swaps them)
	endpoints []string     // normalized, configured order
	ring      *cluster.Ring
}

// New builds a client for the single service at base (e.g.
// "http://127.0.0.1:8080"; a trailing slash is tolerated) with every
// other setting at its default: it is
// NewFromConfig(Config{Endpoints: []string{base}}). Retries, hedging,
// an HTTP client or more endpoints are Config fields.
func New(base string) *Client {
	c, err := NewFromConfig(Config{Endpoints: []string{base}})
	if err != nil {
		// Unreachable: the one constructor error is "no endpoints" and
		// base is always present (an unresolvable base fails per-call,
		// as it always has).
		panic(err)
	}
	return c
}

// NewFromConfig builds a client from an explicit Config. It errors
// when no endpoint is configured; every other field defaults from its
// zero value.
func NewFromConfig(cfg Config) (*Client, error) {
	eps := make([]string, 0, len(cfg.Endpoints))
	seen := make(map[string]bool, len(cfg.Endpoints))
	for _, ep := range cfg.Endpoints {
		ep = cluster.Normalize(ep)
		if ep != "" && !seen[ep] {
			seen[ep] = true
			eps = append(eps, ep)
		}
	}
	if len(eps) == 0 {
		return nil, errors.New("client: config names no endpoints")
	}
	r := cfg.Retry
	if r.Retries == 0 {
		r.Retries = 2
	} else if r.Retries < 0 {
		r.Retries = 0
	}
	if r.Backoff <= 0 {
		r.Backoff = 100 * time.Millisecond
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{
		httpc:     httpc,
		retries:   r.Retries,
		backoff:   r.Backoff,
		hedge:     cfg.Hedge.After,
		endpoints: eps,
		ring:      cluster.NewRing(eps),
	}, nil
}

// Endpoints snapshots the client's current endpoint set (configured
// order; updated by RefreshMembers).
func (c *Client) Endpoints() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.endpoints...)
}

// ---------------------------------------------------------------------------
// transport

// view snapshots the routing state.
func (c *Client) view() ([]string, *cluster.Ring) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.endpoints, c.ring
}

// route orders the endpoints for one call. Body-bearing calls hash the
// canonical body onto the ring — owner first, then its ring successors
// as failover targets — so client-side routing and server-side cache
// ownership agree by construction (both hash the same canonical
// bytes). Bodiless calls (health, metrics) use the configured order.
func (c *Client) route(body []byte) []string {
	eps, ring := c.view()
	if body == nil || len(eps) == 1 {
		return eps
	}
	return ring.Successors(cluster.Key(body), len(eps))
}

// do issues one call with routing and retries. Every service call is
// idempotent (solves are pure functions of their request; job
// submission is the one exception the caller opts out of via
// retriable=false), so transport errors and 5xx responses are retried:
// the attempts rotate through the routed endpoints, with a
// context-aware exponential backoff each time a full rotation fails.
// The response body is fully read and returned.
func (c *Client) do(ctx context.Context, method, path string, body []byte, retriable bool) ([]byte, error) {
	return c.doOrder(ctx, c.route(body), method, path, body, retriable)
}

// doOrder is do against an explicit endpoint order (job-pinned calls
// pass exactly one endpoint).
func (c *Client) doOrder(ctx context.Context, order []string, method, path string, body []byte, retriable bool) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var data []byte
		var definitive, transient error
		if attempt == 0 && retriable && c.hedge > 0 && len(order) > 1 {
			data, definitive, transient = c.hedged(ctx, order, method, path, body)
		} else {
			data, definitive, transient = c.attempt(ctx, order[attempt%len(order)], method, path, body)
		}
		switch {
		case definitive == nil && transient == nil:
			return data, nil
		case definitive != nil:
			// Typed failure: the request itself is wrong (or canceled
			// server-side). Retrying cannot help.
			return nil, definitive
		}
		lastErr = transient
		if !retriable || attempt >= c.retries {
			return nil, lastErr
		}
		if (attempt+1)%len(order) == 0 {
			// A full rotation failed; pause before going around again.
			if err := chaos.Sleep(ctx, c.backoff<<(attempt/len(order))); err != nil {
				return nil, fmt.Errorf("client: %w (last attempt: %w)", engine.Canceled(err), lastErr)
			}
		}
	}
}

// attempt is one request against one endpoint, its outcome split into
// a definitive (typed, never retried) and a transient (retriable)
// error.
func (c *Client) attempt(ctx context.Context, ep, method, path string, body []byte) (data []byte, definitive, transient error) {
	data, status, err := c.once(ctx, ep, method, path, body)
	switch {
	case err == nil && status/100 == 2:
		return data, nil, nil
	case err == nil && (status < 500 || status == http.StatusGatewayTimeout):
		return nil, errorFrom(path, status, data), nil
	case err == nil:
		return nil, nil, errorFrom(path, status, data)
	default:
		return nil, nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
}

// hedged races the key's owner against the next replica in ring
// order: the fallback starts after c.hedge of owner silence, or
// immediately when the owner fails. Typed failures count as answers
// (both replicas would refuse the same request identically), only
// transport/5xx outcomes trigger the hedge.
func (c *Client) hedged(ctx context.Context, order []string, method, path string, body []byte) (data []byte, definitive, transient error) {
	type answer struct {
		data       []byte
		definitive error
	}
	ask := func(ep string) func(context.Context) (answer, error) {
		return func(ctx context.Context) (answer, error) {
			data, definitive, transient := c.attempt(ctx, ep, method, path, body)
			if transient != nil {
				return answer{}, transient
			}
			return answer{data: data, definitive: definitive}, nil
		}
	}
	out, _, err := cluster.Hedged(ctx, c.hedge, ask(order[0]), ask(order[1]))
	if err != nil {
		return nil, nil, err
	}
	return out.data, out.definitive, nil
}

// once is a single request/response cycle against one endpoint.
func (c *Client) once(ctx context.Context, ep, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ep+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}

// errorFrom turns a non-2xx response into a typed error: the service's
// wire.ErrorDoc reconstructs the engine sentinel its code names, so
// errors.Is(err, engine.ErrInfeasible) works across the network.
func errorFrom(path string, status int, data []byte) error {
	var doc wire.ErrorDoc
	if err := json.Unmarshal(data, &doc); err == nil && doc.Error != "" {
		return doc.Err()
	}
	return fmt.Errorf("client: %s: HTTP %d: %s", path, status, bytes.TrimSpace(data))
}

// ---------------------------------------------------------------------------
// synchronous calls

// SolveRaw posts one request and returns the service's canonical plan
// document bytes verbatim — byte-identical across identical requests,
// replicas, and a local wire encoding of the same plan, which the
// CLI's -remote mode relies on.
func (c *Client) SolveRaw(ctx context.Context, req Request) ([]byte, error) {
	body, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	return c.do(ctx, http.MethodPost, "/v1/solve", body, true)
}

// Solve posts one request and decodes the answered plan.
func (c *Client) Solve(ctx context.Context, req Request) (Plan, error) {
	raw, err := c.SolveRaw(ctx, req)
	if err != nil {
		return Plan{}, err
	}
	return wire.DecodePlan(raw)
}

// Batch posts a synchronous batch; plans[i] answers reqs[i]. The call
// is all-or-nothing (the service fails fast on the first error); for
// per-item results use Submit and Stream.
func (c *Client) Batch(ctx context.Context, reqs []Request) ([]Plan, error) {
	body, err := wire.EncodeBatch(reqs)
	if err != nil {
		return nil, fmt.Errorf("client: encoding batch: %w", err)
	}
	data, err := c.do(ctx, http.MethodPost, "/v1/batch", body, true)
	if err != nil {
		return nil, err
	}
	var resp wire.BatchPlans
	if err := wire.Unmarshal(data, &resp, "batch response"); err != nil {
		return nil, err
	}
	if len(resp.Plans) != len(reqs) {
		return nil, fmt.Errorf("%w: batch answered %d plans for %d requests",
			wire.ErrMalformed, len(resp.Plans), len(reqs))
	}
	return resp.Plans, nil
}

// Healthz probes the service's liveness endpoint: nil when an endpoint
// answered within the retry budget (attempts rotate through all
// configured endpoints).
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil, true)
	return err
}

// ---------------------------------------------------------------------------
// asynchronous jobs

// Job is a handle on one asynchronous batch submitted to the service.
// Jobs are stateful per replica — the handle is pinned to the endpoint
// that accepted the submission, and every Status/Stream call sticks to
// it (ring routing would scatter them across replicas that have never
// heard of the id).
type Job struct {
	c  *Client
	ep string // owning endpoint; resolved by probing when reattached
	// ID is the service-issued job id.
	ID string
	// Items is the number of requests in the job (0 when the handle was
	// reattached by id; Status and Stream fill it in).
	Items int
}

// JobStatus is a job's progress snapshot; Done reports whether the job
// has reached a terminal state.
type JobStatus = wire.JobStatus

// Submit posts a batch to /v1/jobs and returns the job handle
// immediately; the items solve in the background. Submission is the
// one non-idempotent call (a retry could enqueue the work twice), so
// it is neither retried nor hedged nor failed over — transport errors
// surface to the caller. The returned handle is pinned to the replica
// that accepted the job.
func (c *Client) Submit(ctx context.Context, reqs []Request) (*Job, error) {
	body, err := wire.EncodeBatch(reqs)
	if err != nil {
		return nil, fmt.Errorf("client: encoding job: %w", err)
	}
	ep := c.route(body)[0]
	data, err := c.doOrder(ctx, []string{ep}, http.MethodPost, "/v1/jobs", body, false)
	if err != nil {
		return nil, err
	}
	var doc JobStatus
	if err := wire.Unmarshal(data, &doc, "job submission response"); err != nil {
		return nil, err
	}
	if doc.Job == "" {
		return nil, fmt.Errorf("%w: job submission response carries no id", wire.ErrMalformed)
	}
	return &Job{c: c, ep: ep, ID: doc.Job, Items: doc.Items}, nil
}

// Job reattaches to a previously submitted job by id (e.g. after a
// process restart). The owning replica is unknown to a fresh handle;
// the first Status or Stream call probes the endpoints until one
// recognizes the id and pins the handle there.
func (c *Client) Job(id string) *Job { return &Job{c: c, ID: id} }

// resolve pins a reattached handle to the replica that owns its job,
// probing each endpoint once. A typed refusal (unknown id) moves on to
// the next endpoint; the last error surfaces when nobody owns the id.
func (j *Job) resolve(ctx context.Context) ([]byte, error) {
	if j.ep != "" {
		return nil, nil
	}
	eps, _ := j.c.view()
	var lastErr error
	for _, ep := range eps {
		data, definitive, transient := j.c.attempt(ctx, ep, http.MethodGet, "/v1/jobs/"+j.ID, nil)
		if definitive == nil && transient == nil {
			j.ep = ep
			return data, nil
		}
		if definitive != nil {
			lastErr = definitive
		} else {
			lastErr = transient
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("client: %w", engine.Canceled(err))
		}
	}
	return nil, lastErr
}

// Status fetches the job's progress from its owning replica.
func (j *Job) Status(ctx context.Context) (JobStatus, error) {
	data, err := j.resolve(ctx)
	if err != nil {
		return JobStatus{}, err
	}
	if data == nil {
		data, err = j.c.doOrder(ctx, []string{j.ep}, http.MethodGet, "/v1/jobs/"+j.ID, nil, true)
		if err != nil {
			return JobStatus{}, err
		}
	}
	var doc JobStatus
	if err := wire.Unmarshal(data, &doc, "job status"); err != nil {
		return JobStatus{}, err
	}
	j.Items = doc.Items
	return doc, nil
}

// Item is one streamed job result: the plan at Index, or the typed
// error that item failed with (sentinel-mapped, like every other
// remote error).
type Item struct {
	Index int
	Plan  *Plan
	Err   error
}

// Stream attaches to the job's NDJSON stream at item index from and
// returns an iterator over the remaining items in order. The iterator
// transparently reconnects to the job's owning replica from its cursor
// when the connection drops mid-batch (the service replays completed
// items from memory), up to the client's retry budget per gap. Close
// the stream when done.
func (j *Job) Stream(ctx context.Context, from int) (*Stream, error) {
	if j.Items == 0 || j.ep == "" {
		if _, err := j.Status(ctx); err != nil {
			return nil, err
		}
	}
	s := &Stream{job: j, ctx: ctx, next: from}
	if _, err := s.connect(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stream iterates a job's per-item results in item order.
type Stream struct {
	job  *Job
	ctx  context.Context
	next int // index of the next item to deliver

	body io.ReadCloser
	sc   *bufio.Scanner
}

// connect (re)opens the NDJSON stream at the current cursor, always
// against the job's pinned replica — resuming elsewhere would miss the
// owner's in-memory lines. transient reports whether the failure is a
// transport error worth retrying (a non-2xx response is a definitive,
// typed answer).
func (s *Stream) connect() (transient bool, err error) {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/stream?from=%d", s.job.ep, s.job.ID, s.next), nil)
	if err != nil {
		return false, err
	}
	resp, err := s.job.c.httpc.Do(req)
	if err != nil {
		return true, fmt.Errorf("client: opening job stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return false, errorFrom("/v1/jobs/"+s.job.ID+"/stream", resp.StatusCode, data)
	}
	s.body = chaosBody{resp.Body}
	s.sc = bufio.NewScanner(s.body)
	s.sc.Buffer(make([]byte, 64<<10), 8<<20)
	s.sc.Split(ndjsonLines)
	return false, nil
}

// ndjsonLines splits on '\n' alone. Unlike bufio.ScanLines it fails an
// unterminated tail: a body that ends mid-line was cut, and Next
// reconnects from its cursor.
func ndjsonLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return 0, nil, nil
}

// chaosBody wraps a stream body so the chaos layer can throttle reads
// (client.read.slow). Disarmed, the check is one atomic load per Read.
type chaosBody struct{ rc io.ReadCloser }

func (b chaosBody) Read(p []byte) (int, error) {
	if f, ok := chaos.Hit(chaos.SlowRead); ok {
		time.Sleep(f.Delay)
		if len(p) > 1 {
			p = p[:1]
		}
	}
	return b.rc.Read(p)
}

func (b chaosBody) Close() error { return b.rc.Close() }

// Next returns the next item in order, blocking while the service is
// still solving it. It returns io.EOF after the last item. A dropped
// connection (mid-read or while reconnecting) consumes the client's
// retry budget before surfacing; every fresh Next call starts with a
// full budget.
func (s *Stream) Next() (Item, error) {
	if s.next >= s.job.Items {
		return Item{}, io.EOF
	}
	var lastErr error
	for attempt := 0; attempt <= s.job.c.retries; attempt++ {
		if attempt > 0 {
			// Resume from the cursor after a backoff; a transient
			// reconnect failure spends an attempt, a typed refusal
			// (evicted job, bad cursor) is definitive.
			if err := chaos.Sleep(s.ctx, s.job.c.backoff<<(attempt-1)); err != nil {
				return Item{}, fmt.Errorf("client: %w", engine.Canceled(err))
			}
			if transient, err := s.connect(); err != nil {
				if !transient {
					return Item{}, err
				}
				lastErr = err
				continue
			}
		}
		if s.sc.Scan() {
			item, err := s.decode(s.sc.Bytes())
			if err == nil {
				if _, ok := chaos.Hit(chaos.StreamDrop); ok {
					// Injected mid-stream disconnect: drop the connection
					// after delivering this item; the next call reconnects
					// from the cursor and must see byte-identical lines.
					s.Close()
				}
			}
			return item, err
		}
		if err := s.ctx.Err(); err != nil {
			return Item{}, fmt.Errorf("client: %w", engine.Canceled(err))
		}
		// The connection ended with items outstanding: a dropped
		// stream, not a finished one.
		if lastErr = s.sc.Err(); lastErr == nil {
			lastErr = io.ErrUnexpectedEOF
		}
		s.Close()
	}
	return Item{}, fmt.Errorf("client: job stream broke at item %d: %w", s.next, lastErr)
}

// decode parses one NDJSON line into an Item.
func (s *Stream) decode(line []byte) (Item, error) {
	var doc wire.JobItem
	if err := wire.Unmarshal(line, &doc, "job stream line"); err != nil {
		return Item{}, err
	}
	if doc.Index != s.next {
		return Item{}, fmt.Errorf("%w: job stream answered item %d at cursor %d",
			wire.ErrMalformed, doc.Index, s.next)
	}
	s.next++
	item := Item{Index: doc.Index, Plan: doc.Plan}
	if doc.Error != "" || doc.Code != "" {
		item.Err = wire.ErrorDoc{V: doc.V, Code: doc.Code, Error: doc.Error}.Err()
	} else if doc.Plan == nil {
		return Item{}, fmt.Errorf("%w: job stream line %d has neither plan nor error", wire.ErrMalformed, doc.Index)
	}
	return item, nil
}

// Close releases the stream's connection. The job keeps running
// server-side; a new Stream can resume from any index.
func (s *Stream) Close() {
	if s.body != nil {
		s.body.Close()
		s.body = nil
	}
}
