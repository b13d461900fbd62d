// Package soak runs a live daemon (optionally a replica cluster)
// in-process under mixed loadgen + churn-session traffic and a seeded
// adversarial client mix — canceled contexts, mid-stream disconnects,
// slow readers, malformed wire documents from the fuzz corpora — with
// a chaos fault plan armed underneath, then asserts the leak signals
// (goroutines, engine.LeasedWorkspaces, RSS, job/session/inflight
// counters) return to the post-startup baseline. Violations carry a
// full goroutine dump and the plan's byte-reproducible fault trace,
// so any failure replays from its seed.
//
// Everything runs in one process on loopback listeners: that is what
// makes the goroutine and workspace baselines assertable at all.
package soak

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/chaos"
	"repro/internal/chaos/leakcheck"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TraceHorizon is how many visits per fault point the emitted fault
// trace enumerates.
const TraceHorizon = 4096

const (
	// settleTimeout bounds the post-drain wait for the leak signals to
	// return to baseline.
	settleTimeout = 20 * time.Second
	// maxRSSGrowth bounds resident-set growth over the run in bytes
	// (only enforced where /proc/self/statm exists).
	maxRSSGrowth = 256 << 20
)

// Config tunes one soak run. The zero value is usable: 10s, seed 1,
// one replica, the default fault plan.
type Config struct {
	// Duration is the traffic window (drain and settle come on top).
	Duration time.Duration
	// Seed drives the load trace, the adversarial mix and the fault
	// plan, chaos.DefaultPlan(Seed) — one seed replays the whole run.
	Seed int64
	// RPS paces the mixed solve/job load trace.
	RPS float64
	// Replicas is the cluster size (1 = standalone).
	Replicas int
	// Workers is each replica's worker-gate width.
	Workers int
	// Nodes / POpen / Dist / PJob shape the generated traffic
	// (sim.LoadConfig semantics).
	Nodes int
	POpen float64
	Dist  string
	PJob  float64
	// StoreDir, when non-empty, gives each replica a plan store under
	// StoreDir/r<i> — torn-append and compact faults need a store.
	StoreDir string
	// NoFaults disarms fault injection entirely.
	NoFaults bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RPS <= 0 {
		c.RPS = 30
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.POpen == 0 {
		c.POpen = 0.7
	}
	if c.PJob == 0 {
		c.PJob = 0.2
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Result is one soak run's outcome. Violations empty means the run
// ended at baseline.
type Result struct {
	Ops          int64                 // load-trace ops completed
	OpErrors     int64                 // load-trace ops that errored (chaos makes some inevitable)
	Adversarial  int64                 // adversarial client actions performed
	Malformed5xx int64                 // malformed posts answered with 5xx (always a bug)
	Injected     map[chaos.Point]int64 // faults fired during the run, per point

	BaselineGoroutines, FinalGoroutines int
	BaselineLeased, FinalLeased         int64
	BaselineRSS, FinalRSS               int64

	Violations []string
	Dump       []byte // all-goroutine stack dump, set on violation
	FaultTrace []byte // the plan's byte-reproducible decision schedule
}

// Failed reports whether the run violated any baseline invariant.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Run executes one soak. The returned error covers setup failures
// only; invariant violations land in Result.Violations.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plan := chaos.DefaultPlan(cfg.Seed)
	res := &Result{Injected: make(map[chaos.Point]int64)}
	var err error
	if res.FaultTrace, err = plan.Trace(TraceHorizon); err != nil {
		return nil, fmt.Errorf("soak: rendering fault trace: %w", err)
	}

	// The whole run shares one transport so idle connections can be
	// torn down before the final leak check.
	tr := &http.Transport{}
	httpc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	cl, urls, shutdown, err := startReplicas(cfg, httpc)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	if err := cl.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("soak: replicas not healthy: %w", err)
	}

	// Baseline after startup: server accept loops and job contexts are
	// steady-state, not leaks.
	base := leakcheck.Snapshot()
	res.BaselineGoroutines, res.BaselineLeased = base.Goroutines, base.Leased
	res.BaselineRSS = rss()
	cfg.Logf("soak: %d replica(s) up, baseline goroutines=%d leased=%d rss=%dMiB",
		cfg.Replicas, base.Goroutines, base.Leased, res.BaselineRSS>>20)

	before := snapshotInjected()
	if !cfg.NoFaults {
		chaos.Arm(plan)
		cfg.Logf("soak: fault plan armed (seed %d, %d rules)", plan.Seed(), len(plan.Rules()))
	}
	// Disarm before drain/settle so the harness's own polling is not
	// itself fault-injected.
	runTraffic(ctx, cfg, cl, httpc, urls, res)
	chaos.Disarm()
	for pt, n := range snapshotInjected() {
		if d := n - before[pt]; d > 0 {
			res.Injected[pt] = d
		}
	}
	cfg.Logf("soak: traffic done: ops=%d errors=%d adversarial=%d injected=%v",
		res.Ops, res.OpErrors, res.Adversarial, res.Injected)

	drainAndCheck(httpc, urls, tr, base, res)
	return res, nil
}

// startReplicas boots cfg.Replicas servers on loopback listeners
// (listen first so every Self URL exists before any Server starts) and
// returns an SDK client over all of them.
func startReplicas(cfg Config, httpc *http.Client) (*client.Client, []string, func(), error) {
	lns := make([]net.Listener, cfg.Replicas)
	urls := make([]string, cfg.Replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, fmt.Errorf("soak: listen: %w", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	svcs := make([]*service.Server, cfg.Replicas)
	https := make([]*http.Server, cfg.Replicas)
	for i := range svcs {
		// A short session TTL lets the drain reclaim sessions whose
		// open reply was eaten by an injected connection drop — the
		// client never learns the id, so nobody else ever closes them.
		scfg := service.Config{Workers: cfg.Workers, SessionTTL: 5 * time.Second}
		if cfg.Replicas > 1 {
			scfg.Self, scfg.Peers = urls[i], urls
			scfg.HedgeAfter = 25 * time.Millisecond
		}
		if cfg.StoreDir != "" {
			scfg.StoreDir = filepath.Join(cfg.StoreDir, fmt.Sprintf("r%d", i))
		}
		svc, err := service.NewServer(scfg)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = https[j].Close()
				svcs[j].Close()
			}
			for _, ln := range lns[i:] {
				_ = ln.Close()
			}
			return nil, nil, nil, fmt.Errorf("soak: replica %d: %w", i, err)
		}
		svcs[i] = svc
		https[i] = &http.Server{Handler: svc}
		go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(https[i], lns[i])
	}
	cl, err := client.NewFromConfig(client.Config{
		Endpoints:  urls,
		Retry:      client.Retry{Retries: 3, Backoff: 10 * time.Millisecond},
		HTTPClient: httpc,
	})
	if err != nil {
		for i := range svcs {
			_ = https[i].Close()
			svcs[i].Close()
		}
		return nil, nil, nil, fmt.Errorf("soak: building client: %w", err)
	}
	shutdown := func() {
		for i := range svcs {
			_ = https[i].Close()
			svcs[i].Close()
		}
	}
	return cl, urls, shutdown, nil
}

// runTraffic drives the paced load trace and the adversarial mix
// until the duration elapses or ctx is canceled.
func runTraffic(ctx context.Context, cfg Config, cl *client.Client, httpc *http.Client, urls []string, res *Result) {
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		runLoad(ctx, cfg, cl, res)
	}()
	go func() {
		defer wg.Done()
		runAdversaries(ctx, cfg, cl, httpc, urls, res)
	}()
	wg.Wait()
}

// runLoad replays a seeded sim load trace open-loop at cfg.RPS, 32 ops
// in flight. Errors are counted, not fatal — with connection drops
// armed, some retry budgets will run out by design.
func runLoad(ctx context.Context, cfg Config, cl *client.Client, res *Result) {
	ops := int(cfg.RPS * cfg.Duration.Seconds())
	if ops < 1 {
		ops = 1
	}
	trace, err := sim.GenerateLoadTrace(sim.LoadConfig{
		Ops: ops, Nodes: cfg.Nodes, POpen: cfg.POpen, Dist: cfg.Dist,
		PJob: cfg.PJob, Seed: cfg.Seed,
	})
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("generating load trace: %v", err))
		return
	}
	rep := loadgen.Replay(ctx, cl, trace, cfg.RPS, 32, "acyclic")
	res.Ops, res.OpErrors = int64(rep.Ops), int64(rep.Failed)
}

// runAdversaries loops the hostile personalities: canceled contexts,
// malformed posts, mid-stream disconnects, slow readers, session
// churn. All draws come from one seeded rng, so the mix replays.
func runAdversaries(ctx context.Context, cfg Config, cl *client.Client, httpc *http.Client, urls []string, res *Result) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5adc0de))
	pool := chaos.NewMalformedPool(cfg.Seed)
	churn, _ := sim.GenerateTrace(sim.TraceConfig{Nodes: cfg.Nodes, POpen: cfg.POpen, Dist: cfg.Dist, Events: 64, Seed: cfg.Seed + 1})
	ins, _ := sim.GenerateLoadTrace(sim.LoadConfig{Ops: 8, Nodes: cfg.Nodes, POpen: cfg.POpen, Dist: cfg.Dist, PJob: -1, Seed: cfg.Seed + 2})
	mi := 0
	for ctx.Err() == nil {
		url := urls[rng.Intn(len(urls))]
		switch rng.Intn(6) {
		case 0: // canceled context mid-solve: workspaces must come back
			cctx, cancel := context.WithTimeout(ctx, time.Duration(1+rng.Intn(8))*time.Millisecond)
			_, _ = cl.Solve(cctx, engine.NewRequest(ins.Ops[rng.Intn(len(ins.Ops))].Instances[0], engine.WithSolver("acyclic")))
			cancel()
		case 1: // malformed wire doc: any 5xx is a bug
			doc := pool.Doc(mi)
			mi++
			resp, err := httpc.Post(url+"/v1/solve", "application/json", bytes.NewReader(doc))
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				if resp.StatusCode >= 500 {
					atomic.AddInt64(&res.Malformed5xx, 1)
				}
				resp.Body.Close()
			}
		case 2: // submit a job, disconnect mid-stream, walk away
			job, err := cl.Submit(ctx, jobReqs(ins, rng))
			if err != nil {
				break
			}
			resp, err := httpc.Get(url + "/v1/jobs/" + job.ID + "/stream")
			if err == nil {
				buf := make([]byte, 32)
				_, _ = resp.Body.Read(buf)
				resp.Body.Close()
			}
		case 3: // slow reader: 1 byte / 10ms against a live stream
			job, err := cl.Submit(ctx, jobReqs(ins, rng))
			if err != nil {
				break
			}
			resp, err := httpc.Get(urls[0] + "/v1/jobs/" + job.ID + "/stream")
			if err == nil {
				slowDrain(ctx, resp.Body, 40)
				resp.Body.Close()
			}
		case 4: // session churn: open, resolve through events, close
			sessionChurn(ctx, httpc, url, churn, rng)
		case 5: // valid solve posted at a random replica: the SDK routes
			// to ring owners, so this is what makes non-owners forward
			// (and the peer-slow fault makes those forwards hedge)
			op := ins.Ops[rng.Intn(len(ins.Ops))]
			doc, err := wire.EncodeRequest(engine.NewRequest(op.Instances[0], engine.WithSolver("acyclic")))
			if err != nil {
				break
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", bytes.NewReader(doc))
			if err != nil {
				break
			}
			if resp, err := httpc.Do(req); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		atomic.AddInt64(&res.Adversarial, 1)
		if err := chaos.Sleep(ctx, time.Duration(5+rng.Intn(20))*time.Millisecond); err != nil {
			return
		}
	}
}

// jobReqs picks one job-shaped request list from the instance pool.
func jobReqs(ins *sim.LoadTrace, rng *rand.Rand) []client.Request {
	op := ins.Ops[rng.Intn(len(ins.Ops))]
	n := 1 + rng.Intn(3)
	reqs := make([]client.Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, engine.NewRequest(op.Instances[0], engine.WithSolver("acyclic")))
	}
	return reqs
}

// slowDrain reads up to n bytes one at a time, 10ms apart — the
// pathological consumer the stream path must tolerate without holding
// workers or buffers.
func slowDrain(ctx context.Context, r io.Reader, n int) {
	buf := make([]byte, 1)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		if _, err := r.Read(buf); err != nil {
			return
		}
		if chaos.Sleep(ctx, 10*time.Millisecond) != nil {
			return
		}
	}
}

// sessionChurn opens a warm session, replays a random slice of the
// churn trace through it, and always closes — an abandoned session
// would (correctly) trip the leak gate.
func sessionChurn(ctx context.Context, httpc *http.Client, url string, churn *sim.Trace, rng *rand.Rand) {
	if churn == nil {
		return
	}
	post := func(doc wire.SessionRequest) (wire.SessionReply, bool) {
		body, err := wire.MarshalCompact(doc)
		if err != nil {
			return wire.SessionReply{}, false
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/session", bytes.NewReader(body))
		if err != nil {
			return wire.SessionReply{}, false
		}
		resp, err := httpc.Do(req)
		if err != nil {
			return wire.SessionReply{}, false
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var out wire.SessionReply
		if resp.StatusCode != http.StatusOK || wire.Unmarshal(data, &out, "session response") != nil {
			return wire.SessionReply{}, false
		}
		return out, true
	}
	open, ok := post(wire.SessionRequest{V: wire.Version, Op: "open", Solver: "acyclic"})
	if !ok || open.Session == "" {
		return
	}
	// Close even when the surrounding context has expired: the session
	// must not outlive this personality.
	defer func() {
		doc := wire.SessionRequest{V: wire.Version, Op: "close", Session: open.Session}
		body, _ := wire.MarshalCompact(doc)
		req, err := http.NewRequest(http.MethodPost, url+"/v1/session", bytes.NewReader(body))
		if err != nil {
			return
		}
		if resp, err := httpc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	scratch := churn.Initial.Clone()
	if _, ok := post(wire.SessionRequest{V: wire.Version, Op: "resolve", Session: open.Session, Instance: wire.FromInstance(scratch)}); !ok {
		return
	}
	steps := 1 + rng.Intn(6)
	from := rng.Intn(len(churn.Events))
	for i := 0; i < steps && ctx.Err() == nil; i++ {
		ev := churn.Events[(from+i)%len(churn.Events)]
		if sim.Apply(scratch, ev) != nil {
			// The trace is only valid replayed in order from Initial;
			// an inapplicable event just ends this churn burst.
			return
		}
		if _, ok := post(wire.SessionRequest{V: wire.Version, Op: "resolve", Session: open.Session, Instance: wire.FromInstance(scratch)}); !ok {
			return
		}
	}
}

// drainAndCheck waits for the daemons to go quiet, then asserts every
// leak signal is back at baseline.
func drainAndCheck(httpc *http.Client, urls []string, tr *http.Transport, base leakcheck.Baseline, res *Result) {
	// First: server-side quiesce — no running jobs, no open sessions,
	// no inflight requests (beyond the probe itself).
	deadline := time.Now().Add(settleTimeout)
	for {
		quiet := true
		for _, url := range urls {
			doc, err := fetchLeaks(httpc, url)
			if err != nil || doc.JobsRunning > 0 || doc.SessionsOpen > 0 || doc.Inflight > 0 {
				quiet = false
				break
			}
		}
		if quiet {
			break
		}
		if time.Now().After(deadline) {
			res.Violations = append(res.Violations, "daemon did not quiesce: jobs/sessions/inflight still nonzero after drain timeout")
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Then: process-wide leak signals back at the post-startup
	// baseline. Idle connections pin goroutines on both sides of the
	// wire — ours on tr, and the replicas' peer clients on the default
	// transport — so WaitHTTP tears both idle pools down as it waits.
	if err := base.WaitHTTP(settleTimeout, tr); err != nil {
		res.Violations = append(res.Violations, err.Error())
	}
	res.FinalGoroutines, res.FinalLeased = currentCounts()
	res.FinalRSS = rss()
	if res.BaselineRSS > 0 && res.FinalRSS-res.BaselineRSS > maxRSSGrowth {
		res.Violations = append(res.Violations,
			fmt.Sprintf("rss grew %d MiB (baseline %d MiB, cap %d MiB)",
				(res.FinalRSS-res.BaselineRSS)>>20, res.BaselineRSS>>20, maxRSSGrowth>>20))
	}
	if res.Malformed5xx > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d malformed documents answered with 5xx (want 4xx)", res.Malformed5xx))
	}
	if res.Failed() && res.Dump == nil {
		res.Dump = leakcheck.Dump()
	}
}

func currentCounts() (int, int64) {
	b := leakcheck.Snapshot()
	return b.Goroutines, b.Leased
}

// fetchLeaks polls one replica's GET /debug/leaks.
func fetchLeaks(httpc *http.Client, url string) (service.LeaksDoc, error) {
	resp, err := httpc.Get(url + "/debug/leaks")
	if err != nil {
		return service.LeaksDoc{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.LeaksDoc{}, err
	}
	var doc service.LeaksDoc
	if err := wire.Unmarshal(data, &doc, "leaks document"); err != nil {
		return service.LeaksDoc{}, err
	}
	return doc, nil
}

func snapshotInjected() map[chaos.Point]int64 {
	out := make(map[chaos.Point]int64)
	for _, pc := range chaos.InjectedTotals() {
		out[pc.Point] = pc.Count
	}
	return out
}

// rss reads the resident set size from /proc/self/statm; 0 where the
// proc filesystem is unavailable.
func rss() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
