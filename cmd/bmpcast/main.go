// Command bmpcast is the general-purpose CLI of the bounded multi-port
// broadcast library. Subcommands:
//
//	bmpcast solve   -file inst.json [-solver acyclic] [-cyclic] [-verbose]
//	    Compute T*, the chosen solver's throughput and its low-degree
//	    overlay for an instance
//	    (JSON: {"b0": 6, "open": [5,5], "guarded": [4,1,1]}).
//
//	bmpcast solvers
//	    List the engine registry: every algorithm name with its
//	    capability set.
//
//	bmpcast sweep   -dist Unif100 -n 50 -p 0.7 -count 1000 [-solver acyclic-search] [-seed 1] [-workers 0]
//	    Draw random tight instances and solve them all on the parallel
//	    batch runner, reporting throughput-ratio and latency statistics.
//
//	bmpcast generate -dist Unif100 -n 50 -p 0.7 [-seed 1]
//	    Draw a random tight instance and print it as JSON.
//
//	bmpcast simulate -file inst.json [-packets 300] [-seed 1]
//	    Build the acyclic overlay and replay Massoulié-style randomized
//	    broadcast on it, reporting per-node goodput.
//
//	bmpcast sim     [-seed 1] [-events 30] [-n 20] [-p 0.7] [-dist Unif100] [-solvers acyclic] [-format json|csv] [-timing] [-norepair]
//	    Replay a seeded churn trace (arrivals, departures, rescales,
//	    bursts) against a live platform, re-solving after every event on
//	    warm engine sessions, and emit the deterministic event timeline
//	    as a versioned wire document ("v": 1). -solvers all runs every
//	    churn-capable solver; output is byte-identical across runs
//	    unless -timing is set.
//
//	bmpcast serve   [-addr :8080] [-workers 4] [-store dir] [-self URL] [-peers url1,url2] [-hedge-after 150ms]
//	    Run the broadcast-planning HTTP service: POST /v1/solve,
//	    /v1/batch, /v1/jobs and /v1/session (wire-format Request/Plan
//	    documents), GET /v1/jobs/{id} and /v1/jobs/{id}/stream (NDJSON
//	    per-item plans), plus /healthz and /metrics. Identical requests
//	    are answered from a content-addressed plan cache. With -store
//	    the cache persists across restarts and similar instances
//	    (within 4 node edits) warm-start the repair path. With -self or
//	    -peers the replica joins a sharded cluster: each request's cache
//	    key is consistent-hashed onto the replica ring so every distinct
//	    plan is solved once cluster-wide, peers back-fill each other's
//	    caches, and slow owners are hedged locally after -hedge-after.
//
//	bmpcast store stats|compact|verify -dir <dir>
//	    Inspect, compact or integrity-check a `serve -store` plan-store
//	    directory offline: stats prints entry/byte counts and health
//	    flags, compact rewrites the log dropping skipped records, verify
//	    lists every record the open truncated or skipped (framing,
//	    checksum, content address, document decode, repeated address)
//	    and exits non-zero when there is one.
//
//	bmpcast loadgen -addr http://h1:8080[,http://h2:8081,...] [-rps 50] [-duration 10s] [-seed 1] [-pjob 0.15] [-hedge-after 0] [-format text|bench]
//	    Replay a seeded trace of mixed solve/job/stream traffic against
//	    one or more live `bmpcast serve` replicas at a target op rate
//	    (-rps), through the Go SDK only, and report the sustained op
//	    rate plus per-endpoint request rates and p50/p95/p99 latency.
//	    Several -addr endpoints get
//	    ring-aware routing (same hash as the server cluster);
//	    -hedge-after arms client-side request hedging. -format bench
//	    emits go-bench-style lines that cmd/benchjson converts and gates.
//
//	bmpcast soak    [-duration 60s] [-seed 1] [-rps 30] [-replicas 1] [-store] [-no-faults] [-emit-plan] [-out dir]
//	    Run an in-process daemon (or -replicas N hedged cluster) under
//	    mixed load + churn traffic and an adversarial client mix with a
//	    seeded chaos fault plan armed (internal/chaos), then assert
//	    goroutines, leased workspaces, RSS and the job/session counters
//	    return to baseline. -emit-plan prints the seed's
//	    byte-reproducible fault trace; violations write the trace and a
//	    full goroutine dump into -out and exit non-zero.
//
//	bmpcast demo fig1|fig6|57|sqrt41
//	    Walk through the paper's showcase instances.
//
// solve and sweep take -wire to emit their result as a canonical wire
// document instead of the human-readable text, and -remote <url> to
// route the work through a running daemon via the Go SDK (repro/client)
// — solve as one round trip, sweep as an async job consumed from the
// NDJSON stream. -remote accepts a comma-separated endpoint list and
// then routes by the request's ring position, exactly like the SDK's
// multi-endpoint Config. Remote output is byte-identical to the local
// -wire output for the same flags.
//
// sweep and sim take -cpuprofile/-memprofile to write pprof CPU and
// allocs profiles of the run, making the hot-path profiles committed
// under profiles/ reproducible from the CLI (see DESIGN.md's
// opportunity matrix).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/generator"
	"repro/internal/massoulie"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trees"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "solve":
		err = cmdSolve(args[1:], stdout)
	case "solvers":
		err = cmdSolvers(stdout)
	case "sweep":
		err = cmdSweep(args[1:], stdout)
	case "generate":
		err = cmdGenerate(args[1:], stdout)
	case "simulate":
		err = cmdSimulate(args[1:], stdout)
	case "sim":
		err = cmdSim(args[1:], stdout)
	case "serve":
		err = cmdServe(args[1:], stdout)
	case "store":
		err = cmdStore(args[1:], stdout)
	case "loadgen":
		err = cmdLoadgen(args[1:], stdout)
	case "soak":
		err = cmdSoak(args[1:], stdout)
	case "demo":
		err = cmdDemo(args[1:], stdout)
	case "-h", "--help", "help":
		usage(stderr)
	default:
		fmt.Fprintf(stderr, "bmpcast: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "bmpcast:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: bmpcast <solve|solvers|sweep|generate|simulate|sim|serve|store|loadgen|soak|demo> [flags]
  solve    -file inst.json [-solver acyclic] [-cyclic] [-verbose] [-wire] [-remote http://host:8080]
  solvers
  sweep    -dist <Unif100|Power1|Power2|LN1|LN2|PLab> -n <nodes> -p <openprob> -count <instances> [-solver acyclic-search] [-seed N] [-workers N] [-wire] [-remote http://host:8080] [-cpuprofile f] [-memprofile f]
  generate -dist <Unif100|Power1|Power2|LN1|LN2|PLab> -n <nodes> -p <openprob> [-seed N]
  simulate -file inst.json [-packets 300] [-seed 1]
  sim      [-seed N] [-events 30] [-n 20] [-p 0.7] [-dist Unif100] [-solvers acyclic|all|a,b,c] [-format json|csv] [-timing] [-norepair] [-cpuprofile f] [-memprofile f]
  serve    [-addr :8080] [-workers 4] [-store dir] [-self URL] [-peers url1,url2] [-hedge-after 150ms]
  store    <stats|compact|verify> -dir <dir>
  loadgen  -addr url1[,url2,...] [-rps 50] [-duration 10s] [-seed N] [-n 24] [-p 0.7] [-dist Unif100] [-solver acyclic] [-pjob 0.15] [-jobbatch 4] [-conc 64] [-hedge-after 0] [-format text|bench]
  soak     [-duration 60s] [-seed N] [-rps 30] [-replicas 1] [-workers 4] [-n 16] [-p 0.7] [-dist Unif100] [-pjob 0.2] [-store] [-no-faults] [-emit-plan] [-horizon 4096] [-out dir] [-quiet]
  demo     fig1|fig6|57|sqrt41`)
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// newSDKClient builds an SDK client from a comma-separated endpoint
// list: one endpoint behaves exactly like the classic single-URL
// client, several front a replica cluster with ring-aware routing.
func newSDKClient(addrs string, hedge time.Duration) (*client.Client, error) {
	return client.NewFromConfig(client.Config{
		Endpoints: splitList(addrs),
		Hedge:     client.Hedge{After: hedge},
	})
}

func loadInstance(path string) (*platform.Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ins platform.Instance
	if err := json.Unmarshal(data, &ins); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &ins, nil
}

func cmdSolve(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	file := fs.String("file", "", "instance JSON file (required)")
	solverName := fs.String("solver", "acyclic", "engine solver (see `bmpcast solvers`)")
	cyclic := fs.Bool("cyclic", false, "also build the optimal cyclic scheme")
	verbose := fs.Bool("verbose", false, "print the full edge list and a tree decomposition")
	wireOut := fs.Bool("wire", false, "emit the plan as a versioned wire document instead of text")
	remote := fs.String("remote", "", "solve via a running `bmpcast serve` at this base URL (requires -wire)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("solve: -file is required")
	}
	ins, err := loadInstance(*file)
	if err != nil {
		return err
	}
	if *remote != "" {
		if !*wireOut {
			return fmt.Errorf("solve: -remote requires -wire (remote plans are wire documents)")
		}
		c, err := newSDKClient(*remote, 0)
		if err != nil {
			return err
		}
		return solveWire(stdout, ins, *solverName, c.SolveRaw)
	}
	if *wireOut {
		return solveWire(stdout, ins, *solverName, solveLocalWire)
	}
	return solve(stdout, ins, *solverName, *cyclic, *verbose)
}

// solveWire answers like `POST /v1/solve` on stdout: one canonical
// wire.Plan document, byte-identical across runs and between a local
// solve and a -remote one. It first asks for a tree decomposition; if
// that is infeasible (a scheme-less or cyclic solver), it asks again
// without one.
func solveWire(out io.Writer, ins *platform.Instance, solverName string,
	solve func(context.Context, engine.Request) ([]byte, error)) error {
	ctx := context.Background()
	raw, err := solve(ctx, engine.NewRequest(ins,
		engine.WithSolver(solverName), engine.WithTolerance(1e-9), engine.WithTrees()))
	if errors.Is(err, engine.ErrInfeasible) {
		raw, err = solve(ctx, engine.NewRequest(ins,
			engine.WithSolver(solverName), engine.WithTolerance(1e-9)))
	}
	if err != nil {
		return err
	}
	_, err = out.Write(raw)
	return err
}

// solveLocalWire solves req in process and renders the plan document.
func solveLocalWire(ctx context.Context, req engine.Request) ([]byte, error) {
	plan, err := engine.Execute(ctx, req)
	if err != nil {
		return nil, err
	}
	return wire.EncodePlan(plan)
}

func solve(out io.Writer, ins *platform.Instance, solverName string, cyclic, verbose bool) error {
	ctx := context.Background()
	fmt.Fprintf(out, "instance: %v\n", ins)
	plan, err := engine.Execute(ctx, engine.NewRequest(ins, engine.WithSolver(solverName)))
	if err != nil {
		return err
	}
	tstar := plan.TStar
	fmt.Fprintf(out, "optimal cyclic throughput  T*    = %.6f  (Lemma 5.1)\n", tstar)
	res := plan.Result
	fmt.Fprintf(out, "solver %-14s T = %.6f  (ratio %.4f", res.Solver, res.Throughput, plan.Ratio())
	if len(res.Word) > 0 {
		fmt.Fprintf(out, ", word %s", res.Word)
	}
	fmt.Fprintf(out, ")\n")
	if res.Scheme != nil {
		if err := res.Scheme.Validate(); err != nil {
			return err
		}
		printDegrees(out, ins, res.Scheme, res.Throughput)
		if verbose {
			printEdges(out, res.Scheme)
			if res.Scheme.IsAcyclic() {
				if ts, err := trees.Decompose(ctx, res.Scheme, res.Throughput); err == nil {
					fmt.Fprintf(out, "broadcast-tree decomposition: %d trees, max depth %d\n", len(ts), maxDepth(ts))
				}
			}
		}
	}
	if cyclic {
		var cs *core.Scheme
		achieved := tstar
		if ins.M() == 0 {
			cs, err = core.CyclicOpen(ins, tstar, nil)
		} else {
			cs, achieved, err = core.PackCyclicGuarded(ins, tstar, nil)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "cyclic scheme at T = %.6f (T* = %.6f): %d edges, acyclic=%v\n",
			achieved, tstar, cs.NumEdges(), cs.IsAcyclic())
		printDegrees(out, ins, cs, achieved)
		if verbose {
			printEdges(out, cs)
		}
	}
	return nil
}

func cmdSolvers(stdout io.Writer) error {
	fmt.Fprintf(stdout, "%-16s %s\n", "solver", "capabilities")
	for _, s := range engine.Select(0) {
		fmt.Fprintf(stdout, "%-16s %s\n", s.Name(), s.Capabilities())
	}
	return nil
}

func cmdSweep(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	distName := fs.String("dist", "Unif100", "bandwidth distribution")
	n := fs.Int("n", 50, "receiver nodes per instance")
	p := fs.Float64("p", 0.7, "probability a node is open")
	count := fs.Int("count", 1000, "number of random instances")
	solverName := fs.String("solver", "acyclic-search", "engine solver (see `bmpcast solvers`)")
	seed := fs.Int64("seed", 1, "RNG seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	wireOut := fs.Bool("wire", false, "emit the sweep report as a versioned wire document instead of text")
	remote := fs.String("remote", "", "sweep via a running `bmpcast serve` at this base URL (async job + NDJSON stream)")
	prof := newProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dist, err := repro.DistributionByName(*distName)
	if err != nil {
		return err
	}
	if *count < 1 {
		return fmt.Errorf("sweep: -count must be ≥ 1")
	}
	return prof.run(func() error {
		return runSweep(stdout, dist, *n, *p, *count, *solverName, *seed, *workers, *wireOut, *remote)
	})
}

// runSweep is the profiled body of cmdSweep: instance generation plus
// the local batch solve or the remote job-stream path.
func runSweep(stdout io.Writer, dist distribution.Distribution, n int, p float64, count int, solverName string, seed int64, workers int, wireOut bool, remote string) error {
	rng := rand.New(rand.NewSource(seed))
	instances := make([]*platform.Instance, count)
	for i := range instances {
		var err error
		if instances[i], err = generator.Random(dist, n, p, rng); err != nil {
			return err
		}
	}
	if remote != "" {
		return sweepRemote(stdout, instances, sweepParams{
			Dist: dist.Name(), N: n, P: p, Count: count,
			Solver: solverName, Seed: seed, Wire: wireOut,
		}, remote)
	}
	start := time.Now()
	results, err := engine.BatchByName(context.Background(), solverName, instances, engine.BatchOptions{Workers: workers})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	ratios := make([]float64, len(results))
	walls := make([]float64, len(results))
	var evals core.WorkspaceStats
	for i, r := range results {
		// Instances are tight (T* = b0), so the ratio to the cyclic
		// optimum is throughput/b0.
		ratios[i] = r.Throughput / instances[i].B0
		walls[i] = r.Wall.Seconds() * 1e3
		evals = evals.Add(r.Evals)
	}
	rs := stats.Summarize(ratios)
	ws := stats.Summarize(walls)
	if wireOut {
		return writeSweepWire(stdout, sweepReport{
			V: wire.Version, Dist: dist.Name(), N: n, P: p, Count: count,
			Solver: solverName, Seed: seed,
			RatioMean: rs.Mean, RatioMedian: rs.Median, RatioP025: rs.P025, RatioMin: rs.Min,
			Evals: sim.Counts(evals),
		})
	}
	fmt.Fprintf(stdout, "sweep: %d × (%s, n=%d, p=%.2f) via %s, seed %d\n",
		count, dist.Name(), n, p, solverName, seed)
	fmt.Fprintf(stdout, "throughput/T*: mean %.4f median %.4f p2.5 %.4f min %.4f\n",
		rs.Mean, rs.Median, rs.P025, rs.Min)
	fmt.Fprintf(stdout, "per-instance solve: mean %.3fms median %.3fms max %.3fms\n",
		ws.Mean, ws.Median, ws.Max)
	fmt.Fprintf(stdout, "inner evals: %d greedy probes, %d flow queries, %d word evals, %d builds (%d scratch grows)\n",
		evals.GreedyTests, evals.FlowEvals, evals.WordEvals, evals.Builds, evals.Grows)
	fmt.Fprintf(stdout, "wall total %.3fs (%.0f instances/s)\n",
		elapsed.Seconds(), float64(count)/elapsed.Seconds())
	return nil
}

// sweepReport is the wire form of a sweep summary ("v": 1; wall-clock
// figures are deliberately absent so the document is byte-stable for a
// given seed).
type sweepReport struct {
	V           int             `json:"v"`
	Dist        string          `json:"dist"`
	N           int             `json:"n"`
	P           float64         `json:"p"`
	Count       int             `json:"count"`
	Solver      string          `json:"solver"`
	Seed        int64           `json:"seed"`
	RatioMean   float64         `json:"ratio_mean"`
	RatioMedian float64         `json:"ratio_median"`
	RatioP025   float64         `json:"ratio_p025"`
	RatioMin    float64         `json:"ratio_min"`
	Evals       wire.EvalCounts `json:"evals"`
}

func writeSweepWire(out io.Writer, rep sweepReport) error {
	data, err := wire.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = out.Write(data)
	return err
}

// sweepParams carries the sweep configuration into the remote path.
type sweepParams struct {
	Dist   string
	N      int
	P      float64
	Count  int
	Solver string
	Seed   int64
	Wire   bool
}

// sweepRemote runs the sweep through the daemon's async job API: the
// locally generated instances are submitted as one job, the per-item
// plans consumed from the NDJSON stream in order as they complete.
// The -wire report is byte-identical to a local `sweep -wire` with the
// same parameters (same seed ⇒ same instances ⇒ same plans; wall-clock
// figures are absent from the document by design).
func sweepRemote(out io.Writer, instances []*platform.Instance, p sweepParams, url string) error {
	ctx := context.Background()
	reqs := make([]engine.Request, len(instances))
	for i, ins := range instances {
		reqs[i] = engine.NewRequest(ins, engine.WithSolver(p.Solver))
	}
	start := time.Now()
	c, err := newSDKClient(url, 0)
	if err != nil {
		return err
	}
	job, err := c.Submit(ctx, reqs)
	if err != nil {
		return err
	}
	stream, err := job.Stream(ctx, 0)
	if err != nil {
		return err
	}
	defer stream.Close()

	ratios := make([]float64, 0, len(instances))
	var evals wire.EvalCounts
	for {
		item, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("sweep: job %s stream: %w", job.ID, err)
		}
		if item.Err != nil {
			return fmt.Errorf("sweep: instance %d: %w", item.Index, item.Err)
		}
		// Instances are tight (T* = b0), as in the local path.
		ratios = append(ratios, item.Plan.Throughput/instances[item.Index].B0)
		evals.FlowEvals += item.Plan.Evals.FlowEvals
		evals.GreedyTests += item.Plan.Evals.GreedyTests
		evals.WordEvals += item.Plan.Evals.WordEvals
		evals.Builds += item.Plan.Evals.Builds
	}
	elapsed := time.Since(start)
	rs := stats.Summarize(ratios)
	if p.Wire {
		return writeSweepWire(out, sweepReport{
			V: wire.Version, Dist: p.Dist, N: p.N, P: p.P, Count: p.Count,
			Solver: p.Solver, Seed: p.Seed,
			RatioMean: rs.Mean, RatioMedian: rs.Median, RatioP025: rs.P025, RatioMin: rs.Min,
			Evals: evals,
		})
	}
	fmt.Fprintf(out, "sweep: %d × (%s, n=%d, p=%.2f) via %s on %s (job %s), seed %d\n",
		p.Count, p.Dist, p.N, p.P, p.Solver, url, job.ID, p.Seed)
	fmt.Fprintf(out, "throughput/T*: mean %.4f median %.4f p2.5 %.4f min %.4f\n",
		rs.Mean, rs.Median, rs.P025, rs.Min)
	fmt.Fprintf(out, "inner evals: %d greedy probes, %d flow queries, %d word evals, %d builds\n",
		evals.GreedyTests, evals.FlowEvals, evals.WordEvals, evals.Builds)
	fmt.Fprintf(out, "wall total %.3fs (%.0f instances/s, streamed)\n",
		elapsed.Seconds(), float64(p.Count)/elapsed.Seconds())
	return nil
}

func maxDepth(ts []trees.Tree) int {
	d := 0
	for i := range ts {
		if td := ts[i].Depth(); td > d {
			d = td
		}
	}
	return d
}

func printDegrees(out io.Writer, ins *platform.Instance, s *core.Scheme, T float64) {
	slack, maxSlack := s.DegreeSlack(T)
	fmt.Fprintf(out, "max outdegree %d; degree slack over ⌈b_i/T⌉: max %+d\n", s.MaxOutDegree(), maxSlack)
	if ins.Total() <= 12 {
		for i := 0; i < ins.Total(); i++ {
			fmt.Fprintf(out, "  C%-3d %-8s b=%-8g out=%-8.4g deg=%d (⌈b/T⌉=%d, slack %+d)\n",
				i, ins.KindOf(i), ins.Bandwidth(i), s.OutRate(i), s.OutDegree(i),
				core.DegreeLowerBound(ins.Bandwidth(i), T), slack[i])
		}
	}
}

func printEdges(out io.Writer, s *core.Scheme) {
	edges := s.Edges()
	fmt.Fprintf(out, "edges (%d):\n", len(edges))
	for _, e := range edges {
		fmt.Fprintf(out, "  C%d -> C%d : %.4f\n", e.From, e.To, e.Weight)
	}
}

func cmdGenerate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	distName := fs.String("dist", "Unif100", "bandwidth distribution")
	n := fs.Int("n", 50, "number of receiver nodes")
	p := fs.Float64("p", 0.7, "probability a node is open")
	seed := fs.Int64("seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dist, err := repro.DistributionByName(*distName)
	if err != nil {
		return err
	}
	ins, err := generator.Random(dist, *n, *p, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(data))
	return nil
}

func cmdSimulate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	file := fs.String("file", "", "instance JSON file (required)")
	packets := fs.Int("packets", 300, "stream packets to broadcast")
	seed := fs.Int64("seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("simulate: -file is required")
	}
	ins, err := loadInstance(*file)
	if err != nil {
		return err
	}
	T, scheme, _, err := core.SolveAcyclic(ins, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "overlay built: T*_ac = %.6f, %d edges, max degree %d\n", T, scheme.NumEdges(), scheme.MaxOutDegree())
	res, err := massoulie.Simulate(scheme, T, massoulie.Config{Packets: *packets, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simulation: %d rounds, completed=%v\n", res.Rounds, res.Completed)
	fmt.Fprintf(stdout, "min per-node goodput: %.4f of T (1.0 = nominal rate)\n", res.MinGoodput())
	return nil
}

func cmdSim(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "trace RNG seed (same seed ⇒ byte-identical timeline)")
	events := fs.Int("events", 30, "churn events to replay")
	n := fs.Int("n", 20, "initial receiver nodes")
	p := fs.Float64("p", 0.7, "probability a node is open")
	distName := fs.String("dist", "Unif100", "bandwidth distribution")
	solverList := fs.String("solvers", "acyclic", "comma-separated engine solvers, or 'all' for every churn-capable one")
	format := fs.String("format", "json", "timeline output format: json or csv")
	timing := fs.Bool("timing", false, "include wall-clock ms per solve (breaks byte-reproducibility)")
	noRepair := fs.Bool("norepair", false, "disable incremental repair (full re-solve per event)")
	prof := newProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	solvers := splitList(*solverList)
	if *solverList == "all" {
		solvers = experiments.ChurnSolvers()
	}
	return prof.run(func() error {
		tr, err := sim.GenerateTrace(sim.TraceConfig{
			Nodes: *n, POpen: *p, Dist: *distName, Events: *events, Seed: *seed,
		})
		if err != nil {
			return err
		}
		tl, err := sim.Run(context.Background(), tr, sim.RunConfig{
			Solvers: solvers, NoRepair: *noRepair, Timing: *timing,
		})
		if err != nil {
			return err
		}
		switch *format {
		case "json":
			// Versioned wire document — same codec the service speaks.
			data, err := wire.EncodeTimeline(tl)
			if err != nil {
				return err
			}
			_, err = stdout.Write(data)
			return err
		case "csv":
			return tl.WriteCSV(stdout)
		default:
			return fmt.Errorf("sim: unknown format %q (json or csv)", *format)
		}
	})
}

func cmdDemo(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("demo: expected one of fig1|fig6|57|sqrt41")
	}
	var ins *platform.Instance
	var err error
	switch args[0] {
	case "fig1":
		ins = generator.Figure1()
	case "fig6":
		ins, err = generator.Figure6(6)
	case "57":
		ins = generator.WorstCase57(1.0 / 14)
	case "sqrt41":
		ins = generator.Sqrt41Default(1)
	default:
		return fmt.Errorf("demo: unknown demo %q", args[0])
	}
	if err != nil {
		return err
	}
	return solve(stdout, ins, "acyclic", true, true)
}
