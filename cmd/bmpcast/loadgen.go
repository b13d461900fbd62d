package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/sim"
)

// bmpcast loadgen: replay a seeded trace of mixed solve/job/stream
// traffic against a live `bmpcast serve` at a target op rate
// (internal/loadgen's Replay), through the exported Go SDK only — the
// load numbers measure the same wire path real users hit. The trace
// (kinds, batch shapes, every instance) is byte-reproducible per seed;
// the latency report is the measurement.

func cmdLoadgen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "base URL(s) of running `bmpcast serve` replicas, comma-separated (required)")
	hedgeAfter := fs.Duration("hedge-after", 0, "client-side hedge budget across replicas (0 disables; needs ≥ 2 endpoints)")
	rps := fs.Float64("rps", 50, "target op rate, ops/s (a job op makes two requests: submit and stream)")
	duration := fs.Duration("duration", 10*time.Second, "load duration")
	seed := fs.Int64("seed", 1, "trace RNG seed (same seed ⇒ byte-identical trace)")
	n := fs.Int("n", 24, "receiver nodes per generated instance")
	p := fs.Float64("p", 0.7, "probability a node is open")
	distName := fs.String("dist", "Unif100", "bandwidth distribution")
	solverName := fs.String("solver", "acyclic", "engine solver for every request")
	pJob := fs.Float64("pjob", 0.15, "fraction of ops submitted as async jobs (drained via the NDJSON stream)")
	jobBatch := fs.Int("jobbatch", 4, "instances per async job")
	conc := fs.Int("conc", 64, "max in-flight ops (closed-loop backpressure above this)")
	format := fs.String("format", "text", "report format: text, or bench (go-bench lines for cmd/benchjson)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("loadgen: -addr is required (a running `bmpcast serve` base URL)")
	}
	if *rps <= 0 {
		return fmt.Errorf("loadgen: -rps must be > 0")
	}
	if *duration <= 0 {
		return fmt.Errorf("loadgen: -duration must be > 0")
	}
	if *conc < 1 {
		return fmt.Errorf("loadgen: -conc must be ≥ 1")
	}
	if *format != "text" && *format != "bench" {
		return fmt.Errorf("loadgen: unknown format %q (text or bench)", *format)
	}
	ops := int(*rps * duration.Seconds())
	if ops < 1 {
		ops = 1
	}
	trace, err := sim.GenerateLoadTrace(sim.LoadConfig{
		Ops: ops, Nodes: *n, POpen: *p, Dist: *distName,
		PJob: *pJob, JobBatch: *jobBatch, Seed: *seed,
	})
	if err != nil {
		return err
	}
	c, err := newSDKClient(*addr, *hedgeAfter)
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("loadgen: %s not healthy: %w", *addr, err)
	}
	rep := loadgen.Replay(ctx, c, trace, *rps, *conc, *solverName)
	if *format == "bench" {
		writeBench(stdout, rep)
		return nil
	}
	writeText(stdout, rep, *addr, *rps, *duration, *seed, *n, *distName)
	return nil
}

// percentile returns the q-th percentile (0 < q ≤ 100) of sorted
// samples, by rank (ceil(q/100·len), the nearest-rank definition).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*q/100 + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// endpoints returns the recorded endpoint names, sorted.
func endpoints(r *loadgen.Report) []string {
	eps := make([]string, 0, len(r.Endpoints))
	for ep := range r.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	return eps
}

const msPerDuration = float64(time.Millisecond)

func writeText(out io.Writer, r *loadgen.Report, addr string, rps float64, d time.Duration, seed int64, n int, dist string) {
	fmt.Fprintf(out, "loadgen: target %.1f ops/s for %s against %s (seed %d, n=%d, dist %s)\n",
		rps, d, addr, seed, n, dist)
	total, totalErrs := 0, 0
	for _, ep := range endpoints(r) {
		s := r.Endpoints[ep]
		total += len(s.Durations) + s.Errors
		totalErrs += s.Errors
		sort.Slice(s.Durations, func(i, j int) bool { return s.Durations[i] < s.Durations[j] })
		fmt.Fprintf(out, "endpoint %-6s requests=%d errors=%d rps=%.1f p50=%.2fms p95=%.2fms p99=%.2fms\n",
			ep, len(s.Durations)+s.Errors, s.Errors,
			float64(len(s.Durations))/r.Elapsed.Seconds(),
			float64(percentile(s.Durations, 50))/msPerDuration,
			float64(percentile(s.Durations, 95))/msPerDuration,
			float64(percentile(s.Durations, 99))/msPerDuration)
	}
	fmt.Fprintf(out, "total: %d requests (%d ops), %d errors, sustained %.1f ops/s over %.2fs\n",
		total, r.Ops, totalErrs, float64(r.Ops)/r.Elapsed.Seconds(), r.Elapsed.Seconds())
}

// writeBench renders the report as `go test -bench`-style lines —
// mean latency as ns/op, percentiles and achieved rate as custom
// units — so `cmd/benchjson` parses it into the same artifact shape
// as the solver benchmarks and -compare gates the percentiles.
func writeBench(out io.Writer, r *loadgen.Report) {
	for _, ep := range endpoints(r) {
		s := r.Endpoints[ep]
		if len(s.Durations) == 0 {
			continue
		}
		sort.Slice(s.Durations, func(i, j int) bool { return s.Durations[i] < s.Durations[j] })
		var sum time.Duration
		for _, d := range s.Durations {
			sum += d
		}
		fmt.Fprintf(out, "BenchmarkLoadgen%s %d %d ns/op %.3f p50-ms %.3f p95-ms %.3f p99-ms %.1f rps\n",
			benchTitle(ep), len(s.Durations), int64(sum)/int64(len(s.Durations)),
			float64(percentile(s.Durations, 50))/msPerDuration,
			float64(percentile(s.Durations, 95))/msPerDuration,
			float64(percentile(s.Durations, 99))/msPerDuration,
			float64(len(s.Durations))/r.Elapsed.Seconds())
	}
}

// benchTitle upper-cases an endpoint name's first letter ("solve" →
// "Solve") for the benchmark-line name.
func benchTitle(ep string) string {
	if ep == "" {
		return ep
	}
	return string(ep[0]-'a'+'A') + ep[1:]
}
