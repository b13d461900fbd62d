// Package loadgen replays a seeded sim.LoadTrace against a live
// service through the client SDK, open-loop at a target rate: the one
// paced replayer behind `bmpcast loadgen`, which reports its latency
// samples, and the soak harness, which counts its ops and failures.
package loadgen

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/client"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/sim"
)

// Endpoint holds one endpoint's samples: the latency of every call
// that succeeded and the count of calls that failed.
type Endpoint struct {
	Durations []time.Duration
	Errors    int
}

// Report is the outcome of one Replay. Endpoints are keyed "solve"
// (sync round trip), "jobs" (submit round trip) and "stream" (a job's
// NDJSON stream drained to EOF).
type Report struct {
	Endpoints map[string]*Endpoint
	Ops       int           // ops run to their end, failed or not
	Failed    int           // ops that failed while ctx was live
	Elapsed   time.Duration // from the first op's due time to the last op's end

	mu sync.Mutex
}

// Replay plays trace open-loop at rps: op i is due at start + i/rps and
// runs on its own goroutine, at most conc at once (beyond that the
// pacer blocks, so the sustained rate shows the backpressure instead
// of hiding it behind an unbounded queue). Every request names solver.
// Once ctx ends the pacer dispatches nothing more; Replay returns when
// every dispatched op has ended, and a failure seen after ctx ended is
// not counted.
func Replay(ctx context.Context, c *client.Client, trace *sim.LoadTrace, rps float64, conc int, solver string) *Report {
	rep := &Report{Endpoints: make(map[string]*Endpoint)}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rps)
	start := time.Now()
	for i := range trace.Ops {
		if chaos.Sleep(ctx, time.Until(start.Add(time.Duration(i)*interval))) != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		op := &trace.Ops[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rep.run(ctx, c, op, solver)
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}

// run plays one op and records each of its wire calls under its
// endpoint; a job's item that carries a solver error fails the stream.
func (r *Report) run(ctx context.Context, c *client.Client, op *sim.LoadOp, solver string) {
	reqs := make([]client.Request, len(op.Instances))
	for i, ins := range op.Instances {
		reqs[i] = engine.NewRequest(ins, engine.WithSolver(solver))
	}
	t0 := time.Now()
	var err error
	switch op.Kind {
	case sim.LoadSolve:
		_, err = c.Solve(ctx, reqs[0])
		r.record(ctx, "solve", t0, err)
	case sim.LoadJob:
		var job *client.Job
		job, err = c.Submit(ctx, reqs)
		r.record(ctx, "jobs", t0, err)
		if err == nil {
			t1 := time.Now()
			err = drain(ctx, job)
			r.record(ctx, "stream", t1, err)
		}
	}
	r.mu.Lock()
	r.Ops++
	if err != nil && ctx.Err() == nil {
		r.Failed++
	}
	r.mu.Unlock()
}

// record adds one call's sample; a failure after ctx ended is dropped.
func (r *Report) record(ctx context.Context, ep string, t0 time.Time, err error) {
	d := time.Since(t0)
	if err != nil && ctx.Err() != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.Endpoints[ep]
	if e == nil {
		e = &Endpoint{}
		r.Endpoints[ep] = e
	}
	if err != nil {
		e.Errors++
		return
	}
	e.Durations = append(e.Durations, d)
}

// drain reads a job's NDJSON stream to EOF.
func drain(ctx context.Context, job *client.Job) error {
	stream, err := job.Stream(ctx, 0)
	if err != nil {
		return err
	}
	defer stream.Close()
	for {
		item, err := stream.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if item.Err != nil {
			return item.Err
		}
	}
}
