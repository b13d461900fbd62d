package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/platform"
)

// BatchOptions tunes the parallel sweep runner.
type BatchOptions struct {
	// Workers is the pool size; ≤ 0 means GOMAXPROCS.
	Workers int
}

// Batch solves every instance with the solver on a shared worker pool
// and returns results in input order: results[i] always corresponds to
// instances[i], whatever the completion interleaving, so a parallel
// sweep is a drop-in replacement for the serial loop. The first solver
// error (lowest instance index) aborts the sweep; cancelling ctx stops
// workers from picking up new instances and returns ctx.Err().
func Batch(ctx context.Context, s Solver, instances []*platform.Instance, opts BatchOptions) ([]Result, error) {
	results := make([]Result, len(instances))
	err := ForEach(ctx, len(instances), opts.Workers, func(ctx context.Context, i int) error {
		res, err := s.Solve(ctx, instances[i])
		if err != nil {
			return fmt.Errorf("engine: instance %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// BatchByName is Batch with the solver resolved from the Default
// registry.
func BatchByName(ctx context.Context, solver string, instances []*platform.Instance, opts BatchOptions) ([]Result, error) {
	s, err := Get(solver)
	if err != nil {
		return nil, err
	}
	return Batch(ctx, s, instances, opts)
}

// ForEach runs fn(ctx, i) for i in [0, n) on a worker pool. It is the
// engine's generic sweep primitive: Batch, the Figure 7 grid, the
// Figure 19 repetition loops and the service's batch and job items all
// run through it. Guarantees:
//
//   - workers ≤ max(1, min(workers, n)), defaulting to GOMAXPROCS;
//   - indexes are claimed in order, so early indexes start first and
//     callers can fill index-addressed slices with no further locking;
//   - the first fn error cancels the pool's context and wins (lowest
//     index among recorded errors);
//   - cancelling ctx stops workers before their next claim and ForEach
//     returns ctx.Err().
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || pctx.Err() != nil {
					return
				}
				if err := fn(pctx, i); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	// A worker can lose the race with cancel() and record a wrapped
	// context.Canceled for a later index; the causing error must win.
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return err
	}
	return firstCancel
}
