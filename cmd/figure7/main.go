// Command figure7 regenerates the Figure 7 surface: the worst-case ratio
// between the optimal acyclic and optimal cyclic throughput on tight
// homogeneous instances, for n and m up to 100. The grid is solved on
// the engine's parallel batch runner.
//
// Output is CSV (n,m,ratio) on stdout plus a short summary on stderr.
//
// Usage:
//
//	figure7 [-maxn 100] [-maxm 100] [-stride 1] [-deltas 11]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figure7", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxN := fs.Int("maxn", 100, "largest number of open nodes")
	maxM := fs.Int("maxm", 100, "largest number of guarded nodes")
	stride := fs.Int("stride", 1, "grid stride")
	deltas := fs.Int("deltas", 11, "Δ samples per cell (tight homogeneous family parameter)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cells, err := experiments.Figure7(context.Background(), *maxN, *maxM, *stride, *deltas)
	if err != nil {
		fmt.Fprintln(stderr, "figure7:", err)
		return 1
	}
	if len(cells) == 0 {
		fmt.Fprintf(stderr, "figure7: empty grid (maxn=%d, maxm=%d)\n", *maxN, *maxM)
		return 1
	}
	fmt.Fprint(stdout, experiments.Figure7CSV(cells))

	worst := cells[0]
	var valley experiments.Figure7Cell
	for _, c := range cells {
		if c.Ratio < worst.Ratio {
			worst = c
		}
		// Track the asymptotic valley m ≈ 0.425·n at the largest n.
		if c.N == cells[len(cells)-1].N && (valley.N == 0 || c.Ratio < valley.Ratio) {
			valley = c
		}
	}
	fmt.Fprintf(stderr, "cells: %d; global worst ratio %.4f at (n=%d, m=%d); ", len(cells), worst.Ratio, worst.N, worst.M)
	fmt.Fprintf(stderr, "worst at n=%d: %.4f (m=%d); paper: floor 5/7 ≈ 0.7143, valley ≈ 0.925 near m ≈ 0.425·n\n",
		valley.N, valley.Ratio, valley.M)
	return 0
}
