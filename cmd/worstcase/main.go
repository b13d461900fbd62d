// Command worstcase demonstrates the extremal results of Section VI:
//
//   - the tight 5/7 instance of Theorem 6.2 (ε = 1/14),
//   - the I(α, k) family of Theorem 6.3 whose acyclic/cyclic ratio stays
//     near (1+√41)/8 ≈ 0.925 at every scale,
//   - and, with -exhaustive, a brute-force scan over small tight
//     homogeneous instances confirming that nothing dips below 5/7.
//
// Usage:
//
//	worstcase [-exhaustive] [-maxnodes 9]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/generator"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("worstcase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exhaustive := fs.Bool("exhaustive", false, "also brute-force all small tight homogeneous instances")
	maxNodes := fs.Int("maxnodes", 9, "n+m cap for the exhaustive scan")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	report, err := experiments.WorstCaseReport()
	if err != nil {
		fmt.Fprintln(stderr, "worstcase:", err)
		return 1
	}
	fmt.Fprint(stdout, report)

	if !*exhaustive {
		return 0
	}
	fmt.Fprintf(stdout, "\nExhaustive scan of tight homogeneous instances with n+m ≤ %d (Δ in 0..n):\n", *maxNodes)
	worst := 1.0
	worstDesc := ""
	ws := core.NewWorkspace() // one workspace for the whole scan
	for n := 1; n <= *maxNodes; n++ {
		for m := 0; m+n <= *maxNodes; m++ {
			for d := 0; d <= n; d++ {
				ins, err := generator.TightHomogeneous(n, m, float64(d))
				if err != nil {
					fmt.Fprintln(stderr, "worstcase:", err)
					return 1
				}
				tac, _, err := core.ExhaustiveAcyclicOptimumFloat(ins, ws)
				if err != nil {
					fmt.Fprintln(stderr, "worstcase:", err)
					return 1
				}
				if tac < worst {
					worst = tac
					worstDesc = fmt.Sprintf("n=%d m=%d Δ=%d", n, m, d)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "  worst exhaustive ratio: %.6f at %s (5/7 = %.6f)\n", worst, worstDesc, core.WorstCaseRatio)
	return 0
}
