// Command avgcase regenerates the Figure 19 average-case study (Appendix
// XII): the ratio between acyclic and optimal cyclic throughput on
// random tight instances, across the six bandwidth distributions,
// open-node probabilities p ∈ {0.1, 0.5, 0.7, 0.9} and platform sizes
// n ∈ {10, 100, 1000}.
//
// Three series are reported per panel point, matching the paper's plot:
// the optimal acyclic ratio (boxplots), the best of the canonical words
// ω1/ω2 (blue line) and the single word chosen by the Theorem 6.2 case
// analysis (red line).
//
// Usage:
//
//	avgcase [-reps 1000] [-sizes 10,100,1000] [-dists LN1,Unif100] [-seed 2014] [-csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avgcase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	reps := fs.Int("reps", 1000, "random instances per (distribution, p, n) cell")
	sizes := fs.String("sizes", "10,100,1000", "comma-separated platform sizes")
	dists := fs.String("dists", "", "comma-separated distribution names (default: all six paper scenarios)")
	probs := fs.String("probs", "", "comma-separated open-node probabilities (default: 0.1,0.5,0.7,0.9)")
	seed := fs.Int64("seed", 2014, "base RNG seed")
	csv := fs.Bool("csv", false, "emit raw CSV instead of the formatted table")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := experiments.DefaultAvgCaseConfig()
	cfg.Reps = *reps
	cfg.Seed = *seed
	cfg.Sizes = nil
	for _, tok := range strings.Split(*sizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 2 {
			fmt.Fprintf(stderr, "avgcase: bad size %q\n", tok)
			return 2
		}
		cfg.Sizes = append(cfg.Sizes, v)
	}
	if *dists != "" {
		cfg.Distributions = nil
		for _, tok := range strings.Split(*dists, ",") {
			d, err := repro.DistributionByName(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintln(stderr, "avgcase:", err)
				return 2
			}
			cfg.Distributions = append(cfg.Distributions, d)
		}
	}
	if *probs != "" {
		cfg.OpenProbs = nil
		for _, tok := range strings.Split(*probs, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || v < 0 || v > 1 {
				fmt.Fprintf(stderr, "avgcase: bad probability %q\n", tok)
				return 2
			}
			cfg.OpenProbs = append(cfg.OpenProbs, v)
		}
	}

	cells, err := experiments.AverageCase(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "avgcase:", err)
		return 1
	}
	if *csv {
		fmt.Fprint(stdout, experiments.AvgCaseCSV(cells))
		return 0
	}
	fmt.Fprintf(stdout, "%-8s %-4s %-6s | %-28s | %-10s | %-10s\n",
		"dist", "p", "n", "optimal acyclic ratio", "best ω1/ω2", "thm word")
	fmt.Fprintf(stdout, "%-8s %-4s %-6s | %-28s | %-10s | %-10s\n",
		"", "", "", "mean   med    p2.5   min", "mean", "mean")
	for _, c := range cells {
		fmt.Fprintf(stdout, "%-8s %-4.1f %-6d | %.4f %.4f %.4f %.4f | %-10.4f | %-10.4f\n",
			c.Dist, c.P, c.N,
			c.OptAcyclic.Mean, c.OptAcyclic.Median, c.OptAcyclic.P025, c.OptAcyclic.Min,
			c.BestOmega.Mean, c.TheoremWord.Mean)
	}
	return 0
}
