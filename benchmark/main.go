// Command bmpbench is the repository benchmark. It runs one workload
// against the bmpcast program built from the same checkout and prints
// one JSON result line:
//
//	bmpbench -bin <bmpcast> -work <dir> --workload cold --seed 1 --seconds 10 --trace 0
//
// run.sh builds both binaries and calls it. Three workloads (cold,
// repeat, sweep) drive a fresh `bmpcast serve` daemon through the
// exported client SDK; large calls the engine in process. Every run
// sends one op list drawn from --seed, in order, from a single client in
// a closed loop, and ends when the list ends, so two commits do
// identical work. The list holds --seconds × the workload's op rate
// ops. Untraced runs (--trace 0) report the gated end-to-end metrics;
// a traced run (--trace 1) replays every op in process with one span
// per layer call and reports the per-layer metrics. See WORKLOADS.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner and its op rate: the
// op list holds rate × --seconds ops, about --seconds of work on a
// 2-vCPU host.
var workloads = map[string]struct {
	run  func(*bench) error
	rate float64
}{
	"cold":   {runCold, 280},
	"repeat": {runRepeat, 1200},
	"sweep":  {runSweep, 230},
	"large":  {runLarge, 30},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold, repeat, sweep or large")
	seed := fs.Int64("seed", 1, "seed of the op list")
	seconds := fs.Int("seconds", 10, "run length: the op list holds seconds × the workload's op rate ops")
	trace := fs.Int("trace", 0, "1 for a traced run that reports per-layer metrics")
	bin := fs.String("bin", "", "bmpcast binary built from this checkout")
	work := fs.String("work", "", "directory for plan stores, label records and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" {
		fmt.Fprintf(stderr, "bmpbench: need -bin, -work, --workload (cold|repeat|sweep|large), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bmpbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		workload: *name, seed: *seed, traced: *trace == 1, bin: *bin, work: *work, dir: dir,
		ops:   max(1, int(w.rate*float64(*seconds))),
		codes: make(map[string]int),
		cal:   newCalibrator(),
	}
	if b.traced {
		b.rec = NewRecorder()
	}
	runErr := w.run(b)
	if b.traced {
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := b.rec.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "bmpbench: writing spans: %v\n", err)
		}
	}
	b.summary(stderr)
	if runErr != nil {
		var ce *CheckError
		if errors.As(runErr, &ce) {
			fmt.Fprintf(stderr, "bmpbench: FAILED CHECK workload %s seed %d: %v\n", *name, *seed, runErr)
		} else {
			fmt.Fprintf(stderr, "bmpbench: workload %s seed %d: %v\n", *name, *seed, runErr)
		}
		return 1
	}
	metrics := b.e2e
	if b.traced {
		metrics = b.layer
	}
	out, err := json.Marshal(result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "bmpbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// opError attributes a failed check or guard to one op.
func opError(op int, err error) error {
	var ce *CheckError
	if errors.As(err, &ce) {
		return &CheckError{Check: ce.Check, Detail: fmt.Sprintf("op %d: %s", op, ce.Detail)}
	}
	return fmt.Errorf("op %d: %w", op, err)
}

// summary prints a human-readable account of the run to w.
func (b *bench) summary(w io.Writer) {
	fmt.Fprintf(w, "bmpbench: workload=%s seed=%d traced=%v ops=%d attempted=%d failed=%d checked=%d\n",
		b.workload, b.seed, b.traced, b.ops, b.attempted, b.failed, b.checked)
	if p := b.phase; p != nil {
		fmt.Fprintf(w, "bmpbench: timed phase %.2fs wall, program CPU %.2fs, host steal %.1f%%\n",
			p.wall.Seconds(), p.cpu.Seconds(), p.steal)
		fmt.Fprintf(w, "bmpbench: calibration slice %v in the timed phase (scale %.4f, %d samples), %v in set-up (scale %.4f)\n",
			trimmedMean(b.phaseCal), scale(b.phaseCal), len(b.phaseCal), trimmedMean(b.setupCal), scale(b.setupCal))
	}
	if len(b.setups) > 0 {
		fmt.Fprintf(w, "bmpbench: set-up CPU of each set-up (s, unscaled): %.4f\n", b.setups)
	}
	if len(b.codes) > 0 {
		fmt.Fprintf(w, "bmpbench: failed ops by code: %v\n", b.codes)
	}
	if len(b.labels) > 0 {
		fmt.Fprintf(w, "bmpbench: labels: %v\n", b.labels)
	}
	for _, m := range []map[string]metric{b.e2e, b.layer} {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "bmpbench:   %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
		}
	}
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median of float values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
