// Command benchjson converts `go test -bench -benchmem` text output
// into a JSON document, so CI can upload benchmark runs as machine-
// readable artifacts (BENCH_*.json) and the performance trajectory can
// be tracked across PRs — and compares two such documents, failing on
// regressions, so CI can gate on the committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchjson > BENCH.json
//	go run ./cmd/benchjson -compare BENCH_baseline.json BENCH_new.json [-tolerance 25] [-tolerance-for BenchmarkX=40]
//
// In convert mode, lines that are not benchmark results (goos/goarch/
// cpu headers, PASS, package summaries) populate the metadata section
// or are skipped. The `-N` GOMAXPROCS suffix Go appends to benchmark
// names is parsed into the separate "cpus" field, so the "name" key is
// stable across -cpu matrix runs and directly comparable.
//
// In compare mode the exit status is 1 when any benchmark present in
// the old document regresses by more than the tolerance (percent, on
// ns/op or allocs/op) or is missing from the new document. The global
// tolerance defaults to 25%; noisier benchmarks get their own slack
// via repeatable -tolerance-for NAME=PCT overrides (matched on the
// stable benchmark name, before any -N CPU suffix), so one jittery
// macro-benchmark does not force a loose gate on everything else.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	CPUs        int                `json:"cpus,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the artifact shape.
type Doc struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Pkg     []string `json:"packages,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	compareMode := flag.Bool("compare", false, "compare two benchmark JSON files (old new) and exit 1 on regression")
	tolerance := flag.Float64("tolerance", 25, "regression tolerance in percent (ns/op and allocs/op)")
	overrides := make(map[string]float64)
	flag.Func("tolerance-for", "per-benchmark tolerance override `NAME=PCT` (repeatable; NAME is the stable name without the -N CPU suffix)", func(s string) error {
		name, pct, ok := strings.Cut(s, "=")
		if !ok || name == "" {
			return fmt.Errorf("want NAME=PCT, got %q", s)
		}
		v, err := strconv.ParseFloat(pct, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("bad percentage in %q", s)
		}
		overrides[name] = v
		return nil
	})
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *tolerance, overrides, os.Stdout, os.Stderr))
	}

	doc, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Parse reads `go test -bench` output and collects benchmark results
// and run metadata. Repeated samples of the same benchmark (from
// `-count N`) are merged keeping the per-metric minimum — the
// noise-robust statistic for timing (the fastest run is the least
// scheduler-disturbed one), and a no-op for the deterministic alloc
// counters — so the regression gate compares best-of-N against
// best-of-N instead of single noisy samples.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	index := make(map[string]int) // resultKey → position in doc.Results
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = append(doc.Pkg, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if !ok {
				break
			}
			if at, dup := index[resultKey(res)]; dup {
				doc.Results[at] = mergeMin(doc.Results[at], res)
			} else {
				index[resultKey(res)] = len(doc.Results)
				doc.Results = append(doc.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// mergeMin folds a repeated sample into the kept result, metric-wise
// minimum (iterations keep the maximum, purely informational).
func mergeMin(a, b Result) Result {
	if b.Iterations > a.Iterations {
		a.Iterations = b.Iterations
	}
	if b.NsPerOp < a.NsPerOp {
		a.NsPerOp = b.NsPerOp
	}
	if b.BytesPerOp < a.BytesPerOp {
		a.BytesPerOp = b.BytesPerOp
	}
	if b.AllocsPerOp < a.AllocsPerOp {
		a.AllocsPerOp = b.AllocsPerOp
	}
	for unit, v := range b.Metrics {
		if cur, ok := a.Metrics[unit]; !ok || v < cur {
			if a.Metrics == nil {
				a.Metrics = make(map[string]float64)
			}
			a.Metrics[unit] = v
		}
	}
	return a
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkX-8  50  1158646 ns/op  64 B/op  2 allocs/op  3.0 depth
//
// Unit-suffixed value pairs beyond the iteration count land in Metrics
// unless they are the three standard units.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name, cpus := splitCPUSuffix(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: name, CPUs: cpus, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
		case "B/op":
			res.BytesPerOp = int64(val)
		case "allocs/op":
			res.AllocsPerOp = int64(val)
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = val
		}
	}
	return res, res.NsPerOp > 0
}

// splitCPUSuffix separates the `-N` GOMAXPROCS suffix the testing
// package appends to benchmark names (only when running on more than
// one CPU) into a stable name and the CPU count, so the same benchmark
// produces the same "name" key across -cpu matrix runs. cpus is 0 when
// no suffix is present (a single-CPU run). Top-level benchmark names
// cannot contain '-' (they are Go identifiers), so a trailing integer
// segment is unambiguous there; for sub-benchmarks whose last segment
// itself ends in "-<int>" the suffix is still the final one Go
// appended whenever GOMAXPROCS > 1.
func splitCPUSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return name, 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 0
	}
	return name[:i], n
}
