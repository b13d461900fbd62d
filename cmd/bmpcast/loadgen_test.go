package main

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
)

// TestLoadgenAgainstLiveService drives the whole loadgen path — trace
// generation, SDK replay of mixed solve/job/stream traffic, percentile
// report — against an in-process service, the same assertion shape as
// the CI loadgen-smoke job: report parses, zero errors everywhere.
func TestLoadgenAgainstLiveService(t *testing.T) {
	svc := service.New(service.Config{Workers: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	var out strings.Builder
	code := run([]string{"loadgen", "-addr", ts.URL, "-rps", "200", "-duration", "500ms",
		"-n", "10", "-seed", "1", "-pjob", "0.3", "-jobbatch", "3"}, &out, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	got := out.String()
	for _, ep := range []string{"solve", "jobs", "stream"} {
		re := regexp.MustCompile(`endpoint ` + ep + `\s+requests=[1-9]\d* errors=0 rps=[\d.]+ p50=[\d.]+ms p95=[\d.]+ms p99=[\d.]+ms`)
		if !re.MatchString(got) {
			t.Errorf("no well-formed zero-error %s line in report:\n%s", ep, got)
		}
	}
	if !regexp.MustCompile(` 0 errors, sustained [\d.]+ ops/s `).MatchString(got) {
		t.Errorf("total line missing or has errors:\n%s", got)
	}
}

// TestLoadgenTextReportsOpRate: -rps paces ops, and a job op makes two
// requests, so the total line's sustained rate divides ops, not
// requests, by the elapsed time.
func TestLoadgenTextReportsOpRate(t *testing.T) {
	durations := func(k int) []time.Duration { return make([]time.Duration, k) }
	r := &loadgen.Report{
		Endpoints: map[string]*loadgen.Endpoint{
			"solve":  {Durations: durations(70)},
			"jobs":   {Durations: durations(30)},
			"stream": {Durations: durations(30)},
		},
		Ops:     100,
		Elapsed: 10 * time.Second,
	}
	var out strings.Builder
	writeText(&out, r, "http://h", 10, 10*time.Second, 1, 24, "Unif100")
	want := "total: 130 requests (100 ops), 0 errors, sustained 10.0 ops/s over 10.00s\n"
	if !strings.HasSuffix(out.String(), want) {
		t.Fatalf("report ends\n%s\nwant total line %q", out.String(), want)
	}
}

// TestLoadgenBenchFormat: -format bench emits go-bench-style lines
// with the percentile metrics cmd/benchjson parses and gates.
func TestLoadgenBenchFormat(t *testing.T) {
	svc := service.New(service.Config{Workers: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	var out strings.Builder
	code := run([]string{"loadgen", "-addr", ts.URL, "-rps", "200", "-duration", "300ms",
		"-n", "10", "-seed", "2", "-pjob", "0.3", "-format", "bench"}, &out, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	re := regexp.MustCompile(`^BenchmarkLoadgen(Solve|Jobs|Stream) [1-9]\d* \d+ ns/op [\d.]+ p50-ms [\d.]+ p95-ms [\d.]+ p99-ms [\d.]+ rps$`)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("want ≥ 3 bench lines, got:\n%s", out.String())
	}
	for _, line := range lines {
		if !re.MatchString(line) {
			t.Errorf("malformed bench line: %q", line)
		}
	}
}

// TestLoadgenBadFlags covers the flag validation and the
// unreachable-daemon path.
func TestLoadgenBadFlags(t *testing.T) {
	cases := [][]string{
		{"loadgen"}, // -addr missing
		{"loadgen", "-addr", "http://127.0.0.1:1", "-rps", "0"},
		{"loadgen", "-addr", "http://127.0.0.1:1", "-duration", "0s"},
		{"loadgen", "-addr", "http://127.0.0.1:1", "-conc", "0"},
		{"loadgen", "-addr", "http://127.0.0.1:1", "-format", "xml"},
		{"loadgen", "-addr", "http://127.0.0.1:1", "-duration", "100ms", "-rps", "10"}, // nothing listening
	}
	for _, args := range cases {
		var out strings.Builder
		if code := run(args, &out, &out); code == 0 {
			t.Errorf("%v: exit 0, want failure", args)
		}
	}
}
