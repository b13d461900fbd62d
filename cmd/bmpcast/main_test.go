package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
)

// writeFigure1 drops the paper's running example as a JSON instance
// file and returns its path.
func writeFigure1(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig1.json")
	data := `{"b0": 6, "open": [5, 5], "guarded": [4, 1, 1]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestSolveDefaultSolver(t *testing.T) {
	file := writeFigure1(t)
	out, errOut, code := runCLI(t, "solve", "-file", file)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"T*    = 4.400000", "solver acyclic", "T = 4.000000", "max outdegree"} {
		if !strings.Contains(out, want) {
			t.Errorf("solve output missing %q:\n%s", want, out)
		}
	}
}

func TestSolveWithRegistrySolver(t *testing.T) {
	file := writeFigure1(t)
	out, errOut, code := runCLI(t, "solve", "-file", file, "-solver", "greedy")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "solver greedy") {
		t.Errorf("expected greedy solver line:\n%s", out)
	}
}

func TestSolveUnknownSolverFails(t *testing.T) {
	file := writeFigure1(t)
	_, errOut, code := runCLI(t, "solve", "-file", file, "-solver", "nope")
	if code != 1 || !strings.Contains(errOut, "unknown solver") {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
}

func TestSolversListsRegistry(t *testing.T) {
	out, _, code := runCLI(t, "solvers")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"acyclic", "cyclic-bound", "exhaustive", "handles-guarded", "exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("solvers output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepSmall(t *testing.T) {
	out, errOut, code := runCLI(t, "sweep", "-count", "20", "-n", "12", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"sweep: 20 ×", "throughput/T*", "instances/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestGenerateEmitsJSON(t *testing.T) {
	out, errOut, code := runCLI(t, "generate", "-n", "10", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, `"b0"`) || !strings.Contains(out, `"open"`) {
		t.Errorf("generate output not an instance JSON:\n%s", out)
	}
}

func TestDemoFig1(t *testing.T) {
	out, errOut, code := runCLI(t, "demo", "fig1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "cyclic scheme at T = 4.400000") {
		t.Errorf("demo output missing cyclic section:\n%s", out)
	}
}

// simGoldenArgs are the exact flags the CI sim-smoke step replays; the
// committed golden file pins the timeline byte-for-byte.
var simGoldenArgs = []string{"sim", "-seed", "7", "-events", "24", "-n", "16", "-p", "0.7",
	"-solvers", "acyclic,cyclic-bound,greedy"}

func TestSimMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sim_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runCLI(t, simGoldenArgs...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if out != string(want) {
		t.Fatalf("sim timeline deviates from testdata/sim_golden.json — determinism broken "+
			"(or an intentional change: regenerate with `go run ./cmd/bmpcast %s > cmd/bmpcast/testdata/sim_golden.json`)",
			strings.Join(simGoldenArgs, " "))
	}
	// Determinism within the process too (warm pools must not bleed in).
	again, _, code := runCLI(t, simGoldenArgs...)
	if code != 0 || again != out {
		t.Fatal("second sim run differs from the first")
	}
}

func TestSimCSV(t *testing.T) {
	out, errOut, code := runCLI(t, "sim", "-seed", "3", "-events", "6", "-n", "10",
		"-solvers", "all", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.HasPrefix(out, "event,desc,n,m,b0,tstar,solver,") {
		t.Fatalf("missing CSV header:\n%.200s", out)
	}
	for _, solver := range []string{"acyclic", "cyclic-pack", "depth"} {
		if !strings.Contains(out, ","+solver+",") {
			t.Errorf("CSV missing churn-capable solver %s", solver)
		}
	}
}

func TestSimNoRepairSameThroughput(t *testing.T) {
	warm, _, code := runCLI(t, "sim", "-seed", "5", "-events", "8", "-n", "10", "-format", "csv")
	if code != 0 {
		t.Fatal("sim failed")
	}
	cold, _, code := runCLI(t, "sim", "-seed", "5", "-events", "8", "-n", "10", "-format", "csv", "-norepair")
	if code != 0 {
		t.Fatal("sim -norepair failed")
	}
	// Repair and full re-solve spend different eval counts and may
	// differ below the search bracket (≈1e-12 relative); the verified
	// throughput must agree within the repair contract's tolerance.
	wl, cl := strings.Split(warm, "\n"), strings.Split(cold, "\n")
	if len(wl) != len(cl) {
		t.Fatalf("row count differs: %d vs %d", len(wl), len(cl))
	}
	for i := range wl {
		if wl[i] == "" || i == 0 {
			continue
		}
		wf, cf := strings.Split(wl[i], ","), strings.Split(cl[i], ",")
		// Columns: ...,solver(6),throughput(7),ratio(8),verified(9),...
		if wf[6] != cf[6] {
			t.Fatalf("row %d: solver %q vs %q", i, wf[6], cf[6])
		}
		for _, col := range []int{7, 8, 9} {
			wv, err1 := strconv.ParseFloat(wf[col], 64)
			cv, err2 := strconv.ParseFloat(cf[col], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("row %d col %d: unparsable %q / %q", i, col, wf[col], cf[col])
			}
			if math.Abs(wv-cv) > 1e-9*math.Max(1, cv) {
				t.Fatalf("row %d col %d: repair %v vs full %v", i, col, wv, cv)
			}
		}
	}
}

func TestSimBadFlags(t *testing.T) {
	if _, errOut, code := runCLI(t, "sim", "-format", "xml"); code != 1 || !strings.Contains(errOut, "unknown format") {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if _, errOut, code := runCLI(t, "sim", "-dist", "nope"); code != 1 || !strings.Contains(errOut, "unknown distribution") {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if _, errOut, code := runCLI(t, "sim", "-solvers", "does-not-exist"); code != 1 || !strings.Contains(errOut, "unknown solver") {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
}

func TestSolveWireEmitsPlanDocument(t *testing.T) {
	file := writeFigure1(t)
	out, errOut, code := runCLI(t, "solve", "-file", file, "-wire")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	plan, err := wire.DecodePlan([]byte(out))
	if err != nil {
		t.Fatalf("solve -wire output is not a wire plan: %v\n%s", err, out)
	}
	if plan.Solver != "acyclic" || plan.TStar != 4.4 || len(plan.Trees) == 0 {
		t.Errorf("unexpected wire plan: %+v", plan)
	}
	again, _, _ := runCLI(t, "solve", "-file", file, "-wire")
	if again != out {
		t.Error("solve -wire output is not byte-stable")
	}
}

func TestSweepWireEmitsReport(t *testing.T) {
	out, errOut, code := runCLI(t, "sweep", "-count", "10", "-n", "10", "-seed", "7", "-wire")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var rep struct {
		V      int    `json:"v"`
		Count  int    `json:"count"`
		Solver string `json:"solver"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("sweep -wire output is not JSON: %v\n%s", err, out)
	}
	if rep.V != wire.Version || rep.Count != 10 || rep.Solver != "acyclic-search" {
		t.Errorf("unexpected sweep report: %s", out)
	}
	again, _, _ := runCLI(t, "sweep", "-count", "10", "-n", "10", "-seed", "7", "-wire")
	if again != out {
		t.Error("sweep -wire output is not byte-stable")
	}
}

// TestServeGolden pins the exact request and response documents the CI
// serve-smoke step replays with curl against a live `bmpcast serve`:
// POSTing testdata/solve_request.json must return
// testdata/serve_golden.json byte-for-byte.
func TestServeGolden(t *testing.T) {
	reqBody, err := os.ReadFile(filepath.Join("testdata", "solve_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	goldenPath := filepath.Join("testdata", "serve_golden.json")
	if *updateGolden {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(reqBody)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if err := os.WriteFile(goldenPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(reqBody)))
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		if _, err := io.Copy(&got, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, got.String())
		}
		if got.String() != string(want) {
			t.Fatalf("round %d: /v1/solve response deviates from testdata/serve_golden.json — wire determinism broken "+
				"(or an intentional change: regenerate by running `bmpcast serve` and curling testdata/solve_request.json)\ngot:\n%s",
				round, got.String())
		}
	}
}

// -update regenerates the serve, jobs-stream and batch golden files:
//
//	go test ./cmd/bmpcast -run 'ServeGolden|JobsStreamGolden|BatchGolden' -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestJobsStreamGolden pins the exact job request and concatenated
// NDJSON stream the CI serve-smoke step replays with curl against a
// live `bmpcast serve`: POSTing testdata/jobs_request.json and
// following /v1/jobs/{id}/stream to completion must yield
// testdata/jobs_stream_golden.ndjson byte-for-byte (per-item wire
// Plans in item order), and resubmitting the first item's request via
// /v1/solve must be answered from the plan cache.
func TestJobsStreamGolden(t *testing.T) {
	reqBody, err := os.ReadFile(filepath.Join("testdata", "jobs_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(reqBody)))
	if err != nil {
		t.Fatal(err)
	}
	submit, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, submit)
	}
	var doc struct {
		Job   string `json:"job"`
		Items int    `json:"items"`
	}
	if err := json.Unmarshal(submit, &doc); err != nil || doc.Job == "" || doc.Items != 3 {
		t.Fatalf("submit response: %s", submit)
	}

	// The stream follows the job live and ends when every item landed.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + doc.Job + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, got)
	}

	goldenPath := filepath.Join("testdata", "jobs_stream_golden.ndjson")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with `go test ./cmd/bmpcast -run JobsStreamGolden -update`)", err)
		}
		if string(got) != string(want) {
			t.Fatalf("job stream deviates from %s — wire determinism broken "+
				"(or an intentional change: regenerate with -update)\ngot:\n%s\nwant:\n%s", goldenPath, got, want)
		}
	}

	// Item 0's request is exactly testdata/solve_request.json: the job
	// populated the cache, so resubmitting it via /v1/solve is a hit.
	solveBody, err := os.ReadFile(filepath.Join("testdata", "solve_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(solveBody)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("X-Bmpcast-Cache"); h != "hit" {
		t.Errorf("resubmitted solve X-Bmpcast-Cache = %q, want hit", h)
	}
}

// TestBatchGolden pins the exact /v1/batch answer the CI serve-smoke
// step replays with curl against a live `bmpcast serve`: POSTing
// testdata/jobs_request.json to /v1/batch must return
// testdata/batch_golden.json byte-for-byte, on a miss and on a hit.
func TestBatchGolden(t *testing.T) {
	reqBody, err := os.ReadFile(filepath.Join("testdata", "jobs_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	post := func() string {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(reqBody)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return string(body)
	}
	goldenPath := filepath.Join("testdata", "batch_golden.json")
	got := post()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./cmd/bmpcast -run BatchGolden -update`)", err)
	}
	// Round 0 solves every item; round 1 is answered from the cache.
	for round, body := range []string{got, post()} {
		if body != string(want) {
			t.Fatalf("round %d: /v1/batch answer deviates from %s — wire determinism broken "+
				"(or an intentional change: regenerate with -update)\ngot:\n%s\nwant:\n%s", round, goldenPath, body, want)
		}
	}
}

// startDaemon spins the real service handler on a loopback listener
// and returns its base URL — the daemon `-remote` routes through.
func startDaemon(t *testing.T) string {
	t.Helper()
	svc := service.New(service.Config{Workers: 4})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts.URL
}

// TestSolveRemoteMatchesLocal is the acceptance check: `solve -wire
// -remote` against a live daemon produces output byte-identical to the
// local `solve -wire` for the same instance and solver — including
// solvers that build no (or a cyclic) scheme.
func TestSolveRemoteMatchesLocal(t *testing.T) {
	url := startDaemon(t)
	file := writeFigure1(t)
	for _, solver := range []string{"acyclic", "greedy", "cyclic-bound", "cyclic-pack"} {
		local, errLocal, code := runCLI(t, "solve", "-file", file, "-solver", solver, "-wire")
		if code != 0 {
			t.Fatalf("%s local: exit %d, stderr: %s", solver, code, errLocal)
		}
		remote, errRemote, code := runCLI(t, "solve", "-file", file, "-solver", solver, "-wire", "-remote", url)
		if code != 0 {
			t.Fatalf("%s remote: exit %d, stderr: %s", solver, code, errRemote)
		}
		if remote != local {
			t.Errorf("%s: remote output differs from local:\n--- local ---\n%s--- remote ---\n%s", solver, local, remote)
		}
	}
}

func TestSolveRemoteRequiresWire(t *testing.T) {
	file := writeFigure1(t)
	_, errOut, code := runCLI(t, "solve", "-file", file, "-remote", "http://127.0.0.1:1")
	if code != 1 || !strings.Contains(errOut, "-remote requires -wire") {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
}

func TestSolveRemoteSurfacesTypedErrors(t *testing.T) {
	url := startDaemon(t)
	file := writeFigure1(t)
	_, errOut, code := runCLI(t, "solve", "-file", file, "-solver", "nope", "-wire", "-remote", url)
	if code != 1 || !strings.Contains(errOut, "unknown solver") {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
}

// TestSweepRemoteMatchesLocalWire: the async-job sweep produces the
// same wire report as the local batch runner for the same seed.
func TestSweepRemoteMatchesLocalWire(t *testing.T) {
	url := startDaemon(t)
	local, errLocal, code := runCLI(t, "sweep", "-count", "12", "-n", "10", "-seed", "7", "-wire")
	if code != 0 {
		t.Fatalf("local: exit %d, stderr: %s", code, errLocal)
	}
	remote, errRemote, code := runCLI(t, "sweep", "-count", "12", "-n", "10", "-seed", "7", "-wire", "-remote", url)
	if code != 0 {
		t.Fatalf("remote: exit %d, stderr: %s", code, errRemote)
	}
	if remote != local {
		t.Errorf("remote sweep report differs from local:\n--- local ---\n%s--- remote ---\n%s", local, remote)
	}
}

func TestSweepRemoteText(t *testing.T) {
	url := startDaemon(t)
	out, errOut, code := runCLI(t, "sweep", "-count", "8", "-n", "10", "-seed", "3", "-remote", url)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"sweep: 8 ×", "job j", "throughput/T*", "streamed"} {
		if !strings.Contains(out, want) {
			t.Errorf("remote sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownSubcommand(t *testing.T) {
	_, errOut, code := runCLI(t, "frobnicate")
	if code != 2 || !strings.Contains(errOut, "unknown subcommand") {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
}
