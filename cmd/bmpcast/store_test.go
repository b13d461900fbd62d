package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/planstore"
	"repro/internal/platform"
	"repro/internal/wire"
)

// seedStore persists one solved fig1 plan into a fresh store directory
// — the same documents `bmpcast serve -store` would spill.
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := planstore.Open(planstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	req := engine.NewRequest(platform.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1}),
		engine.WithSolver("acyclic"), engine.WithTolerance(1e-9))
	reqDoc, err := wire.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	planDoc, err := wire.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	s.Persist(req, reqDoc, planDoc, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStoreStatsVerifyCompact(t *testing.T) {
	dir := seedStore(t)

	out, errOut, code := runCLI(t, "store", "stats", "-dir", dir)
	if code != 0 {
		t.Fatalf("stats exit %d: %s", code, errOut)
	}
	for _, want := range []string{"entries   1", "truncated 0", "skipped   0"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}

	out, errOut, code = runCLI(t, "store", "verify", "-dir", dir)
	if code != 0 {
		t.Fatalf("verify exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "verified 1 records") || !strings.Contains(out, "ok") {
		t.Errorf("verify output:\n%s", out)
	}

	out, errOut, code = runCLI(t, "store", "compact", "-dir", dir)
	if code != 0 {
		t.Fatalf("compact exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "compacted: 1 entries") || !strings.Contains(out, "(0 reclaimed)") {
		t.Errorf("compact output:\n%s", out)
	}
}

// TestStoreVerifyFailsOnCorruption: verify must exit non-zero and name
// the record when the log was tampered with (the record is skipped) or
// torn (the tail is truncated) — the CI health-check contract.
func TestStoreVerifyFailsOnCorruption(t *testing.T) {
	cases := []struct {
		name       string
		damage     func([]byte) []byte
		want, tail string
	}{
		{"flipped bit", func(data []byte) []byte {
			data[len(data)-2] ^= 0x40 // inside the plan document
			return data
		}, "plan checksum", " (skipped)"},
		{"torn tail", func(data []byte) []byte { return data[:len(data)-5] }, "truncated record", " bytes truncated)"},
	}
	for _, c := range cases {
		dir := seedStore(t)
		logPath := filepath.Join(dir, "plans.log")
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, c.damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
		out, errOut, code := runCLI(t, "store", "verify", "-dir", dir)
		if code == 0 || strings.HasSuffix(out, "ok\n") {
			t.Errorf("%s: verify exit %d:\n%s", c.name, code, out)
		}
		if !strings.Contains(out, "problem: offset 0: ") || !strings.Contains(out, c.want) ||
			!strings.Contains(out, c.tail) || !strings.Contains(errOut, "1 problem(s)") {
			t.Errorf("%s: verify output does not name the record:\n%s%s", c.name, out, errOut)
		}
	}
}

func TestStoreUsageErrors(t *testing.T) {
	if _, errOut, code := runCLI(t, "store"); code == 0 || !strings.Contains(errOut, "stats|compact|verify") {
		t.Errorf("bare store: code=%d stderr=%s", code, errOut)
	}
	if _, errOut, code := runCLI(t, "store", "stats"); code == 0 || !strings.Contains(errOut, "-dir is required") {
		t.Errorf("store stats without -dir: code=%d stderr=%s", code, errOut)
	}
	if _, errOut, code := runCLI(t, "store", "frobnicate", "-dir", t.TempDir()); code == 0 || !strings.Contains(errOut, "unknown operation") {
		t.Errorf("store frobnicate: code=%d stderr=%s", code, errOut)
	}
}
