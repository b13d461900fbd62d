package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/platform"
)

// every paper algorithm must be reachable by name.
var wantSolvers = []string{
	"acyclic", "acyclic-open", "acyclic-search",
	"cyclic-bound", "cyclic-open", "cyclic-pack",
	"depth", "exhaustive", "greedy", "oneport",
}

func TestDefaultRegistryNames(t *testing.T) {
	got := Names()
	if len(got) != len(wantSolvers) {
		t.Fatalf("Names() = %v, want %v", got, wantSolvers)
	}
	for i, n := range wantSolvers {
		if got[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], n, got)
		}
	}
}

func TestRegistryRejectsDuplicatesAndAnonymous(t *testing.T) {
	r := NewRegistry()
	s := NewSolver("x", 0, func(*platform.Instance, *core.Workspace) (Result, error) { return Result{}, nil })
	if err := r.Register(s); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := r.Register(s); err == nil {
		t.Fatal("duplicate Register accepted")
	}
	anon := NewSolver("", 0, func(*platform.Instance, *core.Workspace) (Result, error) { return Result{}, nil })
	if err := r.Register(anon); err == nil {
		t.Fatal("anonymous Register accepted")
	}
}

func TestGetUnknownListsKnown(t *testing.T) {
	_, err := Get("no-such-solver")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "acyclic") {
		t.Fatalf("error should list known solvers, got: %v", err)
	}
}

func TestCapabilityString(t *testing.T) {
	c := CapExact | CapHandlesGuarded
	if got := c.String(); got != "exact|handles-guarded" {
		t.Fatalf("String() = %q", got)
	}
	if got := Capability(0).String(); got != "none" {
		t.Fatalf("String() = %q", got)
	}
	if !c.Has(CapExact) || c.Has(CapCyclic) {
		t.Fatal("Has() misbehaves")
	}
}

func TestSelectCapabilityFiltering(t *testing.T) {
	for _, s := range Select(CapHandlesGuarded | CapBuildsScheme) {
		caps := s.Capabilities()
		if !caps.Has(CapHandlesGuarded) || !caps.Has(CapBuildsScheme) {
			t.Fatalf("solver %s selected without required caps (%s)", s.Name(), caps)
		}
	}
	names := func(ss []*Solver) []string {
		var ns []string
		for _, s := range ss {
			ns = append(ns, s.Name())
		}
		return ns
	}
	guardedBuilders := names(Select(CapHandlesGuarded | CapBuildsScheme))
	for _, want := range []string{"acyclic", "cyclic-pack", "depth", "exhaustive", "greedy"} {
		found := false
		for _, n := range guardedBuilders {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Select(handles-guarded|builds-scheme) = %v, missing %q", guardedBuilders, want)
		}
	}
	for _, n := range guardedBuilders {
		if n == "oneport" || n == "acyclic-open" || n == "cyclic-open" {
			t.Fatalf("open-only solver %q selected as handles-guarded", n)
		}
	}
}

// TestSolversOnFigure1 runs every registered solver on the paper's
// running example (T* = 4.4, T*_ac = 4) and cross-checks the uniform
// Result against the known optima. Open-only solvers must refuse the
// guarded instance.
func TestSolversOnFigure1(t *testing.T) {
	ins := generator.Figure1()
	ctx := context.Background()
	wantT := map[string]float64{
		"acyclic":        4,
		"acyclic-search": 4,
		"cyclic-bound":   4.4,
		"depth":          4,
		"exhaustive":     4,
	}
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(ctx, ins)
		if !s.Capabilities().Has(CapHandlesGuarded) {
			if err == nil {
				t.Fatalf("%s: open-only solver accepted a guarded instance", name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Solver != name {
			t.Fatalf("%s: Result.Solver = %q", name, res.Solver)
		}
		if want, ok := wantT[name]; ok && math.Abs(res.Throughput-want) > 1e-6 {
			t.Fatalf("%s: throughput %v, want %v", name, res.Throughput, want)
		}
		if s.Capabilities().Has(CapBuildsScheme) {
			if res.Scheme == nil {
				t.Fatalf("%s: builds-scheme solver returned nil scheme", name)
			}
			if err := res.Scheme.Validate(); err != nil {
				t.Fatalf("%s: invalid scheme: %v", name, err)
			}
			if res.Edges != res.Scheme.NumEdges() || res.MaxOutDegree != res.Scheme.MaxOutDegree() {
				t.Fatalf("%s: degree stats do not match scheme", name)
			}
			// An achieved throughput must be certified by max-flow.
			if flow := res.Scheme.Throughput(nil); flow < res.Throughput-1e-6 {
				t.Fatalf("%s: scheme max-flow %v below claimed throughput %v", name, flow, res.Throughput)
			}
			if !s.Capabilities().Has(CapCyclic) && !res.Scheme.IsAcyclic() {
				t.Fatalf("%s: acyclic solver produced a cyclic scheme", name)
			}
		} else if res.Scheme != nil {
			t.Fatalf("%s: bound-only solver returned a scheme", name)
		}
	}
}

// TestSolversOnOpenInstance exercises the open-only constructors.
func TestSolversOnOpenInstance(t *testing.T) {
	ins := platform.MustInstance(10, []float64{8, 6, 4, 2}, nil)
	ctx := context.Background()
	for _, name := range []string{"acyclic-open", "cyclic-open", "oneport"} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(ctx, ins)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Scheme == nil || res.Throughput <= 0 {
			t.Fatalf("%s: degenerate result %+v", name, res)
		}
		if err := res.Scheme.Validate(); err != nil {
			t.Fatalf("%s: invalid scheme: %v", name, err)
		}
	}
}

func TestSolveHonorsPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := Get("cyclic-bound")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(ctx, generator.Figure1()); err == nil {
		t.Fatal("Solve ignored a cancelled context")
	}
}
