package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/client"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestReplayCountsEveryOp replays a small mixed trace against a live
// service: every op runs once, each solve is one "solve" sample and
// each job one "jobs" and one "stream" sample, and nothing fails.
func TestReplayCountsEveryOp(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	trace, err := sim.GenerateLoadTrace(sim.LoadConfig{Ops: 12, Nodes: 8, PJob: 0.5, JobBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, op := range trace.Ops {
		if op.Kind == sim.LoadJob {
			want["jobs"]++
			want["stream"]++
		} else {
			want["solve"]++
		}
	}
	if want["solve"] == 0 || want["jobs"] == 0 {
		t.Fatalf("trace lacks a kind: %v", want)
	}

	rep := Replay(context.Background(), client.New(ts.URL), trace, 500, 4, "acyclic")
	if rep.Ops != len(trace.Ops) || rep.Failed != 0 {
		t.Fatalf("ops=%d failed=%d, want %d and 0", rep.Ops, rep.Failed, len(trace.Ops))
	}
	if len(rep.Endpoints) != len(want) {
		t.Fatalf("endpoints %v, want %v", rep.Endpoints, want)
	}
	for ep, n := range want {
		e := rep.Endpoints[ep]
		if e == nil || len(e.Durations) != n || e.Errors != 0 {
			t.Errorf("endpoint %s: %+v, want %d samples and no errors", ep, e, n)
		}
	}
	if rep.Elapsed <= 0 {
		t.Errorf("elapsed %v", rep.Elapsed)
	}
}

// TestReplayStopsAtContextEnd replays against a daemon that never
// answers: once ctx ends the pacer dispatches no further op, the ops in
// flight end, and the failures the cancellation caused are not counted.
func TestReplayStopsAtContextEnd(t *testing.T) {
	hang := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	}))
	defer ts.Close()
	defer close(hang)
	trace, err := sim.GenerateLoadTrace(sim.LoadConfig{Ops: 100, Nodes: 8, PJob: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	// 50 ops a second: the trace would take two seconds to dispatch.
	rep := Replay(ctx, client.New(ts.URL), trace, 50, 4, "acyclic")
	if rep.Ops == 0 || rep.Ops >= len(trace.Ops) {
		t.Fatalf("ops=%d, want some but not all %d dispatched", rep.Ops, len(trace.Ops))
	}
	if rep.Failed != 0 {
		t.Errorf("failed=%d, want the cancellation's failures uncounted", rep.Failed)
	}
	for ep, e := range rep.Endpoints {
		if e.Errors != 0 || len(e.Durations) != 0 {
			t.Errorf("endpoint %s recorded %+v against a daemon that never answered", ep, e)
		}
	}
	if rep.Elapsed > time.Second {
		t.Errorf("replay ran %v after a 150ms context", rep.Elapsed)
	}
}
