package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/chaos/leakcheck"
	"repro/internal/engine"
	"repro/internal/platform"
)

func testTrace(t testing.TB, seed int64, events int) *Trace {
	t.Helper()
	tr, err := GenerateTrace(TraceConfig{Nodes: 12, POpen: 0.7, Events: events, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceDeterministicAndReplayable(t *testing.T) {
	cfg := TraceConfig{Nodes: 15, POpen: 0.7, Events: 40, Seed: 99}
	a, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same config and seed produced different event streams")
	}
	if a.Initial.String() != b.Initial.String() {
		t.Fatalf("initial instances differ: %v vs %v", a.Initial, b.Initial)
	}
	// Replaying against a clone of Initial must apply cleanly and keep
	// the platform alive and valid throughout.
	live := a.Initial.Clone()
	for i, ev := range a.Events {
		if err := Apply(live, ev); err != nil {
			t.Fatalf("event %d (%s): %v", i, ev, err)
		}
		if err := live.Validate(); err != nil {
			t.Fatalf("after event %d: %v", i, err)
		}
		if live.N() < 1 || live.N()+live.M() < 2 {
			t.Fatalf("after event %d the platform degenerated: n=%d m=%d", i, live.N(), live.M())
		}
	}
}

func TestTimelineByteIdenticalAcrossRuns(t *testing.T) {
	tr := testTrace(t, 5, 25)
	rc := RunConfig{Solvers: []string{"acyclic", "cyclic-bound", "greedy"}}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		tl, err := Run(context.Background(), tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&bufs[i]).Encode(tl); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("two runs of the same trace produced different timelines")
	}
	var csv [2]bytes.Buffer
	for i := range csv {
		tl, err := Run(context.Background(), tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.WriteCSV(&csv[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(csv[0].Bytes(), csv[1].Bytes()) {
		t.Fatal("two runs of the same trace produced different CSV timelines")
	}
}

// TestRepairMatchesFullResolveProperty is the churn correctness
// contract: across ≥200 seeded traces, the incremental-repair session
// and the from-scratch session agree on the verified throughput of
// every single event. Traces run on the engine worker pool, so under
// -race this also exercises concurrent sessions.
func TestRepairMatchesFullResolveProperty(t *testing.T) {
	const traces = 200
	err := engine.ForEach(context.Background(), traces, 0, func(ctx context.Context, i int) error {
		tr, err := GenerateTrace(TraceConfig{Nodes: 8 + i%9, POpen: 0.5 + 0.05*float64(i%9), Events: 6, Seed: int64(1000 + i)})
		if err != nil {
			return err
		}
		repaired, err := Run(ctx, tr, RunConfig{Solvers: []string{"acyclic"}})
		if err != nil {
			return err
		}
		full, err := Run(ctx, tr, RunConfig{Solvers: []string{"acyclic"}, NoRepair: true})
		if err != nil {
			return err
		}
		if len(repaired.Entries) != len(full.Entries) {
			return errors.New("timeline lengths differ")
		}
		for e := range repaired.Entries {
			rp, fp := repaired.Entries[e].Solvers[0], full.Entries[e].Solvers[0]
			scale := math.Max(1, fp.Verified)
			if math.Abs(rp.Verified-fp.Verified) > 1e-9*scale {
				return fmt.Errorf("trace %d event %d: repair verifies %v, full re-solve %v",
					i, e, rp.Verified, fp.Verified)
			}
			if math.Abs(rp.Throughput-fp.Throughput) > 1e-9*scale {
				return fmt.Errorf("trace %d event %d: repair T %v, full T %v",
					i, e, rp.Throughput, fp.Throughput)
			}
		}
		if st := repaired.Stats["acyclic"]; st.Repairs == 0 {
			return fmt.Errorf("trace %d: repair path never used (%+v)", i, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// errAfter is a context whose Err flips to Canceled after n checks —
// a deterministic way to abort a run mid-trace.
type errAfter struct {
	context.Context
	n atomic.Int64
}

func (c *errAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

func TestMidTraceCancellationLeaksNothing(t *testing.T) {
	tr := testTrace(t, 21, 30)
	base := leakcheck.Snapshot()

	for _, checks := range []int64{0, 1, 3, 10, 25} {
		ctx := &errAfter{Context: context.Background()}
		ctx.n.Store(checks)
		_, err := Run(ctx, tr, RunConfig{Solvers: []string{"acyclic", "greedy"}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("checks=%d: Run = %v, want context.Canceled", checks, err)
		}
		if got := engine.LeasedWorkspaces(); got != base.Leased {
			t.Fatalf("checks=%d: %d workspaces leaked", checks, got-base.Leased)
		}
	}
	// No goroutine or workspace survived the aborted runs.
	base.Check(t)
}

func TestApplyErrors(t *testing.T) {
	ins := platform.MustInstance(6, []float64{5}, []float64{4})
	if err := Apply(ins, Event{Op: OpDepart, Class: platform.Open, Rank: 3}); err == nil {
		t.Fatal("out-of-range depart should fail")
	}
	if err := Apply(ins, Event{Op: OpBurst, Sub: []Event{{Op: OpBurst}}}); err == nil {
		t.Fatal("nested burst should fail")
	}
	if err := Apply(ins, Event{Op: Op(200)}); err == nil {
		t.Fatal("unknown op should fail")
	}
}

func TestRunUnknownSolver(t *testing.T) {
	tr := testTrace(t, 1, 3)
	base := engine.LeasedWorkspaces()
	if _, err := Run(context.Background(), tr, RunConfig{Solvers: []string{"acyclic", "nope"}}); err == nil {
		t.Fatal("unknown solver should fail")
	}
	if got := engine.LeasedWorkspaces(); got != base {
		t.Fatalf("%d workspaces leaked on failed Run", got-base)
	}
}
