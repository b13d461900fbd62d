package wire

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/sim"
)

// -update regenerates the golden files from the current encoders:
//
//	go test ./internal/wire -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>, rewriting with -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/wire -run Golden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s deviates from golden file (regenerate with -update if intentional)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

func TestGoldenInstance(t *testing.T) {
	data, err := EncodeInstance(generator.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "instance_fig1.json", data)

	ins, err := DecodeInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeInstance(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("instance decode→encode is not byte-stable")
	}
}

func TestGoldenRequest(t *testing.T) {
	prev, err := core.ParseWord("gogog")
	if err != nil {
		t.Fatal(err)
	}
	req := engine.NewRequest(generator.Figure1(),
		engine.WithSolver("acyclic"),
		engine.WithTolerance(1e-9),
		engine.WithDeadline(250*time.Millisecond),
		engine.WithSchedule(20),
		engine.WithWarmStart(prev),
	)
	data, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "request_fig1.json", data)

	back, err := DecodeRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeRequest(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("request decode→encode is not byte-stable")
	}
	if back.Solver != "acyclic" || back.ScheduleBlocks != 20 ||
		back.Deadline != 250*time.Millisecond || len(back.PrevWord) != 5 {
		t.Errorf("request did not round-trip: %+v", back)
	}
}

func TestGoldenRequestCapabilities(t *testing.T) {
	req := engine.NewRequest(generator.Figure1(),
		engine.WithCapabilities(engine.CapExact|engine.CapHandlesGuarded),
		engine.WithScheme(),
	)
	data, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "request_capabilities.json", data)

	back, err := DecodeRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Need.Has(engine.CapExact | engine.CapHandlesGuarded) {
		t.Errorf("capability selector did not round-trip: %v", back.Need)
	}
}

func TestGoldenPlan(t *testing.T) {
	plan, err := engine.Execute(context.Background(), engine.NewRequest(generator.Figure1(),
		engine.WithTolerance(1e-9), engine.WithSchedule(20)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "plan_fig1.json", data)

	back, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("plan decode→encode is not byte-stable")
	}
	if back.Solver != "acyclic" || back.Schedule == nil || len(back.Trees) == 0 {
		t.Errorf("plan missing artifacts: %+v", back)
	}
}

func TestGoldenTimeline(t *testing.T) {
	tr, err := sim.GenerateTrace(sim.TraceConfig{Nodes: 8, POpen: 0.7, Dist: "Unif100", Events: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := sim.Run(context.Background(), tr, sim.RunConfig{Solvers: []string{"acyclic"}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeTimeline(tl)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "timeline_seed11.json", data)

	back, err := DecodeTimeline(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeTimeline(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("timeline decode→encode is not byte-stable")
	}
}

func TestDecodeVersionMismatch(t *testing.T) {
	cases := map[string]func([]byte) error{
		"instance": func(b []byte) error { _, err := DecodeInstance(b); return err },
		"request":  func(b []byte) error { _, err := DecodeRequest(b); return err },
		"plan":     func(b []byte) error { _, err := DecodePlan(b); return err },
		"timeline": func(b []byte) error { _, err := DecodeTimeline(b); return err },
	}
	for name, decode := range cases {
		for _, doc := range []string{`{}`, `{"v":0}`, `{"v":2,"b0":1}`} {
			if err := decode([]byte(doc)); !errors.Is(err, ErrVersion) {
				t.Errorf("%s %s: err = %v, want ErrVersion", name, doc, err)
			}
		}
	}
}

func TestDecodeMalformed(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte(``),
		[]byte(`{`),
		[]byte(`[]`),
		[]byte(`"v"`),
		[]byte(`{"v":1,"b0":-3}`),
		[]byte(`{"v":1,"b0":1e999}`),
		[]byte(`{"v":1,"b0":0,"open":[1]}`),
	}
	for _, doc := range bad {
		if _, err := DecodeInstance(doc); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeInstance(%q) err = %v, want ErrMalformed", doc, err)
		}
	}
	reqBad := [][]byte{
		[]byte(`{"v":1}`), // missing instance → zero Instance with v=0
		[]byte(`{"v":1,"instance":{"v":1,"b0":5},"prev_word":"oxg"}`),
		[]byte(`{"v":1,"instance":{"v":1,"b0":5},"need":["psychic"]}`),
		[]byte(`{"v":1,"instance":{"v":1,"b0":5},"tolerance":-1}`),
		[]byte(`{"v":1,"instance":{"v":1,"b0":5},"schedule_blocks":-2}`),
	}
	for _, doc := range reqBad {
		_, err := DecodeRequest(doc)
		if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrVersion) {
			t.Errorf("DecodeRequest(%s) err = %v, want ErrMalformed/ErrVersion", doc, err)
		}
	}
	// Typed error plumbing: a bad word letter surfaces core.ErrInvalidWord
	// through the wrap chain.
	_, err := DecodeRequest([]byte(`{"v":1,"instance":{"v":1,"b0":5},"prev_word":"oxg"}`))
	if !errors.Is(err, core.ErrInvalidWord) {
		t.Errorf("bad prev_word err = %v, want core.ErrInvalidWord in chain", err)
	}
}

// TestDecodeDeadlineRange: a deadline_ms whose nanoseconds do not fit
// in an int64 is malformed. Go leaves that float-to-int conversion to
// the platform, so without the check amd64 would report such a deadline
// as negative and arm64 would accept it as about 292 years.
func TestDecodeDeadlineRange(t *testing.T) {
	const doc = `{"v":1,"instance":{"v":1,"b0":5},"deadline_ms":%s}`
	req, err := DecodeRequest([]byte(fmt.Sprintf(doc, "9.2e12")))
	if err != nil || req.Deadline != time.Duration(9.2e18) {
		t.Fatalf("9.2e12 ms: deadline %v, err %v", req.Deadline, err)
	}
	for _, ms := range []string{"9.3e12", "1e300", "-9.3e12", "-1e300"} {
		if _, err := DecodeRequest([]byte(fmt.Sprintf(doc, ms))); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s ms: err = %v, want ErrMalformed", ms, err)
		}
	}
}

// FuzzDecodeInstance asserts malformed instance documents error
// cleanly instead of panicking, and that every accepted document
// re-encodes canonically.
func FuzzDecodeInstance(f *testing.F) {
	f.Add([]byte(`{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]}`))
	f.Add([]byte(`{"v":1,"b0":0}`))
	f.Add([]byte(`{"v":2,"b0":1}`))
	f.Add([]byte(`{"b0":"six"}`))
	f.Add([]byte(`[{"v":1}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, err := DecodeInstance(data)
		if err != nil {
			return
		}
		if err := ins.Validate(); err != nil {
			t.Fatalf("accepted instance fails Validate: %v", err)
		}
		if _, err := EncodeInstance(ins); err != nil {
			t.Fatalf("accepted instance fails to encode: %v", err)
		}
	})
}

func TestErrorDocRoundTripsSentinels(t *testing.T) {
	cases := []struct {
		err      error
		code     string
		sentinel error
	}{
		{fmt.Errorf("%w: no instance", engine.ErrInfeasible), CodeInfeasible, engine.ErrInfeasible},
		{fmt.Errorf("%w %q", engine.ErrUnknownSolver, "nope"), CodeUnknownSolver, engine.ErrUnknownSolver},
		{errors.Join(engine.ErrCanceled, context.Canceled), CodeCanceled, engine.ErrCanceled},
		{fmt.Errorf("%w: junk", ErrMalformed), CodeMalformed, ErrMalformed},
		{fmt.Errorf("%w: v=9", ErrVersion), CodeVersion, ErrVersion},
		{errors.New("disk on fire"), CodeInternal, nil},
	}
	for _, c := range cases {
		doc := NewErrorDoc(c.err)
		if doc.Code != c.code {
			t.Errorf("NewErrorDoc(%v).Code = %q, want %q", c.err, doc.Code, c.code)
		}
		data, err := Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var back ErrorDoc
		if err := Unmarshal(data, &back, "error doc"); err != nil {
			t.Fatal(err)
		}
		got := back.Err()
		if got.Error() != c.err.Error() {
			t.Errorf("message did not survive the round trip: %q vs %q", got, c.err)
		}
		if c.sentinel != nil && !errors.Is(got, c.sentinel) {
			t.Errorf("errors.Is(%v, %v) = false after round trip", got, c.sentinel)
		}
		// A reconstructed error matches exactly its own sentinel.
		for _, other := range cases {
			if other.sentinel != nil && other.code != c.code && errors.Is(got, other.sentinel) {
				t.Errorf("code %q error matches foreign sentinel %v", c.code, other.sentinel)
			}
		}
	}
	// A code-less document (older service) still yields a usable error.
	if err := (ErrorDoc{V: Version, Error: "boom"}).Err(); err == nil || err.Error() != "boom" {
		t.Errorf("code-less doc Err() = %v", err)
	}
}

// FuzzDecodeRequest asserts malformed request documents error cleanly
// instead of panicking, and accepted ones are executable contracts.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"solver":"acyclic"}`))
	f.Add([]byte(`{"v":1,"instance":{"v":1,"b0":5},"need":["exact"],"want_scheme":true}`))
	f.Add([]byte(`{"v":1,"instance":{"v":1,"b0":5},"prev_word":"ogog","deadline_ms":5}`))
	f.Add([]byte(`{"v":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		if req.Instance == nil {
			t.Fatal("accepted request with nil instance")
		}
		if _, err := EncodeRequest(req); err != nil {
			t.Fatalf("accepted request fails to encode: %v", err)
		}
	})
}

// FuzzDecodeBatch asserts malformed batch documents (the bodies of
// /v1/batch and /v1/jobs) error with a typed decode error instead of
// panicking, and that an accepted batch re-encodes to a batch of the
// same length.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"v":1,"requests":[{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]},"solver":"acyclic"},{"v":1,"instance":{"v":1,"b0":5},"want_scheme":true}]}`))
	f.Add([]byte(`{"v":2,"requests":[]}`))
	f.Add([]byte(`{"v":1,"requests":[]}`))
	f.Add([]byte(`{"v":1,"requests":[{"v":1,"instance":{"v":1,"b0":5},"prev_word":"oxo"}]}`))
	f.Add([]byte(`[{"v":1}]`))
	f.Add([]byte(`"batch"`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := DecodeBatch(data, "batch")
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection is not a typed decode error: %v", err)
			}
			return
		}
		enc, err := EncodeBatch(reqs)
		if err != nil {
			t.Fatalf("accepted batch fails to encode: %v", err)
		}
		back, err := DecodeBatch(enc, "batch")
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if len(back) != len(reqs) {
			t.Fatalf("re-encoded batch has %d requests, want %d", len(back), len(reqs))
		}
	})
}

// TestDecodeBatchErrorOrder pins which error a batch reports, on the
// scanner's path and on encoding/json's (an unknown key sends a
// document there): a bad version before any bad item, wherever "v"
// stands, then the first bad item by index; [] and a missing "requests"
// give no requests and no error.
func TestDecodeBatchErrorOrder(t *testing.T) {
	const good, bad = `{"v":1,"instance":{"v":1,"b0":6,"open":[5,5],"guarded":[4,1,1]}}`, `{"v":1,"instance":{"v":1,"b0":-1}}`
	cases := []struct {
		doc, err string
		n        int
	}{
		{`{"requests":[` + bad + `],"v":2`, "wire: unsupported version: batch has v=2", 0},
		{`{"v":1,"requests":[` + good + `,` + good + `,` + bad + `,` + bad + `]`, "request 2: wire: malformed document: ", 0},
		{`{"v":1,"requests":[` + good + `,` + good + `]`, "", 2},
		{`{"v":1,"requests":[]`, "", 0},
		{`{"v":1`, "", 0},
	}
	for _, c := range cases {
		for _, doc := range []string{c.doc + "}", c.doc + `,"added_in_v1_9":0}`} {
			reqs, err := DecodeBatch([]byte(doc), "batch")
			if c.err == "" && (err != nil || len(reqs) != c.n) || c.err != "" && (err == nil || !strings.HasPrefix(err.Error(), c.err) || reqs != nil) {
				t.Errorf("%s: %d requests, error %v; want %d, error %q…", doc, len(reqs), err, c.n, c.err)
			}
		}
	}
}

// FuzzDecodePlan asserts malformed plan documents error cleanly
// instead of panicking, and accepted ones re-marshal canonically and
// byte-stably.
func FuzzDecodePlan(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("testdata", "plan_fig1.json")); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"v":1,"solver":"acyclic","throughput":4,"tstar":4.4,"ratio":0.9,"evals":{}}`))
	f.Add([]byte(`{"v":1,"solver":"acyclic","edges":[{"from":0,"to":1,"rate":2}],"trees":[{"weight":1,"parent":[-1,0]}],"evals":{}}`))
	f.Add([]byte(`{"v":1,"schedule":{"blocks":4,"blocks_per_tree":[2,2],"transmissions":[{"from":0,"to":1,"block":0,"tree":0}]}}`))
	f.Add([]byte(`{"v":2,"solver":"acyclic"}`))
	f.Add([]byte(`{"v":1,"throughput":"four"}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := DecodePlan(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection is not a typed decode error: %v", err)
			}
			return
		}
		first, err := Marshal(plan)
		if err != nil {
			t.Fatalf("accepted plan fails to marshal: %v", err)
		}
		back, err := DecodePlan(first)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("plan re-encoding is not byte-stable:\n%s\nvs\n%s", first, again)
		}
	})
}

// FuzzDecodeTimeline asserts malformed timeline documents error
// cleanly instead of panicking, and accepted ones re-encode.
func FuzzDecodeTimeline(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("testdata", "timeline_seed11.json")); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"v":1,"seed":7,"entries":[]}`))
	f.Add([]byte(`{"v":1,"entries":[{"event":0,"solver":"acyclic","throughput":3.5}]}`))
	f.Add([]byte(`{"v":0}`))
	f.Add([]byte(`{"v":1,"entries":42}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := DecodeTimeline(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection is not a typed decode error: %v", err)
			}
			return
		}
		if _, err := EncodeTimeline(tl); err != nil {
			t.Fatalf("accepted timeline fails to encode: %v", err)
		}
	})
}

// TestCodeTableSingleSourceOfTruth pins the exported code ↔ sentinel ↔
// status table: every code round-trips through ErrorDoc back to an
// errors.Is-able sentinel, and StatusFor/CodeFor agree with the table
// the service and SDK both consume.
func TestCodeTableSingleSourceOfTruth(t *testing.T) {
	mappings := CodeMappings()
	if len(mappings) != 5 {
		t.Fatalf("table has %d mappings, want 5", len(mappings))
	}
	for _, m := range mappings {
		wrapped := fmt.Errorf("context: %w", m.Sentinel)
		if got := CodeFor(wrapped); got != m.Code {
			t.Errorf("CodeFor(%v) = %q, want %q", m.Sentinel, got, m.Code)
		}
		if got := StatusFor(wrapped); got != m.HTTPStatus {
			t.Errorf("StatusFor(%v) = %d, want %d", m.Sentinel, got, m.HTTPStatus)
		}
		doc := NewErrorDoc(wrapped)
		if doc.Code != m.Code {
			t.Errorf("NewErrorDoc(%v).Code = %q, want %q", m.Sentinel, doc.Code, m.Code)
		}
		if !errors.Is(doc.Err(), m.Sentinel) {
			t.Errorf("doc.Err() for code %q does not match its sentinel", m.Code)
		}
	}
	if got := CodeFor(errors.New("anything else")); got != CodeInternal {
		t.Errorf("CodeFor(unknown) = %q, want %q", got, CodeInternal)
	}
	if got := StatusFor(errors.New("anything else")); got != http.StatusInternalServerError {
		t.Errorf("StatusFor(unknown) = %d, want 500", got)
	}
	// Decode errors shadow engine errors: a malformed doc that also
	// wraps an engine sentinel still reports the caller's fault.
	both := fmt.Errorf("%w: while handling %w", ErrMalformed, engine.ErrInfeasible)
	if CodeFor(both) != CodeMalformed || StatusFor(both) != http.StatusBadRequest {
		t.Errorf("shadowing broken: code=%q status=%d", CodeFor(both), StatusFor(both))
	}
}
