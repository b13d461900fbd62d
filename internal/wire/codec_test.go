package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/distribution"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/platform"
)

// reference renders v as Marshal and MarshalCompact did before the
// append writer: encoding/json through an Encoder with HTML escaping
// off, indented by two spaces or compact.
func reference(v any, indent bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// sameAsJSON fails unless the writer renders doc to the reference's
// bytes in both forms, with no more spare capacity, or both fail with
// the same message.
func sameAsJSON(t *testing.T, what string, doc any) {
	t.Helper()
	for _, indent := range []bool{true, false} {
		got, gotErr := marshal(doc, indent)
		want, wantErr := reference(doc, indent)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%s (indent %v): writer error %v, encoding/json error %v", what, indent, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("%s (indent %v): writer error %q, encoding/json error %q", what, indent, gotErr, wantErr)
		case !bytes.Equal(got, want):
			t.Fatalf("%s (indent %v): writer output differs from encoding/json\n got: %q\nwant: %q", what, indent, got, want)
		case cap(got) > cap(want):
			t.Fatalf("%s: %d bytes rendered with capacity %d, encoding/json's %d", what, len(got), cap(got), cap(want))
		}
	}
}

// splicesLikeJSON fails unless the job lines and the batch answers
// spliced from docs, plans[i] as Marshal wrote it, are the bytes
// encoding/json writes for the same JobItem and BatchPlans values: each
// plan as job item i, and batches of the first zero to three plans and
// of all of them.
func splicesLikeJSON(t *testing.T, what string, plans []Plan, docs [][]byte) {
	t.Helper()
	for i := range plans {
		want, err := reference(JobItem{V: Version, Index: i, Plan: &plans[i]}, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeJobLine(i, docs[i]); !bytes.Equal(got, want) {
			t.Fatalf("%s: job line %d differs from encoding/json\n got: %q\nwant: %q", what, i, got, want)
		}
	}
	for _, k := range []int{0, 1, 2, 3, len(plans)} {
		k = min(k, len(plans))
		want, err := reference(BatchPlans{V: Version, Plans: append([]Plan{}, plans[:k]...)}, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeBatchPlans(docs[:k]); !bytes.Equal(got, want) {
			t.Fatalf("%s: batch answer of %d plans differs from encoding/json\n got: %q\nwant: %q", what, k, got, want)
		}
	}
}

// documents builds one of each document the writer covers from a float,
// an int and a string. Slices that encoding/json renders without
// omitempty are nil when n is even and empty when it is odd.
func documents(x float64, n int64, s string) []any {
	var (
		parent []int
		tx     []Transmission
		reqs   []Request
		plans  []Plan
		edges  []Edge
		floats []float64
	)
	if n%2 != 0 {
		parent, tx, reqs, plans, edges, floats = []int{}, []Transmission{}, []Request{}, []Plan{}, []Edge{}, []float64{}
	}
	k := int(n)
	ins := Instance{V: k, B0: x, Open: append(floats, x, -x), Guarded: floats}
	req := Request{
		V: 1, Instance: ins, Solver: s, Need: []string{s, "exact"}, DeadlineMS: x, Tolerance: -x,
		WantScheme: n > 0, WantTrees: n < 0, ScheduleBlocks: k, PrevWord: s,
	}
	plan := Plan{
		V: k, Solver: s, Throughput: x, TStar: -x, Ratio: x / 3, Word: s,
		MaxOutDegree: k, DegreeSlack: -k, Acyclic: n%3 == 0,
		Edges: append(edges, Edge{From: k, To: 1, Rate: x}, Edge{To: -k, Rate: -x}),
		Trees: []Tree{{Weight: x, Parent: parent}, {Weight: -x, Parent: append(parent, -1, k)}},
		Schedule: &Schedule{
			Blocks: k, BlocksPerTree: append(parent, k), MaxOverload: x,
			Transmissions: append(tx, Transmission{From: k, To: 2, Block: -k, Tree: 1}),
		},
		Repaired: n > 0, Verified: x, WarmStarted: n < 0, NeighborDistance: k,
		Evals: EvalCounts{FlowEvals: n, GreedyTests: -n, WordEvals: n / 2, Builds: 1},
	}
	bare := Plan{Solver: s, Edges: edges, Trees: []Tree{{Parent: parent}}, Schedule: &Schedule{BlocksPerTree: parent, Transmissions: tx}}
	return []any{
		ins, Instance{}, req, Request{},
		plan, bare, Plan{},
		Batch{V: 1, Requests: reqs}, Batch{V: k, Requests: append(reqs, req, Request{})},
		BatchPlans{V: 1, Plans: plans}, BatchPlans{V: k, Plans: append(plans, plan, bare)},
		JobItem{V: 1, Index: k, Plan: &plan}, JobItem{Index: k, Code: s, Error: s}, JobItem{},
		SessionReply{V: 1, Session: s}, SessionReply{},
		SessionReply{V: 1, Session: s, Solver: s, Plan: &bare, Stats: &SessionStats{Events: k, Fallbacks: -k, Evals: plan.Evals}},
	}
}

// TestWriterRules holds the writer to encoding/json on each of its
// rules, indented and compact, over every covered document.
func TestWriterRules(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		rule string
		x    float64
		n    int64
		s    string
	}{
		{"zero values and nil slices", 0, 0, ""},
		{"empty slices", 0, 1, ""},
		{"−0 renders, and omitempty drops it", negZero, 3, "acyclic"},
		{"'f' form", 4.4, -1, "acyclic"},
		{"'f' form up to 1e21", 999999999999999900000, 2, "x"},
		{"'e' form from 1e21", 1e21, 2, "x"},
		{"'e' form from 1e21, negative", -1.5e300, 2, "x"},
		{"'f' form at 1e-6", 1e-6, 2, "x"},
		{"'e' form below 1e-6, exponent trimmed", 9.99e-7, 2, "x"},
		{"'e' form, two-digit exponent", 1.5e-10, 2, "x"},
		{"'e' form, three-digit exponent", -2.5e-100, 2, "x"},
		{"smallest subnormal", 5e-324, 2, "x"},
		{"largest float", math.MaxFloat64, 2, "x"},
		{"shortest round-trip digits", 0.1 + 0.2, 2, "x"},
		{"int extremes", 1, math.MaxInt64, "x"},
		{"int extremes, negative", 1, math.MinInt64, "x"},
		{"NaN is an error", math.NaN(), 2, "x"},
		{"+Inf is an error", math.Inf(1), 2, "x"},
		{"−Inf is an error", math.Inf(-1), 2, "x"},
		{"quote", 1, 2, `say "hi"`},
		{"backslash", 1, 2, `C:\dir`},
		{"named control escapes", 1, 2, "\b\f\n\r\t"},
		{"other control bytes as \\u00XX", 1, 2, "\x00\x01\x1f\x7f"},
		{"HTML characters stay raw", 1, 2, "<a href='x'>&amp;</a>"},
		{"valid UTF-8 stays raw", 1, 2, "h\u00e9llo, \u4e16\u754c \U0001F600 \ufffd"},
		{"invalid UTF-8 bytes become \\ufffd", 1, 2, "a\xffb\xc3\x28\xe2\x82"},
		{"U+2028 and U+2029 are escaped", 1, 2, "line\u2028para\u2029end"},
	}
	for _, c := range cases {
		for _, doc := range documents(c.x, c.n, c.s) {
			sameAsJSON(t, c.rule, doc)
		}
	}
}

// solverPlans runs every registered solver on tiny, paper-size and
// cold-size instances, plain and with trees, a schedule and a
// tolerance, and returns each plan with its request.
func solverPlans(t *testing.T) (plans []*engine.Plan, reqs []engine.Request) {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	draw := func(n int, pOpen float64) *platform.Instance {
		ins, err := generator.Random(distribution.All()[n%len(distribution.All())], n, pOpen, rng)
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	small := []*platform.Instance{generator.Figure1(), draw(6, 0.5)}
	mixed := append(small, draw(20, 0.5), draw(300, 0.6))
	openOnly := []*platform.Instance{draw(5, 1), draw(20, 1), draw(300, 1)}
	options := [][]engine.RequestOption{
		nil,
		{engine.WithTrees()},
		{engine.WithSchedule(20)},
		{engine.WithTolerance(1e-9), engine.WithScheme()},
	}
	for _, name := range engine.Names() {
		instances := mixed
		switch name {
		case "acyclic-open", "cyclic-open", "oneport":
			instances = openOnly
		case "exhaustive":
			instances = small
		}
		solved := 0
		for _, ins := range instances {
			for _, opts := range options {
				req := engine.NewRequest(ins, append(opts, engine.WithSolver(name))...)
				plan, err := engine.Execute(context.Background(), req)
				if err != nil {
					continue // trees and schedules need an acyclic scheme
				}
				plans, reqs = append(plans, plan), append(reqs, req)
				solved++
			}
		}
		if solved == 0 {
			t.Fatalf("solver %s produced no plan", name)
		}
	}
	return plans, reqs
}

// scansLikeJSON fails unless the scanner accepts data (a document this
// package wrote) and decodes the value encoding/json decodes.
func scansLikeJSON[T any](t *testing.T, data []byte, read func(*scanner) T) {
	t.Helper()
	got, ok := scan(data, read)
	if !ok {
		t.Fatalf("scanner left a canonical document to encoding/json:\n%s", data)
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner decoded %+v, encoding/json %+v", got, want)
	}
}

// TestCodecMatchesJSONOnSolverPlans renders the plans of all ten
// solvers, trees and schedules included, as every covered document, and
// scans them back: the writer must give encoding/json's bytes and the
// scanner encoding/json's values, without falling back.
func TestCodecMatchesJSONOnSolverPlans(t *testing.T) {
	plans, reqs := solverPlans(t)
	var wires []Plan
	var docs [][]byte
	var wreqs []Request
	for i, p := range plans {
		w := FromPlan(p)
		doc, err := EncodePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		wires, docs = append(wires, w), append(docs, doc)
		if want, _ := reference(w, true); !bytes.Equal(doc, want) {
			t.Fatalf("plan %d (%s): EncodePlan differs from encoding/json", i, p.Solver)
		}
		sameAsJSON(t, "plan", w)
		sameAsJSON(t, "session reply", SessionReply{V: Version, Session: "s1", Solver: p.Solver, Plan: &w, Stats: &SessionStats{Events: i}})
		scansLikeJSON(t, doc, (*scanner).plan)

		rdoc, err := EncodeRequest(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		wreqs = append(wreqs, FromRequest(reqs[i]))
		if want, _ := reference(wreqs[i], true); !bytes.Equal(rdoc, want) {
			t.Fatalf("request %d: EncodeRequest differs from encoding/json", i)
		}
		scansLikeJSON(t, rdoc, (*scanner).request)
		idoc, err := EncodeInstance(reqs[i].Instance)
		if err != nil {
			t.Fatal(err)
		}
		scansLikeJSON(t, idoc, (*scanner).instance)
	}
	splicesLikeJSON(t, "solver plans", wires, docs)
	// A solver name that needs escapes goes through encoding/json, and
	// holds a quote, a colon and a space the splice must leave alone.
	odd := wires[0]
	odd.Solver = `a": "b\`
	oddDoc, err := Marshal(odd)
	if err != nil {
		t.Fatal(err)
	}
	splicesLikeJSON(t, "escaped solver name", []Plan{odd, wires[1], odd}, [][]byte{oddDoc, docs[1], oddDoc})
	bdoc, err := EncodeBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	sameAsJSON(t, "batch", Batch{V: Version, Requests: wreqs})
	if !batchAgrees(t, bdoc) {
		t.Fatalf("batch reader left a canonical document to encoding/json:\n%s", bdoc)
	}
	trees, schedules := 0, 0
	for _, p := range plans {
		trees += min(len(p.Trees), 1)
		if p.Schedule != nil {
			schedules++
		}
	}
	if trees == 0 || schedules == 0 {
		t.Fatalf("%d plans, %d with trees, %d with a schedule", len(plans), trees, schedules)
	}
	t.Logf("%d plans, %d with trees, %d with a schedule", len(plans), trees, schedules)
}

// TestScannerShape pins what the scanner reads itself, to the values
// encoding/json gives, and what it must leave to encoding/json, whose
// value or error decode must then return.
func TestScannerShape(t *testing.T) {
	const ins = `"instance":{"v":1,"b0":5}`
	for _, doc := range []string{
		` {"v" : 1 ,` + "\t\r\n" + ins + ` } ` + "\n",                                             // JSON whitespace
		`{"v":1,"instance":{"v":1,"b0":-0,"open":[],"guarded":[0.5e-3,1E5,1e+2,-2.5]},"need":[]}`, // [] and number forms
		`{"instance":{"b0":5,"v":1},"v":1,"want_trees":false,"want_scheme":true,"solver":"a b"}`,  // any key order
	} {
		scansLikeJSON(t, []byte(doc), (*scanner).request)
	}
	scansLikeJSON(t, []byte(`{"v":1,"edges":[],"trees":[{"weight":1,"parent":[]}],"schedule":{"blocks_per_tree":[],"transmissions":[]},"evals":{}}`), (*scanner).plan)

	for _, doc := range []string{
		`{"V":1,` + ins + `}`,                                  // differently-cased key
		`{"v":1,"v":1,` + ins + `}`,                            // repeated key
		`{"v":1,` + ins + `,"extra":[1,{"a":null}]}`,           // unknown key
		`{"v":1,` + ins + `,"solver":null}`,                    // null
		`{"v":1,` + ins + `,"solver":"\u0061cyclic"}`,          // escape
		`{"v":1,` + ins + "," + `"solver":"` + "\u00e9" + `"}`, // non-ASCII
		`{"v":1.0,` + ins + `}`,                                // fraction in an int field
		`{"v":1e0,` + ins + `}`,                                // exponent in an int field
		`{"v":01,` + ins + `}`,                                 // leading zero
		`{"v":1,` + ins + `,"tolerance":.5}`,                   // not JSON grammar
		`{"v":1,` + ins + `,"tolerance":1e400}`,                // out of range
		`{"v":1,` + "\f" + ins + `}`,                           // not JSON whitespace
		`{"v":1,` + ins + `} x`,                                // trailing bytes
		`{"v":1,` + ins,                                        // truncated
		`{"v":1,"instance":{"open":[`,                          // truncated after '['
		`{"v":1,"instance":{"open":[1,2`,                       // array without its ']'
		` [{"v":1}]`,                                           // not an object
	} {
		if _, ok := scan([]byte(doc), (*scanner).request); ok {
			t.Errorf("scanner accepted %s", doc)
		}
		var want Request
		jsonErr := json.Unmarshal([]byte(doc), &want)
		got, err := decode([]byte(doc), "request", (*scanner).request)
		if (err != nil) != (jsonErr != nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("decode(%s) = %+v, %v; encoding/json %+v, %v", doc, got, err, want, jsonErr)
		}
	}
	// The fallback keeps v1's rule that unknown fields are skipped.
	req, err := DecodeRequest([]byte(`{"v":1,"instance":{"v":1,"b0":5,"future":[1]},"solver":"acyclic","added_in_v1_9":true}`))
	if err != nil || req.Solver != "acyclic" || req.Instance.B0 != 5 {
		t.Fatalf("additive fields: %+v, %v", req, err)
	}
}

// agrees fails if the scanner accepts data while encoding/json rejects
// it or decodes another value (the re-rendered bytes also tell −0 from
// 0, which reflect.DeepEqual does not).
func agrees[T any](t *testing.T, data []byte, read func(*scanner) T) {
	got, ok := scan(data, read)
	if !ok {
		return
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("scanner accepted %q, which encoding/json rejects: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("on %q the scanner decoded %+v, encoding/json %+v", data, got, want)
	}
	a, errA := marshal(got, true)
	b, errB := reference(want, true)
	if !bytes.Equal(a, b) || (errA == nil) != (errB == nil) {
		t.Fatalf("on %q the decoded values render differently:\n%s\n%s", data, a, b)
	}
}

// batchAgrees fails if the batch reader accepts data while encoding/json
// rejects it, or converts it otherwise than DecodeBatch's encoding/json
// path: the same version, the same requests, deeply and re-rendered
// item by item (which tells −0 from 0), and the same item error. It
// reports whether the reader accepted data.
func batchAgrees(t *testing.T, data []byte) bool {
	t.Helper()
	got, ok := scan(data, (*scanner).batch)
	if !ok {
		return false
	}
	var doc Batch
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("batch reader accepted %q, which encoding/json rejects: %v", data, err)
	}
	var want []engine.Request
	var wantErr error
	for i, wr := range doc.Requests {
		req, err := wr.Request()
		if err != nil {
			wantErr = fmt.Errorf("request %d: %w", i, err)
			break
		}
		want = append(want, req)
	}
	if got.v != doc.V || fmt.Sprint(got.err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got.reqs, want) {
		t.Fatalf("on %q the batch reader gave v=%d, %d requests, error %v; encoding/json v=%d, %d requests, error %v",
			data, got.v, len(got.reqs), got.err, doc.V, len(want), wantErr)
	}
	for i := range want {
		a, errA := EncodeRequest(got.reqs[i])
		b, errB := EncodeRequest(want[i])
		if !bytes.Equal(a, b) || (errA == nil) != (errB == nil) {
			t.Fatalf("on %q item %d renders differently:\n%s\n%s", data, i, a, b)
		}
	}
	return true
}

// FuzzReaderMatchesJSON feeds arbitrary bytes to the scanner as each
// document it reads: whenever it accepts, encoding/json must accept too
// and decode a deeply equal value (a batch: the same converted
// requests and error, see batchAgrees).
func FuzzReaderMatchesJSON(f *testing.F) {
	for _, doc := range Corpus() {
		f.Add(doc)
	}
	cold, _ := filepath.Glob(filepath.Join("..", "engine", "testdata", "cold_seed*.json"))
	for _, path := range cold {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(append(append([]byte(`{"v":1,"requests":[`), data...), "]}"...))
	}
	f.Add([]byte(`{"v":1,"instance":{"v":1,"b0":-0,"open":[],"guarded":[0.5e-3,1E5]},"need":[],"want_trees":false}`))
	f.Add([]byte(`{"v":1,"edges":[],"trees":[{"weight":1,"parent":[]}],"schedule":{"transmissions":[]},"evals":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		agrees(t, data, (*scanner).request)
		agrees(t, data, (*scanner).instance)
		batchAgrees(t, data)
		agrees(t, data, (*scanner).plan)
	})
}

// FuzzWriterMatchesJSON builds every covered document from fuzzed float
// bits, an int and an arbitrary string: the writer must give the bytes
// of encoding/json, configured as Marshal and MarshalCompact were, or
// fail where it fails. The job lines and batch answers spliced from the
// fuzzed plans' documents must give encoding/json's bytes too, and a
// splice of the raw string, as a peer might send it, must not panic.
func FuzzWriterMatchesJSON(f *testing.F) {
	f.Add(math.Float64bits(4.4), int64(3), "acyclic")
	f.Add(math.Float64bits(1e-7), int64(-1), "<&>\u2028\xff\"\\")
	f.Add(math.Float64bits(math.NaN()), int64(0), "")
	f.Add(math.Float64bits(math.Copysign(0, -1)), int64(math.MinInt64), "\x00\x1f\x7f")
	f.Add(math.Float64bits(1e21), int64(1), "ogogo")
	f.Fuzz(func(t *testing.T, bits uint64, n int64, s string) {
		var plans []Plan
		var docs [][]byte
		for _, doc := range documents(math.Float64frombits(bits), n, s) {
			sameAsJSON(t, "fuzzed document", doc)
			if p, ok := doc.(Plan); ok {
				if d, err := Marshal(p); err == nil {
					plans, docs = append(plans, p), append(docs, d)
				}
			}
		}
		splicesLikeJSON(t, "fuzzed plans", plans, docs)
		EncodeJobLine(int(n), []byte(s))
		EncodeBatchPlans([][]byte{[]byte(s), nil})
	})
}
