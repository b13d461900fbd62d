package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
)

// writer renders the documents the daemon keys on and solves to
// (Request, Plan) by appending to one byte slice, with no reflection,
// to the bytes an encoding/json Encoder with SetEscapeHTML(false)
// writes (plus SetIndent("", "  ") in indent mode): fields in struct
// order, omitempty as encoding/json defines it, nil slices as null,
// floats in its 'f'/'e' form. A string that needs an escape and a
// non-finite float (an encoding/json error) are left to encoding/json,
// which then renders the whole document; real documents hold neither.
// The batch answer and the job line are spliced from plan documents
// (EncodeBatchPlans, EncodeJobLine), never re-rendered from a Plan.
type writer struct {
	b      []byte
	indent bool
	depth  int
	first  bool // nothing written yet in the innermost open container
	punt   bool // a value is left to encoding/json
}

// writers recycles writers with their buffers; marshal returns copies.
var writers = sync.Pool{New: func() any { return new(writer) }}

// marshal renders v with its trailing newline: a Request or a Plan
// through the writer, any other type through encoding/json. That
// includes a top-level Instance, a Batch and a SessionReply (only the
// SDK and tests encode the first two, and no workload loads sessions),
// and a BatchPlans or JobItem value: the service splices those from
// plan documents and marshals only a job's error lines. The writer's
// result is a copy sized to its content, so a document the cache keeps
// carries no spare capacity. marshal is generic so that EncodeRequest
// and EncodePlan box their document only to hand it to encoding/json.
func marshal[T any](v T, indent bool) ([]byte, error) {
	w := writers.Get().(*writer)
	defer writers.Put(w)
	*w = writer{b: w.b[:0], indent: indent, first: true}
	switch d := any(v).(type) {
	case Request:
		w.request(d)
	case Plan:
		w.plan(d)
	default:
		w.punt = true
	}
	if !w.punt {
		w.b = append(w.b, '\n')
		return bytes.Clone(w.b), nil
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	if indent {
		enc.SetIndent("", "  ")
	}
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// ---------------------------------------------------------------------------
// Layout

// open starts an object or array.
func (w *writer) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends the innermost container; an empty one stays on its line
// ({} or []), as encoding/json's indenter leaves it.
func (w *writer) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// next starts a member of the innermost container.
func (w *writer) next() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

func (w *writer) newline() {
	// Two spaces a level; no covered document nests deeper than six.
	const spaces = "                "
	if w.indent {
		w.b = append(w.b, '\n')
		w.b = append(w.b, spaces[:2*w.depth]...)
	}
}

// key starts the object member k (a field name: plain ASCII).
func (w *writer) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

// ---------------------------------------------------------------------------
// Values. A field helper's omit flag is the field's omitempty tag.

func (w *writer) intField(k string, v int64, omit bool) {
	if !omit || v != 0 {
		w.key(k)
		w.b = strconv.AppendInt(w.b, v, 10)
	}
}

func (w *writer) floatField(k string, v float64, omit bool) {
	if !omit || v != 0 { // −0 == 0: omitempty drops both
		w.key(k)
		w.float(v)
	}
}

func (w *writer) stringField(k, v string, omit bool) {
	if !omit || v != "" {
		w.key(k)
		w.string(v)
	}
}

// boolField writes an omitempty bool: every bool the writer covers is.
func (w *writer) boolField(k string, v bool) {
	if v {
		w.key(k)
		w.b = append(w.b, "true"...)
	}
}

// list writes field k as an array, elem writing each element:
// omitempty drops an empty slice, and a nil slice renders as null.
func list[T any](w *writer, k string, v []T, omit bool, elem func(*writer, T)) {
	if omit && len(v) == 0 {
		return
	}
	w.key(k)
	if v == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for _, x := range v {
		w.next()
		elem(w, x)
	}
	w.close(']')
}

func (w *writer) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

// float formats like encoding/json (appendFloat, float.go).
func (w *writer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.punt = true
		return
	}
	w.b = appendFloat(w.b, f)
}

// string writes s quoted when it is printable ASCII without '"' or
// '\\', which needs no escape; any other string is left to
// encoding/json.
func (w *writer) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			w.punt = true
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// ---------------------------------------------------------------------------
// Documents, field by field in struct order.

func (w *writer) instance(in Instance) {
	w.open('{')
	w.intField("v", int64(in.V), false)
	w.floatField("b0", in.B0, false)
	list(w, "open", in.Open, true, (*writer).float)
	list(w, "guarded", in.Guarded, true, (*writer).float)
	w.close('}')
}

func (w *writer) request(r Request) {
	w.open('{')
	w.intField("v", int64(r.V), false)
	w.key("instance")
	w.instance(r.Instance)
	w.stringField("solver", r.Solver, true)
	list(w, "need", r.Need, true, (*writer).string)
	w.floatField("deadline_ms", r.DeadlineMS, true)
	w.floatField("tolerance", r.Tolerance, true)
	w.boolField("want_scheme", r.WantScheme)
	w.boolField("want_trees", r.WantTrees)
	w.intField("schedule_blocks", int64(r.ScheduleBlocks), true)
	w.stringField("prev_word", r.PrevWord, true)
	w.close('}')
}

func (w *writer) plan(p Plan) {
	w.open('{')
	w.intField("v", int64(p.V), false)
	w.stringField("solver", p.Solver, false)
	w.floatField("throughput", p.Throughput, false)
	w.floatField("tstar", p.TStar, false)
	w.floatField("ratio", p.Ratio, false)
	w.stringField("word", p.Word, true)
	w.intField("max_out_degree", int64(p.MaxOutDegree), true)
	w.intField("degree_slack", int64(p.DegreeSlack), true)
	w.boolField("acyclic", p.Acyclic)
	list(w, "edges", p.Edges, true, (*writer).edge)
	list(w, "trees", p.Trees, true, (*writer).tree)
	if s := p.Schedule; s != nil {
		w.key("schedule")
		w.open('{')
		w.intField("blocks", int64(s.Blocks), false)
		list(w, "blocks_per_tree", s.BlocksPerTree, false, (*writer).int)
		w.floatField("max_overload", s.MaxOverload, false)
		list(w, "transmissions", s.Transmissions, false, (*writer).transmission)
		w.close('}')
	}
	w.boolField("repaired", p.Repaired)
	w.floatField("verified", p.Verified, true)
	w.boolField("warm_started", p.WarmStarted)
	w.intField("neighbor_distance", int64(p.NeighborDistance), true)
	w.key("evals")
	w.evals(p.Evals)
	w.close('}')
}

func (w *writer) edge(e Edge) {
	w.open('{')
	w.intField("from", int64(e.From), false)
	w.intField("to", int64(e.To), false)
	w.floatField("rate", e.Rate, false)
	w.close('}')
}

func (w *writer) tree(t Tree) {
	w.open('{')
	w.floatField("weight", t.Weight, false)
	list(w, "parent", t.Parent, false, (*writer).int)
	w.close('}')
}

func (w *writer) transmission(t Transmission) {
	w.open('{')
	w.intField("from", int64(t.From), false)
	w.intField("to", int64(t.To), false)
	w.intField("block", int64(t.Block), false)
	w.intField("tree", int64(t.Tree), false)
	w.close('}')
}

func (w *writer) evals(e EvalCounts) {
	w.open('{')
	w.intField("flow_evals", e.FlowEvals, false)
	w.intField("greedy_tests", e.GreedyTests, false)
	w.intField("word_evals", e.WordEvals, false)
	w.intField("builds", e.Builds, false)
	w.close('}')
}

// ---------------------------------------------------------------------------
// Documents spliced from plan documents. A plan document, as EncodePlan
// or Marshal writes it, holds no raw newline inside a string
// (encoding/json escapes one), and each of its lines is indentation, at
// most one key (a plain-ASCII field name, then `": `) and a value. So
// nesting it deeper only indents each line after its first, and its
// compact form drops each line's indentation and newline and the one
// space after its key: no plan is decoded or rendered again. A document
// a cluster peer sent is spliced as it came, so neither function panics
// on input that breaks these rules.

// EncodeBatchPlans renders the /v1/batch answer whose plans are docs,
// each a plan document as EncodePlan wrote it: the bytes
// Marshal(BatchPlans{V: Version, Plans: plans}) writes. Each document
// nests two levels deep, so every line after its first gains four
// spaces.
func EncodeBatchPlans(docs [][]byte) []byte {
	nl := []byte{'\n'}
	n := 32 // the answer's own lines
	for _, d := range docs {
		n += len(d) + 4*bytes.Count(d, nl) + 1
	}
	out := strconv.AppendInt(append(make([]byte, 0, n), "{\n  \"v\": "...), Version, 10)
	out = append(out, ",\n  \"plans\": ["...)
	for i, d := range docs {
		if i > 0 {
			out = append(out, ',')
		}
		rest := bytes.TrimSuffix(d, nl)
		for more := true; more; {
			var line []byte
			line, rest, more = bytes.Cut(rest, nl)
			out = append(append(out, "\n    "...), line...)
		}
	}
	if len(docs) > 0 {
		out = append(out, "\n  "...)
	}
	return append(out, "]\n}\n"...)
}

// EncodeJobLine renders the NDJSON line of job item i answered by doc,
// a plan document as EncodePlan wrote it: the bytes
// MarshalCompact(JobItem{V: Version, Index: i, Plan: &plan}) writes.
// It drops the document's indentation and newlines and the one space
// after each key.
func EncodeJobLine(i int, doc []byte) []byte {
	// The compact plan is shorter than doc: one allocation holds the line.
	out := strconv.AppendInt(append(make([]byte, 0, len(doc)+48), `{"v":`...), Version, 10)
	out = strconv.AppendInt(append(out, `,"index":`...), int64(i), 10)
	out = append(out, `,"plan":`...)
	for len(doc) > 0 {
		var line []byte
		line, doc, _ = bytes.Cut(doc, []byte{'\n'})
		if line = bytes.TrimLeft(line, " "); len(line) > 0 && line[0] == '"' {
			// A key ends at its second quote: a field name needs no escape.
			if q := 2 + bytes.IndexByte(line[1:], '"'); q+1 < len(line) && line[q] == ':' && line[q+1] == ' ' {
				out = append(out, line[:q+1]...)
				line = line[q+2:]
			}
		}
		out = append(out, line...)
	}
	return append(out, "}\n"...)
}
