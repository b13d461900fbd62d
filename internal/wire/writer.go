package wire

import (
	"bytes"
	"encoding/json"
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
	first  bool // nothing written yet in the innermost open object
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

// breaks is the text between the members of a container: a comma, then
// in indent mode a newline and two spaces a level, for up to eight
// levels (no covered document nests deeper than four).
const breaks = ",\n                "

// brk returns the text before each member but the first of a container
// whose members sit at depth d. brk(d)[1:] goes before its first
// member, and brk(d-1)[1:] before its closing bracket.
func (w *writer) brk(d int) string {
	if !w.indent {
		return ","
	}
	return breaks[:2+2*d]
}

// open starts an object.
func (w *writer) open() {
	w.b = append(w.b, '{')
	w.depth++
	w.first = true
}

// close ends the innermost object; an empty one stays on its line
// ({}), as encoding/json's indenter leaves it.
func (w *writer) close() {
	w.depth--
	if !w.first {
		w.b = append(w.b, w.brk(w.depth)[1:]...)
	}
	w.b = append(w.b, '}')
	w.first = false
}

// key starts the member k of the innermost object.
func (w *writer) key(k string) {
	w.b = w.member(w.b, w.depth, k, w.first)
	w.first = false
}

// member appends the text before the value of member k (a field name:
// plain ASCII) of an object whose members sit at depth d.
func (w *writer) member(b []byte, d int, k string, first bool) []byte {
	sep := w.brk(d)
	if first {
		sep = sep[1:]
	}
	b = append(append(append(b, sep...), '"'), k...)
	if b = append(b, '"', ':'); w.indent {
		b = append(b, ' ')
	}
	return b
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
		w.b = w.float(w.b, v)
	}
}

func (w *writer) stringField(k, v string, omit bool) {
	if !omit || v != "" {
		w.key(k)
		w.b = w.string(w.b, v)
	}
}

// boolField writes an omitempty bool: every bool the writer covers is.
func (w *writer) boolField(k string, v bool) {
	if v {
		w.key(k)
		w.b = append(w.b, "true"...)
	}
}

// float appends f as encoding/json formats it (appendFloat, float.go).
func (w *writer) float(b []byte, f float64) []byte {
	if f-f != 0 { // NaN or ±Inf
		w.punt = true
		return b
	}
	return appendFloat(b, f)
}

// string appends s quoted when it is printable ASCII without '"' or
// '\\', which needs no escape; any other string is left to
// encoding/json.
func (w *writer) string(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			w.punt = true
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// ---------------------------------------------------------------------------
// Arrays. Each appends its slice as an array whose elements sit at
// depth d, in one loop over the caller's buffer that writes every
// element behind the separator brk(d), built once for the array; end
// then turns the first separator's comma into the opening bracket.

// end finishes an array whose elements, at depth d, were appended to
// b[at:]. With no elements, a nil slice renders as null and an empty
// one as [].
func (w *writer) end(b []byte, at, d int, isNil bool) []byte {
	switch {
	case len(b) > at:
		b[at] = '['
		return append(append(b, w.brk(d - 1)[1:]...), ']')
	case isNil:
		return append(b, "null"...)
	}
	return append(b, "[]"...)
}

func (w *writer) floats(b []byte, v []float64, d int) []byte {
	sep, at := w.brk(d), len(b)
	for _, x := range v {
		b = w.float(append(b, sep...), x)
	}
	return w.end(b, at, d, v == nil)
}

func (w *writer) ints(b []byte, v []int, d int) []byte {
	sep, at := w.brk(d), len(b)
	for _, x := range v {
		b = strconv.AppendInt(append(b, sep...), int64(x), 10)
	}
	return w.end(b, at, d, v == nil)
}

func (w *writer) strings(b []byte, v []string, d int) []byte {
	sep, at := w.brk(d), len(b)
	for _, x := range v {
		b = w.string(append(b, sep...), x)
	}
	return w.end(b, at, d, v == nil)
}

// row is the fixed text of an array of objects that all have the same
// keys, laid out once for the array: piece(0) is the element separator,
// the opening brace and the first key, piece(j) leads from value j-1
// through key j, and piece(len(keys)) closes the element.
type row struct {
	text [128]byte
	ends [5]uint8
}

// row lays out objects with the given keys as array elements at depth
// d. The longest row, a transmission in indent mode, takes 87 bytes.
func (w *writer) row(d int, keys ...string) (r row) {
	t := append(append(r.text[:0], w.brk(d)...), '{')
	for j, k := range keys {
		t = w.member(t, d+1, k, j == 0)
		r.ends[j] = uint8(len(t))
	}
	t = append(append(t, w.brk(d)[1:]...), '}')
	r.ends[len(keys)] = uint8(len(t))
	return r
}

func (r *row) piece(j int) []byte {
	lo := uint8(0)
	if j > 0 {
		lo = r.ends[j-1]
	}
	return r.text[lo:r.ends[j]]
}

func (w *writer) edges(b []byte, v []Edge, d int) []byte {
	r, at := w.row(d, "from", "to", "rate"), len(b)
	sep, to, rate, end := r.piece(0), r.piece(1), r.piece(2), r.piece(3)
	for _, e := range v {
		b = strconv.AppendInt(append(b, sep...), int64(e.From), 10)
		b = strconv.AppendInt(append(b, to...), int64(e.To), 10)
		b = append(w.float(append(b, rate...), e.Rate), end...)
	}
	return w.end(b, at, d, v == nil)
}

func (w *writer) trees(b []byte, v []Tree, d int) []byte {
	r, at := w.row(d, "weight", "parent"), len(b)
	sep, parent, end := r.piece(0), r.piece(1), r.piece(2)
	for _, t := range v {
		b = w.float(append(b, sep...), t.Weight)
		b = append(w.ints(append(b, parent...), t.Parent, d+2), end...)
	}
	return w.end(b, at, d, v == nil)
}

func (w *writer) transmissions(b []byte, v []Transmission, d int) []byte {
	r, at := w.row(d, "from", "to", "block", "tree"), len(b)
	sep, to, block, tree, end := r.piece(0), r.piece(1), r.piece(2), r.piece(3), r.piece(4)
	for _, t := range v {
		b = strconv.AppendInt(append(b, sep...), int64(t.From), 10)
		b = strconv.AppendInt(append(b, to...), int64(t.To), 10)
		b = strconv.AppendInt(append(b, block...), int64(t.Block), 10)
		b = append(strconv.AppendInt(append(b, tree...), int64(t.Tree), 10), end...)
	}
	return w.end(b, at, d, v == nil)
}

// ---------------------------------------------------------------------------
// Documents, field by field in struct order. An array member's elements
// sit one level below the member.

func (w *writer) instance(in Instance) {
	w.open()
	w.intField("v", int64(in.V), false)
	w.floatField("b0", in.B0, false)
	if len(in.Open) > 0 {
		w.key("open")
		w.b = w.floats(w.b, in.Open, w.depth+1)
	}
	if len(in.Guarded) > 0 {
		w.key("guarded")
		w.b = w.floats(w.b, in.Guarded, w.depth+1)
	}
	w.close()
}

func (w *writer) request(r Request) {
	w.open()
	w.intField("v", int64(r.V), false)
	w.key("instance")
	w.instance(r.Instance)
	w.stringField("solver", r.Solver, true)
	if len(r.Need) > 0 {
		w.key("need")
		w.b = w.strings(w.b, r.Need, w.depth+1)
	}
	w.floatField("deadline_ms", r.DeadlineMS, true)
	w.floatField("tolerance", r.Tolerance, true)
	w.boolField("want_scheme", r.WantScheme)
	w.boolField("want_trees", r.WantTrees)
	w.intField("schedule_blocks", int64(r.ScheduleBlocks), true)
	w.stringField("prev_word", r.PrevWord, true)
	w.close()
}

func (w *writer) plan(p Plan) {
	w.open()
	w.intField("v", int64(p.V), false)
	w.stringField("solver", p.Solver, false)
	w.floatField("throughput", p.Throughput, false)
	w.floatField("tstar", p.TStar, false)
	w.floatField("ratio", p.Ratio, false)
	w.stringField("word", p.Word, true)
	w.intField("max_out_degree", int64(p.MaxOutDegree), true)
	w.intField("degree_slack", int64(p.DegreeSlack), true)
	w.boolField("acyclic", p.Acyclic)
	if len(p.Edges) > 0 {
		w.key("edges")
		w.b = w.edges(w.b, p.Edges, w.depth+1)
	}
	if len(p.Trees) > 0 {
		w.key("trees")
		w.b = w.trees(w.b, p.Trees, w.depth+1)
	}
	if s := p.Schedule; s != nil {
		w.key("schedule")
		w.open()
		w.intField("blocks", int64(s.Blocks), false)
		w.key("blocks_per_tree")
		w.b = w.ints(w.b, s.BlocksPerTree, w.depth+1)
		w.floatField("max_overload", s.MaxOverload, false)
		w.key("transmissions")
		w.b = w.transmissions(w.b, s.Transmissions, w.depth+1)
		w.close()
	}
	w.boolField("repaired", p.Repaired)
	w.floatField("verified", p.Verified, true)
	w.boolField("warm_started", p.WarmStarted)
	w.intField("neighbor_distance", int64(p.NeighborDistance), true)
	w.key("evals")
	w.evals(p.Evals)
	w.close()
}

func (w *writer) evals(e EvalCounts) {
	w.open()
	w.intField("flow_evals", e.FlowEvals, false)
	w.intField("greedy_tests", e.GreedyTests, false)
	w.intField("word_evals", e.WordEvals, false)
	w.intField("builds", e.Builds, false)
	w.close()
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
