package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
)

// writer renders the documents the daemon serves and keys on (Request,
// Plan, BatchPlans, JobItem) by appending to one byte slice, with no
// reflection, to the bytes an encoding/json Encoder with
// SetEscapeHTML(false) writes (plus SetIndent("", "  ") in indent
// mode): fields in struct order,
// omitempty as encoding/json defines it, nil slices as null, floats in
// its 'f'/'e' form. A string that needs an escape and a non-finite
// float (an encoding/json error) are left to encoding/json, which then
// renders the whole document; real documents hold neither.
type writer struct {
	b      []byte
	indent bool
	depth  int
	first  bool // nothing written yet in the innermost open container
	punt   bool // a value is left to encoding/json
}

// buffers recycles the writer's buffers; marshal returns copies.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// marshal renders v with its trailing newline: a covered document
// through the writer, any other type through encoding/json. That
// includes a top-level Instance, a Batch and a SessionReply: only the
// SDK and tests encode the first two, and no workload loads sessions.
// The writer's result is a copy sized to its content, so a document the
// cache keeps carries no spare capacity.
func marshal(v any, indent bool) ([]byte, error) {
	buf := buffers.Get().(*[]byte)
	defer buffers.Put(buf)
	w := writer{b: (*buf)[:0], indent: indent, first: true}
	switch d := v.(type) {
	case Request:
		w.request(d)
	case Plan:
		w.plan(d)
	case BatchPlans:
		w.batchPlans(d)
	case JobItem:
		w.jobItem(d)
	default:
		w.punt = true
	}
	if *buf = w.b; !w.punt {
		return bytes.Clone(append(w.b, '\n')), nil
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

// float formats like encoding/json: the shortest 'f' form, 'e' below
// 1e-6 or from 1e21 on with a one-digit negative exponent unpadded
// (e-7, not e-07).
func (w *writer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.punt = true
		return
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
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

func (w *writer) batchPlans(b BatchPlans) {
	w.open('{')
	w.intField("v", int64(b.V), false)
	list(w, "plans", b.Plans, false, (*writer).plan)
	w.close('}')
}

func (w *writer) jobItem(j JobItem) {
	w.open('{')
	w.intField("v", int64(j.V), false)
	w.intField("index", int64(j.Index), false)
	if j.Plan != nil {
		w.key("plan")
		w.plan(*j.Plan)
	}
	w.stringField("code", j.Code, true)
	w.stringField("error", j.Error, true)
	w.close('}')
}
