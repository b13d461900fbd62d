package wire

import (
	"bytes"
	"strconv"
)

// scanner decodes Request, Instance, Batch and Plan documents in one
// pass. It accepts only the plain shape this package writes: each
// field's exact key at most once, JSON whitespace, JSON-grammar numbers
// (integral ones for int fields), printable-ASCII strings without
// escapes, true, false and arrays, and nothing after the document. On
// anything else the scan is bad and decode hands the whole input to
// encoding/json, so what is accepted, the values and the errors are
// encoding/json's by construction.
type scanner struct {
	d   []byte
	i   int
	bad bool
	// keys holds the keys read so far of the objects being scanned,
	// innermost last: at most 23 in any key order (sixteen plan keys,
	// three of its schedule's, four of a transmission's).
	keys  [24][]byte
	nkeys int
}

// decode reads a T from data with read when the input stays on the
// scanner's path, and with encoding/json (wrapped as Unmarshal wraps
// it) when it does not.
func decode[T any](data []byte, what string, read func(*scanner) T) (T, error) {
	if v, ok := scan(data, read); ok {
		return v, nil
	}
	var v T
	err := Unmarshal(data, &v, what)
	return v, err
}

// scan reads data with read and reports whether the whole input stayed
// on the scanner's path; v is meaningful only then.
func scan[T any](data []byte, read func(*scanner) T) (v T, ok bool) {
	s := scanner{d: data}
	v = read(&s)
	s.ws()
	return v, !s.bad && s.i == len(s.d)
}

func (s *scanner) ws() {
	i := s.i
	for i < len(s.d) && (s.d[i] == ' ' || s.d[i] == '\n' || s.d[i] == '\t' || s.d[i] == '\r') {
		i++
	}
	s.i = i
}

// accept consumes c, after whitespace, when it comes next.
func (s *scanner) accept(c byte) bool {
	s.ws()
	if s.i < len(s.d) && s.d[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) expect(c byte) {
	if !s.accept(c) {
		s.bad = true
	}
}

// object scans one object, handing each key to field, which scans the
// value and reports whether it knows the key. An unknown key, or one
// already seen in this object, marks the scan bad. field is one chain
// of `key == "name" && set(&dst, s.value())` terms, one per field.
func (s *scanner) object(field func(key []byte) bool) {
	base := s.nkeys
	s.expect('{')
	if s.bad || s.accept('}') {
		return
	}
	for !s.bad {
		k := s.token()
		s.expect(':')
		for _, seen := range s.keys[base:s.nkeys] {
			if string(seen) == string(k) {
				s.bad = true
			}
		}
		if s.bad || s.nkeys == len(s.keys) || !field(k) {
			s.bad = true
			break
		}
		s.keys[s.nkeys] = k
		s.nkeys++
		if !s.accept(',') {
			s.expect('}')
			break
		}
	}
	s.nkeys = base
}

// items scans an array, elem reading each element. [] decodes to an
// empty, non-nil slice, as in encoding/json. An array of numbers takes
// its capacity from the commas before the first ']' (a hint: numbers
// hold neither); other arrays grow by append.
func items[T any](s *scanner, elem func(*scanner) T) []T {
	v := []T{}
	s.expect('[')
	if s.bad || s.accept(']') {
		return v
	}
	if rest := s.d[s.i:]; len(rest) > 0 && (rest[0] == '-' || '0' <= rest[0] && rest[0] <= '9') {
		if end := bytes.IndexByte(rest, ']'); end > 0 {
			v = make([]T, 0, bytes.Count(rest[:end], []byte{','})+1)
		}
	}
	for !s.bad {
		v = append(v, elem(s))
		if !s.accept(',') {
			s.expect(']')
			break
		}
	}
	return v
}

// token scans a string of printable ASCII with no escape and returns
// its bytes, quotes stripped.
func (s *scanner) token() []byte {
	s.expect('"')
	for j := s.i; j < len(s.d) && !s.bad; j++ {
		switch c := s.d[j]; {
		case c == '"':
			tok := s.d[s.i:j]
			s.i = j + 1
			return tok
		case c < 0x20 || c > 0x7e || c == '\\':
			s.bad = true
		}
	}
	s.bad = true
	return nil
}

func (s *scanner) string() string { return string(s.token()) }

// number scans a number in JSON grammar. An int field's ParseInt then
// refuses a fraction or an exponent.
func (s *scanner) number() []byte {
	s.ws()
	start, d := s.i, s.d
	i := start
	digits := func() {
		j := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		if i == j {
			s.bad = true
		}
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else {
		digits()
	}
	if i < len(d) && d[i] == '.' {
		i++
		digits()
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		digits()
	}
	s.i = i
	return d[start:i]
}

func (s *scanner) float() float64 {
	f, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

func (s *scanner) int() int {
	n, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	if err != nil {
		s.bad = true
	}
	return int(n)
}

func (s *scanner) bool() bool {
	s.ws()
	for _, lit := range [...]string{"true", "false"} {
		if len(s.d)-s.i >= len(lit) && string(s.d[s.i:s.i+len(lit)]) == lit {
			s.i += len(lit)
			return lit == "true"
		}
	}
	s.bad = true
	return false
}

// set stores v in *dst and reports true (see object).
func set[T any](dst *T, v T) bool {
	*dst = v
	return true
}

// ---------------------------------------------------------------------------
// Documents. Every int64 field is read as an int: on a platform with
// 32-bit ints a larger count leaves the scan, and encoding/json reads it.

func (s *scanner) instance() (in Instance) {
	s.object(func(k []byte) bool {
		return string(k) == "v" && set(&in.V, s.int()) ||
			string(k) == "b0" && set(&in.B0, s.float()) ||
			string(k) == "open" && set(&in.Open, items(s, (*scanner).float)) ||
			string(k) == "guarded" && set(&in.Guarded, items(s, (*scanner).float))
	})
	return in
}

func (s *scanner) request() (r Request) {
	s.object(func(k []byte) bool {
		return string(k) == "v" && set(&r.V, s.int()) ||
			string(k) == "instance" && set(&r.Instance, s.instance()) ||
			string(k) == "solver" && set(&r.Solver, s.string()) ||
			string(k) == "need" && set(&r.Need, items(s, (*scanner).string)) ||
			string(k) == "deadline_ms" && set(&r.DeadlineMS, s.float()) ||
			string(k) == "tolerance" && set(&r.Tolerance, s.float()) ||
			string(k) == "want_scheme" && set(&r.WantScheme, s.bool()) ||
			string(k) == "want_trees" && set(&r.WantTrees, s.bool()) ||
			string(k) == "schedule_blocks" && set(&r.ScheduleBlocks, s.int()) ||
			string(k) == "prev_word" && set(&r.PrevWord, s.string())
	})
	return r
}

func (s *scanner) batch() (b Batch) {
	s.object(func(k []byte) bool {
		return string(k) == "v" && set(&b.V, s.int()) ||
			string(k) == "requests" && set(&b.Requests, items(s, (*scanner).request))
	})
	return b
}

func (s *scanner) plan() (p Plan) {
	s.object(func(k []byte) bool {
		return string(k) == "v" && set(&p.V, s.int()) ||
			string(k) == "solver" && set(&p.Solver, s.string()) ||
			string(k) == "throughput" && set(&p.Throughput, s.float()) ||
			string(k) == "tstar" && set(&p.TStar, s.float()) ||
			string(k) == "ratio" && set(&p.Ratio, s.float()) ||
			string(k) == "word" && set(&p.Word, s.string()) ||
			string(k) == "max_out_degree" && set(&p.MaxOutDegree, s.int()) ||
			string(k) == "degree_slack" && set(&p.DegreeSlack, s.int()) ||
			string(k) == "acyclic" && set(&p.Acyclic, s.bool()) ||
			string(k) == "edges" && set(&p.Edges, items(s, (*scanner).edge)) ||
			string(k) == "trees" && set(&p.Trees, items(s, (*scanner).tree)) ||
			string(k) == "schedule" && set(&p.Schedule, s.schedule()) ||
			string(k) == "repaired" && set(&p.Repaired, s.bool()) ||
			string(k) == "verified" && set(&p.Verified, s.float()) ||
			string(k) == "warm_started" && set(&p.WarmStarted, s.bool()) ||
			string(k) == "neighbor_distance" && set(&p.NeighborDistance, s.int()) ||
			string(k) == "evals" && set(&p.Evals, s.evals())
	})
	return p
}

func (s *scanner) edge() (e Edge) {
	s.object(func(k []byte) bool {
		return string(k) == "from" && set(&e.From, s.int()) ||
			string(k) == "to" && set(&e.To, s.int()) ||
			string(k) == "rate" && set(&e.Rate, s.float())
	})
	return e
}

func (s *scanner) tree() (t Tree) {
	s.object(func(k []byte) bool {
		return string(k) == "weight" && set(&t.Weight, s.float()) ||
			string(k) == "parent" && set(&t.Parent, items(s, (*scanner).int))
	})
	return t
}

func (s *scanner) schedule() *Schedule {
	sc := new(Schedule)
	s.object(func(k []byte) bool {
		return string(k) == "blocks" && set(&sc.Blocks, s.int()) ||
			string(k) == "blocks_per_tree" && set(&sc.BlocksPerTree, items(s, (*scanner).int)) ||
			string(k) == "max_overload" && set(&sc.MaxOverload, s.float()) ||
			string(k) == "transmissions" && set(&sc.Transmissions, items(s, (*scanner).transmission))
	})
	return sc
}

func (s *scanner) transmission() (t Transmission) {
	s.object(func(k []byte) bool {
		return string(k) == "from" && set(&t.From, s.int()) ||
			string(k) == "to" && set(&t.To, s.int()) ||
			string(k) == "block" && set(&t.Block, s.int()) ||
			string(k) == "tree" && set(&t.Tree, s.int())
	})
	return t
}

func (s *scanner) evals() (e EvalCounts) {
	s.object(func(k []byte) bool {
		return string(k) == "flow_evals" && set(&e.FlowEvals, int64(s.int())) ||
			string(k) == "greedy_tests" && set(&e.GreedyTests, int64(s.int())) ||
			string(k) == "word_evals" && set(&e.WordEvals, int64(s.int())) ||
			string(k) == "builds" && set(&e.Builds, int64(s.int()))
	})
	return e
}
