package wire

import (
	"bytes"
	"slices"
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
	// open and guarded are the memory instance reads its arrays into.
	open, guarded []float64
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

// each scans an array, elem reading each element, and reports true.
func (s *scanner) each(elem func()) bool {
	s.expect('[')
	if s.bad || s.accept(']') {
		return true
	}
	for !s.bad {
		elem()
		if !s.accept(',') {
			s.expect(']')
			break
		}
	}
	return true
}

// items scans an array into dst[:0], elem reading each element. []
// decodes to an empty, non-nil slice, as in encoding/json. An array of
// numbers takes its capacity from the commas before the first ']' (a
// hint: numbers hold neither); other arrays grow by append.
func items[T any](s *scanner, dst []T, elem func(*scanner) T) []T {
	v := dst[:0]
	if v == nil {
		v = []T{}
	}
	s.each(func() {
		if rest := s.d[s.i:]; len(v) == 0 && len(rest) > 0 && (rest[0] == '-' || '0' <= rest[0] && rest[0] <= '9') {
			if end := bytes.IndexByte(rest, ']'); end > 0 {
				v = slices.Grow(v, bytes.Count(rest[:end], []byte{','})+1)
			}
		}
		v = append(v, elem(s))
	})
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

// number scans a number in JSON grammar and returns its token and the
// decimal strconv.ParseFloat reads in it, |value| = sig·10^exp: the
// first 19 significant digits, the exponent's digits adding up to 10000
// at most, as in strconv, and inexact for a nonzero digit dropped. An
// int field's ParseInt then refuses a fraction or an exponent.
func (s *scanner) number() (tok []byte, sig uint64, exp int, inexact bool) {
	s.ws()
	start, d := s.i, s.d
	i, nd, pow := start, 0, 0
	// digits scans a run of one or more digits of part 'i' (integer) or
	// 'f' (fraction) into sig, or of part 'e' (exponent) into pow.
	digits := func(part byte) {
		j := i
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			c := d[i] - '0'
			switch {
			case part == 'e':
				if pow < 10000 {
					pow = pow*10 + int(c)
				}
			case nd < 19:
				if sig = sig*10 + uint64(c); sig > 0 {
					nd++
				}
				if part == 'f' {
					exp--
				}
			default:
				inexact = inexact || c > 0
				if part == 'i' {
					exp++
				}
			}
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
		digits('i')
	}
	if i < len(d) && d[i] == '.' {
		i++
		digits('f')
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		neg := i < len(d) && d[i] == '-'
		if i < len(d) && (d[i] == '+' || neg) {
			i++
		}
		if digits('e'); neg {
			pow = -pow
		}
		exp += pow
	}
	s.i = i
	return d[start:i], sig, exp, inexact
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float converts exactly without strconv when sig and 10^|exp| are both
// exact float64s (Clinger's fast path): IEEE rounds the one product or
// quotient once, and the sign goes on last, so -0 stays -0. Any other
// token goes through strconv.ParseFloat.
func (s *scanner) float() float64 {
	tok, sig, exp, inexact := s.number()
	if !s.bad && !inexact && sig <= 1<<53 && -22 <= exp && exp <= 22 {
		f := float64(sig)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if tok[0] == '-' {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

func (s *scanner) int() int {
	tok, _, _, _ := s.number()
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
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
			string(k) == "open" && set(&s.open, items(s, s.open, (*scanner).float)) && set(&in.Open, s.open) ||
			string(k) == "guarded" && set(&s.guarded, items(s, s.guarded, (*scanner).float)) && set(&in.Guarded, s.guarded)
	})
	return in
}

func (s *scanner) request() (r Request) {
	s.object(func(k []byte) bool {
		return string(k) == "v" && set(&r.V, s.int()) ||
			string(k) == "instance" && set(&r.Instance, s.instance()) ||
			string(k) == "solver" && set(&r.Solver, s.string()) ||
			string(k) == "need" && set(&r.Need, items(s, nil, (*scanner).string)) ||
			string(k) == "deadline_ms" && set(&r.DeadlineMS, s.float()) ||
			string(k) == "tolerance" && set(&r.Tolerance, s.float()) ||
			string(k) == "want_scheme" && set(&r.WantScheme, s.bool()) ||
			string(k) == "want_trees" && set(&r.WantTrees, s.bool()) ||
			string(k) == "schedule_blocks" && set(&r.ScheduleBlocks, s.int()) ||
			string(k) == "prev_word" && set(&r.PrevWord, s.string())
	})
	return r
}

// batch converts each item as its object closes: no []Request is built.
func (s *scanner) batch() (b batchItems) {
	s.object(func(k []byte) bool {
		return string(k) == "v" && set(&b.v, s.int()) ||
			string(k) == "requests" && s.each(func() {
				if r := s.request(); !s.bad {
					b.add(r)
				}
			})
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
			string(k) == "edges" && set(&p.Edges, items(s, nil, (*scanner).edge)) ||
			string(k) == "trees" && set(&p.Trees, items(s, nil, (*scanner).tree)) ||
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
			string(k) == "parent" && set(&t.Parent, items(s, nil, (*scanner).int))
	})
	return t
}

func (s *scanner) schedule() *Schedule {
	sc := new(Schedule)
	s.object(func(k []byte) bool {
		return string(k) == "blocks" && set(&sc.Blocks, s.int()) ||
			string(k) == "blocks_per_tree" && set(&sc.BlocksPerTree, items(s, nil, (*scanner).int)) ||
			string(k) == "max_overload" && set(&sc.MaxOverload, s.float()) ||
			string(k) == "transmissions" && set(&sc.Transmissions, items(s, nil, (*scanner).transmission))
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
