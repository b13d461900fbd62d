// Package wire is the versioned JSON codec of the Request/Plan API:
// the stable serialization of Instance, Request, Plan, the churn
// simulator's Timeline, and the batch, job, session and cluster
// documents that clients, the HTTP service (internal/service) and the
// CLIs exchange.
//
// Every document carries an explicit schema version field ("v": 1).
// Encoding is deterministic — two-space indented, struct-ordered
// fields, a trailing newline — so identical inputs produce
// byte-identical documents; the golden files under testdata/ and the
// service smoke test in CI pin this. Decoding is strict about the
// version (a missing or different "v" is an error wrapping ErrVersion)
// and lenient about unknown fields (a v1 reader skips additive v2
// fields); malformed input returns an error wrapping ErrMalformed and
// never panics (fuzz-tested).
//
// The documents the daemon keys on and solves to (Request, Plan) render
// through an append writer (writer.go), and Request, Instance, Batch and
// Plan documents decode through a one-pass scanner (scanner.go);
// neither uses reflection. Each handles only the plain shape this
// package writes and hands anything else to encoding/json — the writer
// a string that needs an escape or a non-finite float, the scanner any
// other input — so bytes, accepted inputs, values and errors are
// encoding/json's by construction. The batch answer and the job stream
// line are spliced from plan documents (EncodeBatchPlans,
// EncodeJobLine) to the bytes Marshal and MarshalCompact write for
// them. The other documents (errors, job status and error lines,
// timelines, cluster and soak documents, and a top-level Instance,
// Batch or SessionReply) are small or rare and stay on encoding/json.
// Differential tests and fuzzers (codec_test.go) hold the writer, the
// splice and the scanner to encoding/json.
//
// Versioning policy (see DESIGN.md, "API v2 and the service layer"):
// adding optional fields keeps "v": 1; renaming, removing or changing
// the meaning of a field bumps the version, and decoders keep
// accepting all versions they know.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Version is the wire schema version this package reads and writes.
const Version = 1

// Typed decode errors.
var (
	// ErrVersion reports a document whose "v" field is missing or not a
	// version this codec understands.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrMalformed reports input that is not a valid document of the
	// expected shape (bad JSON, invalid instance data, bad word
	// letters, unknown solver capability, ...).
	ErrMalformed = errors.New("wire: malformed document")
)

// Marshal renders any wire document in the canonical byte-stable form:
// two-space indent, struct field order, no HTML escaping, trailing
// newline — the bytes of an encoding/json Encoder set up that way,
// written without reflection for the documents the daemon serves and
// keys on. Every encoder in this package (and the service layer) goes
// through it, so identical values always serialize identically.
func Marshal(v any) ([]byte, error) { return marshal(v, true) }

// MarshalCompact renders a wire document as a single line of JSON plus
// a trailing newline — one NDJSON record, as streamed by the service's
// GET /v1/jobs/{id}/stream endpoint (which writes a plan's line with
// EncodeJobLine, to the same bytes). Like Marshal it is deterministic
// (struct field order, no HTML escaping), so identical values always
// produce identical lines.
func MarshalCompact(v any) ([]byte, error) { return marshal(v, false) }

// Unmarshal decodes data into v, wrapping syntax errors in
// ErrMalformed ("what" names the document in the message).
func Unmarshal(data []byte, v any, what string) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrMalformed, what, err)
	}
	return nil
}

// checkVersion validates a document's "v" field.
func checkVersion(v int, what string) error {
	if v != Version {
		return fmt.Errorf("%w: %s has v=%d, this codec speaks v=%d", ErrVersion, what, v, Version)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Instance

// Instance is the wire form of a platform instance.
type Instance struct {
	V       int       `json:"v"`
	B0      float64   `json:"b0"`
	Open    []float64 `json:"open,omitempty"`
	Guarded []float64 `json:"guarded,omitempty"`
}

// FromInstance converts a domain instance to its wire form.
func FromInstance(ins *platform.Instance) Instance {
	return Instance{V: Version, B0: ins.B0, Open: ins.OpenBW, Guarded: ins.GuardedBW}
}

// Instance validates and converts the wire form back to a domain
// instance (re-establishing the sorted invariant and prefix caches).
func (w Instance) Instance() (*platform.Instance, error) {
	if err := checkVersion(w.V, "instance"); err != nil {
		return nil, err
	}
	ins, err := platform.NewInstance(w.B0, w.Open, w.Guarded)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return ins, nil
}

// EncodeInstance renders an instance as a canonical wire document.
func EncodeInstance(ins *platform.Instance) ([]byte, error) { return Marshal(FromInstance(ins)) }

// DecodeInstance parses and validates a wire instance document.
func DecodeInstance(data []byte) (*platform.Instance, error) {
	w, err := decode(data, "instance", (*scanner).instance)
	if err != nil {
		return nil, err
	}
	return w.Instance()
}

// ---------------------------------------------------------------------------
// Request

// Request is the wire form of an engine.Request. The embedded instance
// document carries its own version field; words travel as ASCII
// ('o' open / 'g' guarded) so documents stay 7-bit clean.
type Request struct {
	V              int      `json:"v"`
	Instance       Instance `json:"instance"`
	Solver         string   `json:"solver,omitempty"`
	Need           []string `json:"need,omitempty"`
	DeadlineMS     float64  `json:"deadline_ms,omitempty"`
	Tolerance      float64  `json:"tolerance,omitempty"`
	WantScheme     bool     `json:"want_scheme,omitempty"`
	WantTrees      bool     `json:"want_trees,omitempty"`
	ScheduleBlocks int      `json:"schedule_blocks,omitempty"`
	PrevWord       string   `json:"prev_word,omitempty"`
}

// wordASCII renders a word with 'o'/'g' letters (ParseWord's input
// alphabet), the wire representation of encoding words.
func wordASCII(w core.Word) string {
	buf := make([]byte, len(w))
	for i, l := range w {
		if l == platform.Open {
			buf[i] = 'o'
		} else {
			buf[i] = 'g'
		}
	}
	return string(buf)
}

// FromRequest converts a domain request to its wire form.
func FromRequest(req engine.Request) Request {
	w := Request{
		V:              Version,
		Solver:         req.Solver,
		Need:           req.Need.Names(),
		Tolerance:      req.Tolerance,
		WantScheme:     req.WantScheme,
		WantTrees:      req.WantTrees,
		ScheduleBlocks: req.ScheduleBlocks,
		PrevWord:       wordASCII(req.PrevWord),
	}
	if req.Instance != nil {
		w.Instance = FromInstance(req.Instance)
	}
	if req.Deadline > 0 {
		w.DeadlineMS = float64(req.Deadline) / float64(time.Millisecond)
	}
	return w
}

// Request validates and converts the wire form to a domain request.
func (w Request) Request() (engine.Request, error) {
	if err := checkVersion(w.V, "request"); err != nil {
		return engine.Request{}, err
	}
	ins, err := w.Instance.Instance()
	if err != nil {
		return engine.Request{}, err
	}
	// Go leaves a float-to-int conversion out of range to the
	// implementation (amd64 gives MinInt64, arm64 saturates), so a
	// deadline that does not fit in int64 nanoseconds is refused here.
	deadline := w.DeadlineMS * float64(time.Millisecond)
	if !(math.Abs(deadline) < 1<<63) {
		return engine.Request{}, fmt.Errorf("%w: deadline_ms %v does not fit in a time.Duration", ErrMalformed, w.DeadlineMS)
	}
	req := engine.Request{
		Instance:       ins,
		Solver:         w.Solver,
		Tolerance:      w.Tolerance,
		WantScheme:     w.WantScheme,
		WantTrees:      w.WantTrees,
		ScheduleBlocks: w.ScheduleBlocks,
		Deadline:       time.Duration(deadline),
	}
	for _, name := range w.Need {
		c, err := engine.ParseCapability(name)
		if err != nil {
			return engine.Request{}, fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		req.Need |= c
	}
	if w.PrevWord != "" {
		if req.PrevWord, err = core.ParseWord(w.PrevWord); err != nil {
			return engine.Request{}, fmt.Errorf("%w: %w", ErrMalformed, err)
		}
	}
	if req.Tolerance < 0 || req.Deadline < 0 || req.ScheduleBlocks < 0 {
		return engine.Request{}, fmt.Errorf("%w: negative tolerance, deadline or schedule_blocks", ErrMalformed)
	}
	return req, nil
}

// EncodeRequest renders a request as a canonical wire document.
func EncodeRequest(req engine.Request) ([]byte, error) { return marshal(FromRequest(req), true) }

// DecodeRequest parses and validates a wire request document.
func DecodeRequest(data []byte) (engine.Request, error) {
	w, err := decode(data, "request", (*scanner).request)
	if err != nil {
		return engine.Request{}, err
	}
	return w.Request()
}

// ---------------------------------------------------------------------------
// Plan

// Edge is one positive-rate connection of a scheme.
type Edge struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Rate float64 `json:"rate"`
}

// Tree is one weighted broadcast tree of a decomposition: Parent[v] is
// the node v receives from (−1 for the source).
type Tree struct {
	Weight float64 `json:"weight"`
	Parent []int   `json:"parent"`
}

// Transmission is one periodic schedule assignment.
type Transmission struct {
	From  int `json:"from"`
	To    int `json:"to"`
	Block int `json:"block"`
	Tree  int `json:"tree"`
}

// Schedule is the wire form of a periodic block-transmission plan.
type Schedule struct {
	Blocks        int            `json:"blocks"`
	BlocksPerTree []int          `json:"blocks_per_tree"`
	MaxOverload   float64        `json:"max_overload"`
	Transmissions []Transmission `json:"transmissions"`
}

// EvalCounts is the deterministic subset of the workspace counters a
// plan reports (scratch Grows is warmth-dependent and excluded, as in
// the sim timeline).
type EvalCounts struct {
	FlowEvals   int64 `json:"flow_evals"`
	GreedyTests int64 `json:"greedy_tests"`
	WordEvals   int64 `json:"word_evals"`
	Builds      int64 `json:"builds"`
}

// evalCounts projects workspace counters onto their wire form.
func evalCounts(st core.WorkspaceStats) EvalCounts {
	return EvalCounts{FlowEvals: st.FlowEvals, GreedyTests: st.GreedyTests, WordEvals: st.WordEvals, Builds: st.Builds}
}

// Plan is the wire form of an engine.Plan. Wall-clock time is
// deliberately absent: plan documents are byte-stable for identical
// requests, which the service golden tests rely on.
type Plan struct {
	V            int       `json:"v"`
	Solver       string    `json:"solver"`
	Throughput   float64   `json:"throughput"`
	TStar        float64   `json:"tstar"`
	Ratio        float64   `json:"ratio"`
	Word         string    `json:"word,omitempty"`
	MaxOutDegree int       `json:"max_out_degree,omitempty"`
	DegreeSlack  int       `json:"degree_slack,omitempty"`
	Acyclic      bool      `json:"acyclic,omitempty"`
	Edges        []Edge    `json:"edges,omitempty"`
	Trees        []Tree    `json:"trees,omitempty"`
	Schedule     *Schedule `json:"schedule,omitempty"`
	Repaired     bool      `json:"repaired,omitempty"`
	Verified     float64   `json:"verified,omitempty"`
	// WarmStarted and NeighborDistance report plan-store warm-start
	// provenance (engine.Result's fields of the same names). Additive
	// and omitempty: cold plans render byte-identically to before, so
	// the golden documents and the content-addressed store keep their
	// byte-stability guarantee under v1.
	WarmStarted      bool       `json:"warm_started,omitempty"`
	NeighborDistance int        `json:"neighbor_distance,omitempty"`
	Evals            EvalCounts `json:"evals"`
}

// FromPlan converts a domain plan to its wire form.
func FromPlan(p *engine.Plan) Plan {
	w := Plan{
		V:                Version,
		Solver:           p.Solver,
		Throughput:       p.Throughput,
		TStar:            p.TStar,
		Ratio:            p.Ratio(),
		Word:             wordASCII(p.Word),
		Repaired:         p.Repaired,
		Verified:         p.Verified,
		WarmStarted:      p.WarmStarted,
		NeighborDistance: p.NeighborDistance,
		Evals:            evalCounts(p.Evals),
	}
	if p.Scheme != nil {
		w.MaxOutDegree = p.MaxOutDegree
		w.DegreeSlack = p.MaxDegreeSlack
		w.Acyclic = p.Scheme.IsAcyclic()
		if es := p.Scheme.Edges(); len(es) > 0 {
			w.Edges = make([]Edge, len(es))
			for i, e := range es {
				w.Edges[i] = Edge{From: e.From, To: e.To, Rate: e.Weight}
			}
		}
	}
	for _, t := range p.Trees {
		w.Trees = append(w.Trees, Tree{Weight: t.Weight, Parent: t.Parent})
	}
	if p.Schedule != nil {
		s := &Schedule{
			Blocks:        p.Schedule.Blocks,
			BlocksPerTree: p.Schedule.BlocksPerTree,
			MaxOverload:   p.Schedule.MaxOverload,
		}
		for _, tr := range p.Schedule.Transmissions {
			s.Transmissions = append(s.Transmissions, Transmission{
				From: tr.From, To: tr.To, Block: tr.Block, Tree: tr.Tree,
			})
		}
		w.Schedule = s
	}
	return w
}

// EncodePlan renders a plan as a canonical wire document.
func EncodePlan(p *engine.Plan) ([]byte, error) { return marshal(FromPlan(p), true) }

// DecodePlan parses a wire plan document into its client-side view
// (the wire struct itself — plans are answers, not round-trip domain
// objects; the word and edge list carry everything a client needs to
// rebuild the overlay).
func DecodePlan(data []byte) (Plan, error) {
	w, err := decode(data, "plan", (*scanner).plan)
	if err != nil {
		return Plan{}, err
	}
	if err := checkVersion(w.V, "plan"); err != nil {
		return Plan{}, err
	}
	return w, nil
}

// ---------------------------------------------------------------------------
// Errors

// Machine-readable error codes carried by ErrorDoc. Each code maps to
// one typed sentinel, so a client can reconstruct an error a remote
// service returned and branch on it with errors.Is exactly as if the
// engine had failed locally.
const (
	CodeMalformed     = "malformed"      // wire.ErrMalformed: bad document
	CodeVersion       = "version"        // wire.ErrVersion: unsupported "v"
	CodeUnknownSolver = "unknown-solver" // engine.ErrUnknownSolver
	CodeInfeasible    = "infeasible"     // engine.ErrInfeasible
	CodeCanceled      = "canceled"       // engine.ErrCanceled
	CodeInternal      = "internal"       // anything else
)

// CodeMapping binds one wire error code to the typed sentinel it
// names and the HTTP status the service answers it with. The exported
// table (CodeMappings) is the single source of truth for the code ↔
// sentinel ↔ status relation: the service derives response statuses
// from it, peers and the gateway classify forwarded failures with it,
// and the client SDK reconstructs sentinels from it — so the three
// layers can never drift apart.
type CodeMapping struct {
	// Code is the machine-readable error code carried on the wire.
	Code string
	// Sentinel is the typed error the code names (errors.Is target).
	Sentinel error
	// HTTPStatus is the response status the service maps the sentinel
	// to.
	HTTPStatus int
}

// codeTable orders the mapping; first match wins on encode (decode
// errors shadow engine errors — a malformed document is the caller's
// fault even if the message also mentions an engine condition).
var codeTable = []CodeMapping{
	{CodeVersion, ErrVersion, http.StatusBadRequest},
	{CodeMalformed, ErrMalformed, http.StatusBadRequest},
	{CodeUnknownSolver, engine.ErrUnknownSolver, http.StatusBadRequest},
	{CodeInfeasible, engine.ErrInfeasible, http.StatusUnprocessableEntity},
	{CodeCanceled, engine.ErrCanceled, http.StatusGatewayTimeout},
}

// CodeMappings returns the code ↔ sentinel ↔ HTTP-status table in
// match order (shared slice — do not mutate).
func CodeMappings() []CodeMapping { return codeTable }

// CodeFor classifies an error into its wire code (CodeInternal when no
// sentinel matches).
func CodeFor(err error) string {
	for _, m := range codeTable {
		if errors.Is(err, m.Sentinel) {
			return m.Code
		}
	}
	return CodeInternal
}

// StatusFor maps an error to the HTTP status the service answers it
// with (500 when no sentinel matches).
func StatusFor(err error) int {
	for _, m := range codeTable {
		if errors.Is(err, m.Sentinel) {
			return m.HTTPStatus
		}
	}
	return http.StatusInternalServerError
}

// ErrorDoc is the wire form of a failed request: {"v":1, "code":...,
// "error":...}. The code names the typed sentinel the failure wraps
// (see the Code constants); the error string is the human-readable
// message. Decoders tolerate a missing code (older services) — Err
// then returns an untyped error.
type ErrorDoc struct {
	V     int    `json:"v"`
	Code  string `json:"code,omitempty"`
	Error string `json:"error"`
}

// NewErrorDoc classifies err into its wire form.
func NewErrorDoc(err error) ErrorDoc {
	return ErrorDoc{V: Version, Code: CodeFor(err), Error: err.Error()}
}

// remoteError is a reconstructed service failure: the server's message
// verbatim, unwrapping to the sentinel its code names.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// Err reconstructs the typed error the document describes:
// errors.Is(doc.Err(), engine.ErrInfeasible) holds exactly when the
// service's original error wrapped engine.ErrInfeasible. Unknown or
// missing codes produce an error matching no sentinel.
func (d ErrorDoc) Err() error {
	msg := d.Error
	if msg == "" {
		msg = "wire: service reported an unspecified error"
	}
	for _, m := range codeTable {
		if m.Code == d.Code {
			return &remoteError{sentinel: m.Sentinel, msg: msg}
		}
	}
	return errors.New(msg)
}

// ---------------------------------------------------------------------------
// Timeline

// Timeline wraps the churn simulator's deterministic event record in
// the versioned envelope; the embedded fields inline, so the document
// is {"v": 1, "seed": ..., "entries": [...], ...}.
type Timeline struct {
	V int `json:"v"`
	sim.Timeline
}

// FromTimeline converts a sim timeline to its wire form.
func FromTimeline(tl *sim.Timeline) Timeline { return Timeline{V: Version, Timeline: *tl} }

// EncodeTimeline renders a timeline as a canonical wire document.
func EncodeTimeline(tl *sim.Timeline) ([]byte, error) { return Marshal(FromTimeline(tl)) }

// DecodeTimeline parses and validates a wire timeline document.
func DecodeTimeline(data []byte) (*sim.Timeline, error) {
	var w Timeline
	if err := Unmarshal(data, &w, "timeline"); err != nil {
		return nil, err
	}
	if err := checkVersion(w.V, "timeline"); err != nil {
		return nil, err
	}
	return &w.Timeline, nil
}
