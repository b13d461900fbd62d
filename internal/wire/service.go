package wire

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Service documents: the batch and job documents of /v1/batch and
// /v1/jobs, and the session documents of /v1/session. The service
// answers with them and the client SDK and the soak harness send and
// read them, so each shape is declared once, here.

// Batch is the document /v1/batch and /v1/jobs both accept.
type Batch struct {
	V        int       `json:"v"`
	Requests []Request `json:"requests"`
}

// EncodeBatch renders requests as a canonical batch document.
func EncodeBatch(reqs []engine.Request) ([]byte, error) {
	doc := Batch{V: Version, Requests: make([]Request, len(reqs))}
	for i, r := range reqs {
		doc.Requests[i] = FromRequest(r)
	}
	return Marshal(doc)
}

// DecodeBatch parses a batch document: the version is checked, then
// every item is validated before any request is returned. what names
// the document in error messages. The scanner converts each item as its
// object closes, encoding/json's path after the whole document.
func DecodeBatch(data []byte, what string) ([]engine.Request, error) {
	b, ok := scan(data, (*scanner).batch)
	if !ok {
		var doc Batch
		if err := Unmarshal(data, &doc, what); err != nil {
			return nil, err
		}
		b = batchItems{v: doc.V}
		for _, wr := range doc.Requests {
			b.add(wr)
		}
	}
	if b.v != Version {
		return nil, fmt.Errorf("%w: %s has v=%d", ErrVersion, what, b.v)
	}
	return b.reqs, b.err
}

// batchItems is a batch document as its items convert: its version,
// the requests so far, or none and the first item that did not convert.
type batchItems struct {
	v    int
	reqs []engine.Request
	err  error
}

// add converts the next item; after a failure it does nothing.
func (b *batchItems) add(wr Request) {
	if b.err != nil {
		return
	}
	if req, err := wr.Request(); err != nil {
		b.reqs, b.err = nil, fmt.Errorf("request %d: %w", len(b.reqs), err)
	} else {
		b.reqs = append(b.reqs, req)
	}
}

// BatchPlans answers a Batch: Plans[i] answers Requests[i].
type BatchPlans struct {
	V     int    `json:"v"`
	Plans []Plan `json:"plans"`
}

// JobStatus values.
const (
	JobRunning  = "running"
	JobDone     = "done"
	JobCanceled = "canceled" // the server shut down mid-job
)

// JobStatus answers POST /v1/jobs and GET /v1/jobs/{id}: a job's
// progress snapshot.
type JobStatus struct {
	V         int    `json:"v"`
	Job       string `json:"job"`
	Status    string `json:"status"` // running | done | canceled
	Items     int    `json:"items"`
	Completed int    `json:"completed"`
	Errors    int    `json:"errors"`
}

// Done reports whether the job has reached a terminal state.
func (s JobStatus) Done() bool { return s.Status != JobRunning }

// JobItem is one NDJSON line of GET /v1/jobs/{id}/stream: the item's
// plan, or its error.
type JobItem struct {
	V     int    `json:"v"`
	Index int    `json:"index"`
	Plan  *Plan  `json:"plan,omitempty"`
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// SessionRequest is the document of every /v1/session call.
type SessionRequest struct {
	V       int    `json:"v"`
	Op      string `json:"op"` // open | resolve | close
	Session string `json:"session,omitempty"`
	// Solver names the engine solver for "open" (default "acyclic").
	Solver string `json:"solver,omitempty"`
	// NoRepair disables the incremental-repair path for "open".
	NoRepair bool `json:"no_repair,omitempty"`
	// Instance is the platform state to re-solve for "resolve".
	Instance Instance `json:"instance"`
}

// SessionStats is the deterministic projection of engine.SessionStats
// (sim.Summarize builds it).
type SessionStats = sim.SessionSummary

// SessionReply answers every session op: open returns the id, resolve
// returns the plan (and running stats), close returns the final stats.
type SessionReply struct {
	V       int           `json:"v"`
	Session string        `json:"session"`
	Solver  string        `json:"solver,omitempty"`
	Plan    *Plan         `json:"plan,omitempty"`
	Stats   *SessionStats `json:"stats,omitempty"`
}
