package service

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/wire"
)

// The async job API: POST /v1/jobs accepts the same batch document as
// /v1/batch but returns a job id immediately instead of blocking the
// connection on N solves. The items run in the background on the fan-out
// /v1/batch uses (solveItems: at most Config.Workers engine.ForEach
// workers, items claimed in index order, one worker-gate permit per
// running item, each solved to its plan document through solveRendered)
// and land at their request index as NDJSON lines spliced from those
// documents. GET /v1/jobs/{id} reports progress; GET /v1/jobs/{id}/stream
// replays the per-item results as NDJSON in item order as they
// complete, writing every line that is ready and flushing once before
// it waits for the next, so a client consumes plan 0 while plan 7 is
// still solving. The stream is resumable: ?from=K skips the first
// K items, so a client that disconnected mid-batch reattaches at its
// last confirmed index without re-solving anything.
//
// Jobs outlive their submitting connection by design. Unlike /v1/batch
// (fail-fast, all-or-nothing), a job runs every item to completion and
// records per-item errors inline, so one infeasible instance does not
// poison the rest of a sweep. A job is done once its last line lands.
// Server.Close cancels the background context and waits for the
// workers; a job still running then ends "canceled": items already
// claimed finish (a canceled solve records a canceled line) and every
// item no worker claimed gets a canceled line.

// job is one asynchronous batch: per-item NDJSON lines filled in as
// solves complete, plus a broadcast channel stream readers wait on.
type job struct {
	id string

	mu        sync.Mutex
	lines     [][]byte // one NDJSON line per item; nil until complete
	completed int
	errs      int
	status    string
	update    chan struct{} // closed and replaced on every state change
}

// finishItem records item i's line and wakes every stream reader. The
// last line marks the job done in the same step, so a reader holding
// every line never finds the job running; when the server is already
// canceling the job, cancel marks it instead.
func (j *job) finishItem(i int, line []byte, failed, canceling bool) {
	j.mu.Lock()
	if j.lines[i] == nil {
		j.lines[i] = line
		j.completed++
		if failed {
			j.errs++
		}
		if j.completed == len(j.lines) && !canceling {
			j.status = wire.JobDone
		}
	}
	j.wakeLocked()
	j.mu.Unlock()
}

// cancel ends a job the server canceled before it was done: each item
// no worker claimed gets an error line carrying err, and the job is
// marked canceled.
func (j *job) cancel(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != wire.JobRunning {
		return // every line landed before the cancellation
	}
	for i, line := range j.lines {
		if line == nil {
			j.lines[i] = jobLine(i, nil, err)
			j.completed++
			j.errs++
		}
	}
	j.status = wire.JobCanceled
	j.wakeLocked()
}

// wakeLocked rotates the broadcast channel. Callers hold j.mu.
func (j *job) wakeLocked() {
	close(j.update)
	j.update = make(chan struct{})
}

// statusDoc snapshots the job for its status document.
func (j *job) statusDoc() wire.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return wire.JobStatus{
		V: wire.Version, Job: j.id, Status: j.status,
		Items: len(j.lines), Completed: j.completed, Errors: j.errs,
	}
}

// ---------------------------------------------------------------------------
// POST /v1/jobs

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	defer s.track("jobs")()
	reqs, err := s.readBatch(w, r, "job request")
	if err != nil {
		s.fail(w, err)
		return
	}
	if len(reqs) == 0 {
		s.fail(w, fmt.Errorf("%w: job request has no items", wire.ErrMalformed))
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.fail(w, fmt.Errorf("%w: server is shutting down", engine.ErrCanceled))
		return
	}
	s.nextJobID++
	id := fmt.Sprintf("j%d", s.nextJobID)
	if s.clustered() {
		// Namespace ids per replica: jobs are replica-local state, and a
		// client probing the cluster for "j3" must never get a false
		// positive from a replica that happens to run its own third job.
		id = fmt.Sprintf("j%d-%s", s.nextJobID, cluster.ShortID(s.cfg.Self))
	}
	j := &job{
		id:     id,
		lines:  make([][]byte, len(reqs)),
		status: wire.JobRunning,
		update: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.evictFinishedJobsLocked()
	s.jobsWG.Add(1)
	s.mu.Unlock()

	go s.runJob(j, reqs)

	doc, err := wire.Marshal(j.statusDoc())
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(doc)
}

// evictFinishedJobsLocked drops the oldest finished jobs beyond
// maxJobs retained. Running jobs are never evicted (their
// workers hold gate permits; their ids stay resolvable). Callers hold
// s.mu.
func (s *Server) evictFinishedJobsLocked() {
	excess := len(s.jobs) - maxJobs
	if excess <= 0 {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		terminal := j.status != wire.JobRunning
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// runJob runs every item on the shared fan-out, recording each outcome
// as its line; an item error never stops the others. Jobs are parented
// to the server's lifetime, not the submitting request's.
func (s *Server) runJob(j *job, reqs []engine.Request) {
	defer s.jobsWG.Done()
	err := s.solveItems(s.jobsCtx, reqs, func(i int, doc []byte, err error) error {
		j.finishItem(i, jobLine(i, doc, err), err != nil, s.jobsCtx.Err() != nil)
		return nil
	})
	if err != nil {
		j.cancel(err)
	}
}

// jobLine renders one item's NDJSON line: spliced from the item's plan
// document, or an error line.
func jobLine(i int, doc []byte, err error) []byte {
	if err == nil {
		return wire.EncodeJobLine(i, doc)
	}
	ed := wire.NewErrorDoc(err)
	// An error line holds strings and ints only: it always marshals.
	line, _ := wire.MarshalCompact(wire.JobItem{V: wire.Version, Index: i, Code: ed.Code, Error: ed.Error})
	return line
}

// ---------------------------------------------------------------------------
// GET /v1/jobs/{id} and /v1/jobs/{id}/stream

// lookupJob resolves a job id.
func (s *Server) lookupJob(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: no job %q", wire.ErrMalformed, id)
	}
	return j, nil
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	defer s.track("jobs")()
	j, err := s.lookupJob(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.replyDoc(w, j.statusDoc())
}

func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	defer s.track("jobstream")()
	j, err := s.lookupJob(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	from := 0
	if raw := r.URL.Query().Get("from"); raw != "" {
		from, err = strconv.Atoi(raw)
		if err != nil || from < 0 {
			s.fail(w, fmt.Errorf("%w: bad stream cursor %q (want a non-negative item index)", wire.ErrMalformed, raw))
			return
		}
	}
	j.mu.Lock()
	items := len(j.lines)
	j.mu.Unlock()
	if from > items {
		s.fail(w, fmt.Errorf("%w: stream cursor %d beyond job size %d", wire.ErrMalformed, from, items))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	for i := from; i < items; {
		j.mu.Lock()
		line := j.lines[i]
		update := j.update
		j.mu.Unlock()
		if line != nil {
			if f, ok := chaos.Hit(chaos.StreamWrite); ok {
				// Slow, torn stream write: stall, then flush a prefix of
				// the NDJSON line before the remainder — the client-side
				// scanner must reassemble it transparently.
				if err := chaos.Sleep(r.Context(), f.Delay); err != nil {
					return
				}
				if k := int(f.Frac * float64(len(line))); k > 0 && k < len(line) {
					if _, err := w.Write(line[:k]); err != nil {
						return
					}
					if flusher != nil {
						flusher.Flush()
					}
					line = line[k:]
				}
			}
			if _, err := w.Write(line); err != nil {
				return // client went away; the job keeps running
			}
			i++
			continue
		}
		// Every ready line is written: one flush sends them all (the
		// last run goes out when the handler returns).
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-update:
		case <-r.Context().Done():
			return
		}
	}
}

// jobCounts reports submitted and currently running jobs for /metrics.
func (s *Server) jobCounts() (submitted int64, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.status == wire.JobRunning {
			running++
		}
		j.mu.Unlock()
	}
	return s.nextJobID, running
}
