package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call: the layer it belongs to (Name), the op it
// served, the span that caused it (Parent, -1 for a root) and its
// interval on the recorder's monotonic clock.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans and per-op counters in memory until the run
// ends. A nil *Recorder records nothing, so untraced code paths call it
// unconditionally. It is safe for concurrent use: a replayed batch
// records solver spans from several workers at once.
type Recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []Span
	counts map[int]map[string]int64
}

// NewRecorder starts an empty recorder whose clock reads zero now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), counts: make(map[int]map[string]int64)}
}

// Begin opens a span and returns its id (-1 on a nil recorder).
func (r *Recorder) Begin(op, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(r.spans) - 1
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Add accumulates a per-op counter (work done, such as probes or flow
// evaluations, measured at the same boundary as a span).
func (r *Recorder) Add(op int, name string, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.counts[op]
	if m == nil {
		m = make(map[string]int64)
		r.counts[op] = m
	}
	m[name] += n
}

// Spans returns the closed spans recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Count returns the sum of a counter over all ops.
func (r *Recorder) Count(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	for _, m := range r.counts {
		sum += m[name]
	}
	return sum
}

// WriteFile dumps the spans as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children of one parent may
// overlap (a replayed batch solves items on several workers), so the
// covered part is the length of the union of the children's intervals,
// clipped to the parent's interval. The result is indexed like spans.
func SelfTimes(spans []Span) []time.Duration {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	kids := make(map[int][]int)
	for i, s := range spans {
		if _, ok := pos[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped
// to parent.
func covered(parent Span, spans []Span, children []int) time.Duration {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := spans[c].Start, spans[c].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, v := range ivs {
		if v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

// LayerSelf sums self times per op and span name: out[op][name].
func LayerSelf(spans []Span) map[int]map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[int]map[string]time.Duration)
	for i, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Op] = m
		}
		m[s.Name] += self[i]
	}
	return out
}

// Unattributed returns, per op, the round trip (the duration of the
// op's root span named root) minus the durations of the replayed calls
// (the children of the op's span named replay). The replay runs after
// the round trip, so its spans lie outside the root's interval and are
// subtracted by duration, not by overlap.
func Unattributed(spans []Span, root, replay string) map[int]time.Duration {
	rootDur := make(map[int]time.Duration)
	replayIDs := make(map[int]int) // span id → op
	for _, s := range spans {
		switch s.Name {
		case root:
			rootDur[s.Op] += s.End - s.Start
		case replay:
			replayIDs[s.ID] = s.Op
		}
	}
	out := make(map[int]time.Duration)
	for op, d := range rootDur {
		out[op] = d
	}
	for _, s := range spans {
		if op, ok := replayIDs[s.Parent]; ok {
			out[op] -= s.End - s.Start
		}
	}
	return out
}

// ReplayTally counts ops whose replayed cache tier disagrees with the
// label the service answered with. A disagreement is counted, never
// dropped, so a replay that drifts from the daemon shows in the report.
type ReplayTally struct {
	Compared   int
	Mismatches int
	First      []int // up to ten mismatching op ids, for the report
}

// Note records one op's served label against its replayed one.
func (t *ReplayTally) Note(op int, served, replayed string) {
	t.Compared++
	if served != replayed {
		t.Mismatches++
		if len(t.First) < 10 {
			t.First = append(t.First, op)
		}
	}
}
