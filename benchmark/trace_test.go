package main

import (
	"testing"
	"time"
)

const us = time.Microsecond

// tree is a synthetic nested span tree (children inside their parent,
// siblings disjoint): root ⊃ {a ⊃ {c}, b ⊃ {d, e}}.
func tree() []Span {
	return []Span{
		{ID: 0, Parent: -1, Op: 7, Name: "root", Start: 0, End: 100 * us},
		{ID: 1, Parent: 0, Op: 7, Name: "a", Start: 10 * us, End: 40 * us},
		{ID: 2, Parent: 0, Op: 7, Name: "b", Start: 50 * us, End: 90 * us},
		{ID: 3, Parent: 1, Op: 7, Name: "c", Start: 20 * us, End: 30 * us},
		{ID: 4, Parent: 2, Op: 7, Name: "d", Start: 55 * us, End: 60 * us},
		{ID: 5, Parent: 2, Op: 7, Name: "e", Start: 70 * us, End: 85 * us},
	}
}

func TestSelfTimesSumToRootDuration(t *testing.T) {
	spans := tree()
	var sum time.Duration
	for _, d := range SelfTimes(spans) {
		sum += d
	}
	if root := spans[0].End - spans[0].Start; sum != root {
		t.Fatalf("self times sum to %v, root lasts %v", sum, root)
	}
	want := []time.Duration{30 * us, 20 * us, 20 * us, 10 * us, 5 * us, 15 * us}
	for i, d := range SelfTimes(spans) {
		if d != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, d, want[i])
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two parallel workers under one batch span: their union, not their
	// sum, is covered. A child running past its parent is clipped.
	spans := []Span{
		{ID: 0, Parent: -1, Name: "batch", Start: 0, End: 100 * us},
		{ID: 1, Parent: 0, Name: "w1", Start: 10 * us, End: 60 * us},
		{ID: 2, Parent: 0, Name: "w2", Start: 40 * us, End: 80 * us},
		{ID: 3, Parent: 0, Name: "late", Start: 95 * us, End: 130 * us},
	}
	if got := SelfTimes(spans)[0]; got != 25*us {
		t.Fatalf("batch self %v, want 25µs (100 − union 70 − clipped 5)", got)
	}
}

func TestLayerSelfAndUnattributed(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Op: 1, Name: "client.op", Start: 0, End: 100 * us},
		{ID: 1, Parent: -1, Op: 1, Name: "bench.replay", Start: 110 * us, End: 200 * us},
		{ID: 2, Parent: 1, Op: 1, Name: "wire.decode_request", Start: 110 * us, End: 130 * us},
		{ID: 3, Parent: 1, Op: 1, Name: "engine.cache", Start: 130 * us, End: 190 * us},
		{ID: 4, Parent: 3, Op: 1, Name: "core.search", Start: 140 * us, End: 150 * us},
		{ID: 5, Parent: 3, Op: 1, Name: "core.search", Start: 160 * us, End: 175 * us},
	}
	layers := LayerSelf(spans)[1]
	if layers["core.search"] != 25*us || layers["engine.cache"] != 35*us {
		t.Fatalf("layer self times %v", layers)
	}
	if got := Unattributed(spans, "client.op", "bench.replay")[1]; got != 20*us {
		t.Fatalf("unattributed %v, want 100 − 20 − 60 = 20µs", got)
	}
}

func TestReplayMismatchIsCountedNotDropped(t *testing.T) {
	var tally ReplayTally
	tally.Note(0, "hit", "hit")
	tally.Note(1, "warm", "miss")
	tally.Note(2, "miss", "miss")
	tally.Note(3, "error", "miss")
	if tally.Compared != 4 || tally.Mismatches != 2 {
		t.Fatalf("compared %d, mismatches %d; want 4 and 2", tally.Compared, tally.Mismatches)
	}
	if len(tally.First) != 2 || tally.First[0] != 1 || tally.First[1] != 3 {
		t.Fatalf("first mismatching ops %v, want [1 3]", tally.First)
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	var none *Recorder
	if id := none.Begin(0, -1, "x"); id != -1 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	none.End(-1)
	none.Add(0, "n", 1)
	if none.Spans() != nil || none.Count("n") != 0 {
		t.Fatal("nil recorder kept data")
	}

	r := NewRecorder()
	root := r.Begin(3, -1, "root")
	child := r.Begin(3, root, "child")
	r.End(child)
	open := r.Begin(3, root, "unfinished")
	r.End(root)
	r.Add(3, "probes", 5)
	r.Add(4, "probes", 2)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || open < 0 {
		t.Fatalf("spans %+v", spans)
	}
	if self := SelfTimes(spans); self[0]+self[1] != spans[0].End-spans[0].Start {
		t.Fatalf("recorded self times %v do not sum to the root", self)
	}
	if r.Count("probes") != 7 {
		t.Fatalf("count %d, want 7", r.Count("probes"))
	}
}
