package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

// This file keeps the Algorithm 2 loop and the Add-based Lemma 4.6 walk
// as they stood before the probe loop was tightened and the build began
// recording its transfers, and holds the rewritten code to them letter
// for letter and arc for arc.

// refGreedyTest is the previous Algorithm 2 loop, verbatim apart from
// its name: one switch picks the letter, a second branch applies it.
func refGreedyTest(ins *platform.Instance, T float64, trace bool, word Word) (Word, []TraceStep, bool) {
	n, m := ins.N(), ins.M()
	if T <= 0 {
		return nil, nil, false
	}
	eps := tol(T)
	// bO[k] = bandwidth of the k-th open node (1-based), bG likewise.
	// Hoisted locals (slices, T−eps) keep the Θ(n+m) probe loop free of
	// repeated pointer loads — this loop is the single hottest region of
	// the whole sweep profile.
	bO, bG := ins.OpenBW, ins.GuardedBW
	Tme := T - eps
	O := ins.B0
	G := 0.0
	W := 0.0
	i, j := 0, 0 // open and guarded letters already placed
	word = word[:0]
	var steps []TraceStep

	for i+j < n+m {
		if O+G < Tme {
			return word, steps, false
		}
		letter := platform.Guarded
		if i != n {
			switch {
			case j == m:
				letter = platform.Open
			case j == m-1:
				// One guarded node left: pick whichever of the two
				// candidate nodes has the larger bandwidth, unless open
				// capacity cannot cover the guarded node (lines 8-11).
				if O < Tme || bG[j] < bO[i]-eps {
					letter = platform.Open
				}
			default:
				// General case (lines 12-13): take ■ unless it is
				// unaffordable now (O < T) or it would strand the rest
				// (after ■, O+G drops by T−b■; continuing needs ≥ T).
				if O < Tme || O+G-T+bG[j] < Tme {
					letter = platform.Open
				}
			}
		}
		if letter == platform.Guarded {
			// Feed the next guarded node entirely from open capacity.
			O -= T
			G += bG[j]
			j++
		} else {
			// Feed the next open node from guarded capacity first
			// (conservative solutions, Lemma 4.3), then open capacity.
			// Branches instead of math.Max: the hot probe loop spends a
			// quarter of its time in the non-intrinsified NaN-aware call,
			// and the operands here are never NaN.
			fromOpen := T - G
			if fromOpen < 0 {
				fromOpen = 0
			}
			W += fromOpen
			O += bO[i] - fromOpen
			if G -= T; G < 0 {
				G = 0
			}
			i++
		}
		word = append(word, letter)
		if trace {
			steps = append(steps, TraceStep{
				Prefix: append(Word(nil), word...),
				Letter: letter,
				O:      O, G: G, W: W,
			})
		}
		if O < -eps {
			return word, steps, false
		}
	}
	return word, steps, true
}

// refNewSchemeSized is the previous slab constructor: node i reserves
// degCap(i) arcs of one shared slab.
func refNewSchemeSized(ins *platform.Instance, degCap func(i int) int) *Scheme {
	total := ins.Total()
	s := &Scheme{ins: ins, out: make([]adjacency, total)}
	sum := 0
	for i := 0; i < total; i++ {
		sum += degCap(i)
	}
	slab := make([]arc, sum)
	off := 0
	for i := 0; i < total; i++ {
		c := degCap(i)
		s.out[i] = adjacency(slab[off : off : off+c])
		off += c
	}
	return s
}

// refBuildWord is the previous Lemma 4.6 walk: a slab sized by the
// Theorem 4.1 degree caps, and every transfer through Scheme.Add. Its
// supplier lists come from ws, as the current walk's do.
func refBuildWord(ins *platform.Instance, w Word, T float64, ws *Workspace, depth []int) (*Scheme, error) {
	if err := w.Validate(ins); err != nil {
		return nil, err
	}
	if T <= 0 {
		return nil, fmt.Errorf("core: BuildScheme needs positive throughput, got %v", T)
	}
	ws = ws.ensure()
	eps := tol(T)
	total := ins.Total()
	scheme := refNewSchemeSized(ins, func(i int) int {
		b := ins.Bandwidth(i)
		if b > T*float64(total) {
			return total - 1
		}
		c := DegreeLowerBound(b, T) + 3
		if c > total-1 {
			c = total - 1
		}
		return c
	})
	openItems, guardedItems := ws.supplierLists(ins)
	open, guarded := queue{items: openItems}, queue{items: guardedItems}
	open.push(0, ins.B0)

	draw := func(q *queue, to int, need float64) float64 {
		if depth != nil {
			return refDrawShallowest(scheme, q, to, need, eps, depth)
		}
		for need > eps {
			sup := q.front(eps)
			if sup == nil {
				return need
			}
			take := math.Min(need, sup.rem)
			scheme.Add(sup.id, to, take)
			sup.rem -= take
			need -= take
		}
		return 0
	}

	nextOpen, nextGuarded := 1, ins.N()+1
	for pos, l := range w {
		if l == platform.Guarded {
			id := nextGuarded
			nextGuarded++
			if rest := draw(&open, id, T); rest > eps {
				return nil, fmt.Errorf("core: word %s infeasible at T=%v: guarded node %d (position %d) short by %v (open rem %v)",
					w, T, id, pos, rest, open.totalRem())
			}
			guarded.push(id, ins.Bandwidth(id))
		} else {
			id := nextOpen
			nextOpen++
			rest := draw(&guarded, id, T)
			if rest > eps {
				rest = draw(&open, id, rest)
			}
			if rest > eps {
				return nil, fmt.Errorf("core: word %s infeasible at T=%v: open node %d (position %d) short by %v",
					w, T, id, pos, rest)
			}
			open.push(id, ins.Bandwidth(id))
		}
	}
	return scheme, nil
}

// refDrawShallowest is the previous depth-aware draw, adding each
// transfer to the scheme.
func refDrawShallowest(s *Scheme, q *queue, to int, need, eps float64, depth []int) float64 {
	for need > eps {
		best := q.front(eps)
		if best == nil {
			return need
		}
		for k := q.head + 1; k < len(q.items); k++ {
			if sup := &q.items[k]; sup.rem > eps && depth[sup.id] < depth[best.id] {
				best = sup
			}
		}
		take := math.Min(need, best.rem)
		s.Add(best.id, to, take)
		best.rem -= take
		need -= take
		if d := depth[best.id] + 1; d > depth[to] {
			depth[to] = d
		}
	}
	return 0
}

// lawInstance draws n open and m guarded bandwidths from law, with a
// source between half and one and a half of a draw.
func lawInstance(rng *rand.Rand, law distribution.Distribution, n, m int) *platform.Instance {
	open := make([]float64, n)
	for i := range open {
		open[i] = law.Sample(rng)
	}
	guarded := make([]float64, m)
	for i := range guarded {
		guarded[i] = law.Sample(rng)
	}
	return platform.MustInstance(law.Sample(rng)*(0.5+rng.Float64()), open, guarded)
}

// pipelineInstances draws count instances over every law (and three
// tie-heavy homogeneous ones): tight random platforms of 2–300
// receivers, and the boundary shapes m ∈ {0, 1, 2} and n ∈ {0, 1}.
func pipelineInstances(t *testing.T, seed int64, count int) []*platform.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	laws := distribution.All()
	for _, bw := range []float64{1, 0.1, 1.0 / 3} {
		laws = append(laws, distribution.Homogeneous{Value: bw})
	}
	out := make([]*platform.Instance, 0, count)
	for k := 0; len(out) < count; k++ {
		law := laws[k%len(laws)]
		switch k % 4 {
		case 0, 1:
			ins, err := generator.Random(law, 2+rng.Intn(299), 0.1+0.8*rng.Float64(), rng)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ins)
		case 2:
			out = append(out, lawInstance(rng, law, rng.Intn(40), rng.Intn(3)))
		default:
			out = append(out, lawInstance(rng, law, rng.Intn(2), rng.Intn(40)))
		}
	}
	return out
}

// TestGreedyTestMatchesReferenceLoop: the one-pass probe loop returns
// the previous loop's word and verdict, letter for letter (the failing
// prefix included), at and around T*, T*_ac and 5/7·T*, and on the exact
// tie of lines 8–11 (b■ = b○ − eps at T = 1, which keeps ■ first); and
// the Table I replay of GreedyTestTrace equals the previous loop's trace.
func TestGreedyTestMatchesReferenceLoop(t *testing.T) {
	tie := platform.MustInstance(10, []float64{2}, []float64{2 - tol(1)})
	want, _, _ := refGreedyTest(tie, 1, false, nil)
	if got, _ := greedyTest(tie, 1, nil); got.String() != "■○" || want.String() != "■○" {
		t.Fatalf("tie of lines 8–11: word %s, reference %s, want ■○", got, want)
	}
	for k, ins := range pipelineInstances(t, 26, 3000) {
		tStar := OptimalCyclicThroughput(ins)
		probes := []float64{tStar, tStar * (1 + 1e-9), tStar * (1 - 1e-9), WorstCaseRatio * tStar}
		if tAc, _, err := OptimalAcyclicThroughput(ins, nil); err == nil {
			probes = append(probes, tAc*(1+1e-6), tAc*(1-1e-6))
		}
		for _, T := range probes {
			want, _, wantOK := refGreedyTest(ins, T, false, nil)
			got, ok := greedyTest(ins, T, nil)
			if ok != wantOK || got.String() != want.String() {
				t.Fatalf("instance %d (n=%d m=%d) at T=%v: got %s ok=%v, reference %s ok=%v",
					k, ins.N(), ins.M(), T, got, ok, want, wantOK)
			}
		}
		if k%50 == 0 {
			_, wantSteps, _ := refGreedyTest(ins, probes[0], true, nil)
			_, steps, _ := GreedyTestTrace(ins, probes[0])
			if len(steps) != len(wantSteps) {
				t.Fatalf("instance %d: trace has %d rows, reference %d", k, len(steps), len(wantSteps))
			}
			for r := range steps {
				a, b := steps[r], wantSteps[r]
				if a.Prefix.String() != b.Prefix.String() || a.Letter != b.Letter ||
					math.Float64bits(a.O) != math.Float64bits(b.O) ||
					math.Float64bits(a.G) != math.Float64bits(b.G) ||
					math.Float64bits(a.W) != math.Float64bits(b.W) {
					t.Fatalf("instance %d row %d: trace %+v, reference %+v", k, r, a, b)
				}
			}
		}
	}
}

// sameArcs fails unless got and want hold the same arcs, rates to the
// bit, in the same order.
func sameArcs(t *testing.T, what string, got, want *Scheme) {
	t.Helper()
	for i := range want.out {
		g, w := got.out[i], want.out[i]
		if len(g) != len(w) {
			t.Fatalf("%s: node %d has %d arcs, reference %d", what, i, len(g), len(w))
		}
		for k := range w {
			if g[k].to != w[k].to || math.Float64bits(g[k].rate) != math.Float64bits(w[k].rate) {
				t.Fatalf("%s: node %d arc %d is %+v, reference %+v", what, i, k, g[k], w[k])
			}
		}
	}
}

// TestBuildLayoutMatchesReferenceWalk: for both draw rules, the recorded
// walk's one-slab layout equals the Add-based walk arc for arc (and
// fails with the same error), the record stays under its 2·total
// bound, each window is exactly full, and an Add after the build leaves
// the neighbouring window's arcs intact.
func TestBuildLayoutMatchesReferenceWalk(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(27))
	for k, ins := range pipelineInstances(t, 28, 600) {
		tStar := OptimalCyclicThroughput(ins)
		type job struct {
			w Word
			T float64
		}
		var jobs []job
		if tAc, w, err := OptimalAcyclicThroughput(ins, nil); err == nil {
			jobs = append(jobs, job{w, tAc}, job{w, tAc * (1 - 1e-12)})
		}
		for _, f := range []float64{0.9, WorstCaseRatio} {
			if w, ok := GreedyTest(ins, f*tStar); ok {
				jobs = append(jobs, job{w, f * tStar})
			}
		}
		shuffled := make(Word, ins.N(), ins.N()+ins.M())
		for range ins.M() {
			shuffled = append(shuffled, platform.Guarded)
		}
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		jobs = append(jobs, job{shuffled, 0.8 * tStar})
		for _, jb := range jobs {
			for _, depthAware := range []bool{false, true} {
				what := fmt.Sprintf("instance %d (n=%d m=%d) word %s at T=%v, depth-aware %v",
					k, ins.N(), ins.M(), jb.w, jb.T, depthAware)
				var refDepth, depth []int
				if depthAware {
					refDepth, depth = make([]int, ins.Total()), make([]int, ins.Total())
				}
				want, wantErr := refBuildWord(ins, jb.w, jb.T, nil, refDepth)
				got, err := buildWord(ins, jb.w, jb.T, ws, depth)
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("%s: error %v, reference %v", what, err, wantErr)
				}
				if err != nil {
					continue
				}
				sameArcs(t, what, got, want)
				if e := got.NumEdges(); e >= 2*ins.Total() {
					t.Fatalf("%s: %d transfers, past the record's bound of 2·total = %d", what, e, 2*ins.Total())
				}
				for i := range got.out {
					if len(got.out[i]) != cap(got.out[i]) {
						t.Fatalf("%s: node %d window holds %d arcs in room for %d", what, i, len(got.out[i]), cap(got.out[i]))
					}
				}
				for i := 0; i+1 < len(got.out); i++ {
					if len(got.out[i]) == 0 || len(got.out[i+1]) == 0 {
						continue
					}
					next := append([]arc(nil), got.out[i+1]...)
					got.Add(i, len(got.out)+1, 1) // past the last arc: an append
					if got.out[i][len(got.out[i])-1].to != len(got.out)+1 {
						t.Fatalf("%s: Add on node %d was lost", what, i)
					}
					for a := range next {
						if got.out[i+1][a] != next[a] {
							t.Fatalf("%s: Add on node %d overwrote node %d's arc %d", what, i, i+1, a)
						}
					}
					break
				}
			}
		}
	}
}

// BenchmarkPipelineAgainstReference times the current probe loop and
// build against the previous ones in one process, on LargeScale
// instances of 10k–100k receivers: each greedy op runs one succeeding
// and one failing probe around T*_ac, each build op lays out the
// winning word. Alternate the reference and current rows, for example
// with -test.bench 'PipelineAgainstReference/.*/reference' and then
// '/current', a few rounds each.
func BenchmarkPipelineAgainstReference(b *testing.B) {
	type inst struct {
		ins *platform.Instance
		tAc float64
		w   Word
	}
	var set []inst
	for i, nodes := range []int{10_000, 50_000, 100_000} {
		ins, err := generator.LargeScale(generator.LargeScaleConfig{Nodes: nodes, POpen: 0.7, Seed: int64(60 + i)})
		if err != nil {
			b.Fatal(err)
		}
		tAc, w, err := OptimalAcyclicThroughput(ins, nil)
		if err != nil {
			b.Fatal(err)
		}
		set = append(set, inst{ins, tAc * (1 - 1e-12), w})
	}
	word := make(Word, 0, 100_001)
	b.Run("greedy/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range set {
				word, _, _ = refGreedyTest(x.ins, x.tAc*(1-1e-6), false, word)
				word, _, _ = refGreedyTest(x.ins, x.tAc*(1+1e-6), false, word)
			}
		}
	})
	b.Run("greedy/current", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range set {
				word, _ = greedyTest(x.ins, x.tAc*(1-1e-6), word)
				word, _ = greedyTest(x.ins, x.tAc*(1+1e-6), word)
			}
		}
	})
	ws := NewWorkspace()
	ws.Prealloc(100_001)
	b.Run("build/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, x := range set {
				if _, err := refBuildWord(x.ins, x.w, x.tAc, ws, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("build/current", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, x := range set {
				if _, err := buildWord(x.ins, x.w, x.tAc, ws, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
