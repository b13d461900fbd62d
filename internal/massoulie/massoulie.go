// Package massoulie simulates the randomized decentralized broadcast of
// Massoulié et al. ("Randomized decentralized broadcasting algorithms",
// INFOCOM 2007 — reference [4] of the paper) on top of the overlays built
// by internal/core.
//
// Section II-C positions the paper's contribution as the overlay
// construction stage of a practical pipeline: the overlay (edge set plus
// per-edge bandwidth caps enforced by TCP QoS mechanisms) is handed to
// Massoulié's random-useful-packet algorithm, which is throughput-optimal
// on contention-free capacitated graphs — exactly what the constructed
// schemes are. This simulator closes that loop: it plays the
// random-useful-packet policy in discrete rounds with per-edge token
// buckets sized by the scheme's rates and measures each node's goodput,
// which should approach the scheme throughput T.
package massoulie

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Config parameterizes a simulation run.
type Config struct {
	// Packets is the number of stream packets to broadcast. The stream
	// is injected at the source at rate T packets per round (each packet
	// is one T-sized round's worth of data, so edge budgets are measured
	// in packets-per-round = rate/T).
	Packets int
	// MaxRounds aborts runs that stop making progress (safety net);
	// 0 means 20·Packets.
	MaxRounds int
	// Seed drives the pseudo-random packet choices.
	Seed int64
	// Warmup is the number of initial rounds excluded from the goodput
	// measurement (defaults to the overlay depth + 2 when 0).
	Warmup int
	// Churn lists node departures. The paper's conclusion (§VII) warns
	// that the constructed overlays are "probably not resilient to
	// churn"; injecting departures lets tests measure exactly that: once
	// a relay leaves, everything it alone forwarded stops flowing.
	Churn []ChurnEvent
}

// ChurnEvent removes Node from the overlay at the start of round Round:
// it stops sending and receiving (all incident edges go silent). The
// source (node 0) cannot depart.
type ChurnEvent struct {
	Round int
	Node  int
}

// Result reports a simulation.
type Result struct {
	// Rounds is the number of rounds until every node held every packet.
	Rounds int
	// Completed tells whether full dissemination happened within
	// MaxRounds.
	Completed bool
	// Goodput[v] is node v's measured reception rate (packets per round,
	// in units of T) over the post-warmup window.
	Goodput []float64
	// Delay[v] is the worst packet delay observed at node v: the number
	// of rounds between a packet's injection and its arrival.
	Delay []int
}

// Simulate runs the random-useful-packet broadcast on the scheme's
// overlay at nominal throughput T.
func Simulate(s *core.Scheme, T float64, cfg Config) (*Result, error) {
	if T <= 0 {
		return nil, errors.New("massoulie: non-positive throughput")
	}
	if cfg.Packets <= 0 {
		return nil, errors.New("massoulie: need at least one packet")
	}
	total := s.Instance().Total()
	if total < 2 {
		return nil, errors.New("massoulie: nothing to broadcast to")
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 20 * cfg.Packets
		if maxRounds < 2000 {
			maxRounds = 2000
		}
	}
	warmup := cfg.Warmup
	if warmup == 0 {
		if d := core.SchemeDepth(s); d > 0 {
			warmup = d + 2
		} else {
			warmup = 2
		}
	}
	for _, ev := range cfg.Churn {
		if ev.Node == 0 {
			return nil, errors.New("massoulie: the source cannot depart")
		}
		if ev.Node < 0 || ev.Node >= total {
			return nil, fmt.Errorf("massoulie: churn node %d out of range", ev.Node)
		}
	}
	departed := make([]bool, total)
	rng := rand.New(rand.NewSource(cfg.Seed))

	edges := s.Edges()
	// Per-edge token bucket in packet units: rate/T packets per round.
	budget := make([]float64, len(edges))
	perRound := make([]float64, len(edges))
	for i, e := range edges {
		perRound[i] = e.Weight / T
	}

	// have[v][p] = node v holds packet p; held[v] lists them in arrival
	// order for O(1) random useful-packet sampling with rejection.
	have := make([][]bool, total)
	held := make([][]int, total)
	count := make([]int, total)
	for v := range have {
		have[v] = make([]bool, cfg.Packets)
	}
	injected := 0
	injectBudget := 0.0
	injectionRound := make([]int, cfg.Packets)
	arrivedAfterWarmup := make([]int, total)
	delay := make([]int, total)

	deliver := func(v, p, round int) {
		if have[v][p] {
			return
		}
		have[v][p] = true
		held[v] = append(held[v], p)
		count[v]++
		if round >= warmup {
			arrivedAfterWarmup[v]++
		}
		if d := round - injectionRound[p]; d > delay[v] {
			delay[v] = d
		}
	}

	// pickUseful returns a packet u holds and v lacks, uniformly among
	// u's held packets with bounded rejection sampling, falling back to a
	// linear scan (exactness matters more than the uniform tie-break).
	pickUseful := func(u, v int) int {
		if count[u] == 0 {
			return -1
		}
		for try := 0; try < 16; try++ {
			p := held[u][rng.Intn(len(held[u]))]
			if !have[v][p] {
				return p
			}
		}
		start := rng.Intn(len(held[u]))
		for k := 0; k < len(held[u]); k++ {
			p := held[u][(start+k)%len(held[u])]
			if !have[v][p] {
				return p
			}
		}
		return -1
	}

	done := func() bool {
		for v := 0; v < total; v++ {
			if !departed[v] && count[v] != cfg.Packets {
				return false
			}
		}
		return true
	}

	completedAt := -1
	round := 0
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	for ; round < maxRounds; round++ {
		for _, ev := range cfg.Churn {
			if ev.Round == round {
				departed[ev.Node] = true
			}
		}
		// Source injection at rate 1 packet (= T data) per round.
		injectBudget++
		for injectBudget >= 1 && injected < cfg.Packets {
			injectionRound[injected] = round
			deliver(0, injected, round)
			injected++
			injectBudget--
		}
		// Random edge activation order each round (decentralized flavor).
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		type transfer struct{ v, p int }
		var arrivals []transfer
		for _, ei := range order {
			e := edges[ei]
			if departed[e.From] || departed[e.To] {
				budget[ei] = 0
				continue
			}
			budget[ei] += perRound[ei]
			for budget[ei] >= 1 {
				p := pickUseful(e.From, e.To)
				if p < 0 {
					break
				}
				// Mark immediately so parallel edges into the same node
				// don't duplicate work; expose to forwarding next round
				// via the arrivals buffer semantics below.
				arrivals = append(arrivals, transfer{e.To, p})
				have[e.To][p] = true
				budget[ei]--
			}
			// Cap the bucket so idle rounds cannot bank unbounded burst.
			if budget[ei] > perRound[ei]+1 {
				budget[ei] = perRound[ei] + 1
			}
		}
		// Arrivals become available (and counted) at end of round.
		for _, a := range arrivals {
			have[a.v][a.p] = false // deliver() re-sets it with bookkeeping
			deliver(a.v, a.p, round)
		}
		if injected == cfg.Packets && done() {
			completedAt = round + 1
			break
		}
	}

	res := &Result{
		Rounds:    round + 1,
		Completed: completedAt > 0,
		Goodput:   make([]float64, total),
		Delay:     delay,
	}
	if res.Completed {
		res.Rounds = completedAt
	}
	window := res.Rounds - warmup
	if window < 1 {
		window = 1
	}
	for v := 0; v < total; v++ {
		res.Goodput[v] = float64(arrivedAfterWarmup[v]) / float64(window)
	}
	return res, nil
}

// MinGoodput returns the smallest per-node goodput over the receivers
// (node 0, the source, is excluded: it holds everything by definition).
func (r *Result) MinGoodput() float64 {
	if len(r.Goodput) < 2 {
		return 0
	}
	min := r.Goodput[1]
	for v := 2; v < len(r.Goodput); v++ {
		if r.Goodput[v] < min {
			min = r.Goodput[v]
		}
	}
	return min
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("massoulie.Result{rounds=%d completed=%v minGoodput=%.3f}",
		r.Rounds, r.Completed, r.MinGoodput())
}
