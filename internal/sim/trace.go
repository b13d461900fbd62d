// Package sim is the dynamic-platform churn simulator: a deterministic
// discrete-event layer where a seeded event stream — node arrivals,
// departures, bandwidth rescales and burst churn — mutates a live
// platform.Instance, and after every event the scheme is re-solved
// through an engine.Session that keeps a warm workspace across events
// and repairs the previous solution incrementally where it can.
//
// The paper's solvers compute steady-state throughput for a fixed
// bounded multi-port platform; real overlays churn (the Massoulié-style
// dynamics of §II-C / internal/massoulie). This package turns the
// static reproduction into a dynamic workload: the metric is solve
// latency and evaluation cost *under change*, recorded per event in a
// byte-reproducible Timeline.
package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/distribution"
	"repro/internal/generator"
	"repro/internal/platform"
)

// Op is the kind of a churn event.
type Op uint8

const (
	// OpArrive adds one node (class + bandwidth).
	OpArrive Op = iota
	// OpDepart removes one node (class + rank at application time).
	OpDepart
	// OpRescale multiplies one node's bandwidth by a factor; rank −1
	// targets the source.
	OpRescale
	// OpBurst applies a batch of arrivals/departures atomically, with a
	// single re-solve after the whole batch (flash-crowd churn).
	OpBurst
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpArrive:
		return "arrive"
	case OpDepart:
		return "depart"
	case OpRescale:
		return "rescale"
	case OpBurst:
		return "burst"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Event is one churn event. Ranks refer to the within-class position
// (0 = largest bandwidth) at the moment the event is applied — traces
// are generated against an evolving scratch instance, so replaying the
// events in order against the same initial instance is always valid.
type Event struct {
	Op     Op
	Class  platform.Kind // arrive/depart/rescale
	Rank   int           // depart/rescale; −1 = source (rescale only)
	BW     float64       // arrive: the joining node's bandwidth
	Factor float64       // rescale: multiplier
	Sub    []Event       // burst: member arrivals/departures
}

// String renders a compact, comma-free description (CSV-safe).
func (e Event) String() string {
	switch e.Op {
	case OpArrive:
		return fmt.Sprintf("arrive %v bw=%g", e.Class, e.BW)
	case OpDepart:
		return fmt.Sprintf("depart %v rank=%d", e.Class, e.Rank)
	case OpRescale:
		if e.Rank < 0 {
			return fmt.Sprintf("rescale source factor=%g", e.Factor)
		}
		return fmt.Sprintf("rescale %v rank=%d factor=%g", e.Class, e.Rank, e.Factor)
	case OpBurst:
		parts := make([]string, len(e.Sub))
		for i, sub := range e.Sub {
			parts[i] = sub.String()
		}
		return fmt.Sprintf("burst(%d): %s", len(e.Sub), strings.Join(parts, "; "))
	default:
		return e.Op.String()
	}
}

// Apply mutates ins according to the event. Burst members apply in
// order; the first failing member aborts (the instance keeps the
// members applied so far — traces produced by GenerateTrace never
// fail).
func Apply(ins *platform.Instance, ev Event) error {
	var err error
	switch ev.Op {
	case OpArrive:
		_, err = ins.Add(ev.Class, ev.BW)
	case OpDepart:
		_, err = ins.Remove(ev.Class, ev.Rank)
	case OpRescale:
		if ev.Rank < 0 {
			return ins.SetSourceBandwidth(ins.B0 * ev.Factor)
		}
		_, err = ins.Rescale(ev.Class, ev.Rank, ev.Factor)
	case OpBurst:
		for i, sub := range ev.Sub {
			if sub.Op == OpBurst {
				return fmt.Errorf("sim: nested burst at member %d", i)
			}
			if err := Apply(ins, sub); err != nil {
				return fmt.Errorf("sim: burst member %d: %w", i, err)
			}
		}
	default:
		return fmt.Errorf("sim: unknown op %v", ev.Op)
	}
	return err
}

// TraceConfig parameterizes a generated churn trace.
type TraceConfig struct {
	// Nodes is the initial receiver count (≥ 2).
	Nodes int
	// POpen is the probability a node (initial or arriving) is open.
	// Zero is meaningful (everything guarded, one initial node promoted
	// open so the platform is feedable); negative selects the default
	// 0.7.
	POpen float64
	// Dist names the bandwidth distribution (see internal/distribution).
	Dist string
	// Events is the number of churn events.
	Events int
	// Seed drives everything: same config + seed ⇒ identical trace.
	Seed int64
}

// The event mix, burst size and rescale range of every generated
// trace. The weights are float64 variables, summed at run time in next:
// as untyped constants their sums would fold exactly at compile time,
// which can differ in the last bit from the float64 sums the recorded
// traces were drawn with, and move a draw across a threshold.
var pArrive, pDepart, pRescale, pBurst = 0.35, 0.30, 0.25, 0.10

const (
	burstMax   = 4    // members per burst, at most
	rescaleMin = 0.25 // rescale factors are drawn from [rescaleMin, rescaleMax)
	rescaleMax = 4
)

// withDefaults fills zero fields.
func (c TraceConfig) withDefaults() TraceConfig {
	if c.Nodes == 0 {
		c.Nodes = 20
	}
	if c.POpen < 0 {
		c.POpen = 0.7
	}
	if c.Dist == "" {
		c.Dist = "Unif100"
	}
	if c.Events == 0 {
		c.Events = 30
	}
	return c
}

// Trace is a generated churn scenario: the initial platform and the
// event stream. Replaying Events in order against (a clone of) Initial
// is always valid.
type Trace struct {
	Config  TraceConfig
	Initial *platform.Instance
	Events  []Event
}

// GenerateTrace draws a deterministic churn trace: the initial tight
// instance comes from generator.Random, then each event is drawn
// against an evolving scratch instance so that every rank reference is
// valid at application time. Departures keep the platform alive (at
// least two receivers, at least one open node — guarded nodes can only
// be fed by open capacity).
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("sim: need at least 2 initial nodes, got %d", cfg.Nodes)
	}
	dist, err := distribution.ByName(cfg.Dist)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	initial, err := generator.Random(dist, cfg.Nodes, cfg.POpen, rng)
	if err != nil {
		return nil, err
	}
	g := &traceGen{cfg: cfg, dist: dist, rng: rng, scratch: initial.Clone()}
	events := make([]Event, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		ev := g.next()
		if err := Apply(g.scratch, ev); err != nil {
			return nil, fmt.Errorf("sim: generated event %d (%s) does not apply: %w", i, ev, err)
		}
		events = append(events, ev)
	}
	return &Trace{Config: cfg, Initial: initial, Events: events}, nil
}

// traceGen draws events valid against the evolving scratch instance.
type traceGen struct {
	cfg     TraceConfig
	dist    distribution.Distribution
	rng     *rand.Rand
	scratch *platform.Instance
}

func (g *traceGen) next() Event {
	x := g.rng.Float64() * (pArrive + pDepart + pRescale + pBurst)
	switch {
	case x < pArrive:
		return g.arrive()
	case x < pArrive+pDepart:
		return g.depart()
	case x < pArrive+pDepart+pRescale:
		return g.rescale()
	default:
		return g.burst()
	}
}

func (g *traceGen) arrive() Event {
	class := platform.Guarded
	if g.rng.Float64() < g.cfg.POpen {
		class = platform.Open
	}
	return Event{Op: OpArrive, Class: class, BW: g.dist.Sample(g.rng)}
}

// depart picks a removable node: the platform keeps ≥ 2 receivers and
// ≥ 1 open node. When nothing is removable the event degrades to an
// arrival (the draw still advances the stream deterministically).
func (g *traceGen) depart() Event {
	n, m := g.scratch.N(), g.scratch.M()
	if n+m <= 2 {
		return g.arrive()
	}
	removableOpen := max(n-1, 0) // never the last open node
	pick := g.rng.Intn(removableOpen + m)
	if pick < removableOpen {
		return Event{Op: OpDepart, Class: platform.Open, Rank: g.rng.Intn(n)}
	}
	return Event{Op: OpDepart, Class: platform.Guarded, Rank: g.rng.Intn(m)}
}

func (g *traceGen) rescale() Event {
	factor := rescaleMin + g.rng.Float64()*(rescaleMax-rescaleMin)
	n, m := g.scratch.N(), g.scratch.M()
	// The source rescales with probability ~15% — bandwidth churn hits
	// the root too, and T* tracks it immediately.
	if g.rng.Float64() < 0.15 || n+m == 0 {
		return Event{Op: OpRescale, Rank: -1, Factor: factor}
	}
	pick := g.rng.Intn(n + m)
	if pick < n {
		return Event{Op: OpRescale, Class: platform.Open, Rank: pick, Factor: factor}
	}
	return Event{Op: OpRescale, Class: platform.Guarded, Rank: pick - n, Factor: factor}
}

// burst draws 2..burstMax arrivals/departures, validating each member
// against a scratch clone so the whole batch applies atomically.
func (g *traceGen) burst() Event {
	k := 2 + g.rng.Intn(burstMax-1)
	sub := make([]Event, 0, k)
	probe := g.scratch.Clone()
	saved := g.scratch
	g.scratch = probe // member validity is judged against the batch so far
	for i := 0; i < k; i++ {
		var ev Event
		if g.rng.Float64() < 0.5 {
			ev = g.arrive()
		} else {
			ev = g.depart()
		}
		if err := Apply(probe, ev); err != nil {
			// Cannot happen for events drawn against probe; skip member.
			continue
		}
		sub = append(sub, ev)
	}
	g.scratch = saved
	return Event{Op: OpBurst, Sub: sub}
}
