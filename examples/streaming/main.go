// Streaming: the live-streaming scenario that motivates the paper
// (CoolStreaming/PPLive-style swarms where many viewers sit behind NATs).
//
// We build a 60-node swarm — DSL-grade uploaders, a majority of them
// guarded — compute the optimal low-degree acyclic overlay, and then
// actually stream over it with the Massoulié-style randomized
// useful-packet algorithm the paper delegates dissemination to,
// verifying that every viewer sustains (close to) the designed rate.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	// A heterogeneous swarm: the tracker/origin uploads at 20 Mbit/s,
	// 40% of viewers are open (campus links, 5–20 Mbit/s up), 60% are
	// guarded home viewers (0.5–2 Mbit/s up).
	rng := rand.New(rand.NewSource(42))
	var open, guarded []float64
	for i := 0; i < 24; i++ {
		open = append(open, 5+15*rng.Float64())
	}
	for i := 0; i < 36; i++ {
		guarded = append(guarded, 0.5+1.5*rng.Float64())
	}
	ins := repro.MustInstance(20, open, guarded)
	fmt.Println("swarm:", ins)

	// One v2 Request computes the overlay, its cyclic bound T* and the
	// throughput verification in a single call.
	plan, err := repro.Execute(context.Background(),
		repro.NewRequest(ins, repro.WithScheme(), repro.WithTolerance(1e-9)))
	if err != nil {
		log.Fatal(err)
	}
	tstar, tac, scheme := plan.TStar, plan.Throughput, plan.Scheme
	fmt.Printf("stream rate: optimal %.3f, acyclic overlay %.3f (%.1f%% of optimal)\n",
		tstar, tac, 100*plan.Ratio())
	fmt.Printf("overlay: %d TCP connections total, max per node %d\n",
		scheme.NumEdges(), scheme.MaxOutDegree())

	// Degree audit: guarded ≤ ⌈b/T⌉+1, open ≤ ⌈b/T⌉+3 (Theorem 4.1).
	worstSlack := 0
	for i := 0; i < ins.Total(); i++ {
		if s := scheme.OutDegree(i) - repro.DegreeLowerBound(ins.Bandwidth(i), tac); s > worstSlack && scheme.OutDegree(i) > 0 {
			worstSlack = s
		}
	}
	fmt.Printf("worst degree slack over the ⌈b/T⌉ floor: +%d\n", worstSlack)

	// Now stream 400 packets with random-useful-packet forwarding.
	res, err := repro.Simulate(scheme, tac, repro.SimConfig{Packets: 400, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation: %d rounds, complete dissemination: %v\n", res.Rounds, res.Completed)
	fmt.Printf("worst per-viewer goodput: %.2f of the designed rate\n", res.MinGoodput())

	worstDelay := 0
	for _, d := range res.Delay {
		if d > worstDelay {
			worstDelay = d
		}
	}
	fmt.Printf("worst packet delay: %d rounds (overlay is depth-unoptimized; see paper §VII)\n", worstDelay)
}
