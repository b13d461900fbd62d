// Quickstart: build a broadcast instance, compute the optimal cyclic and
// acyclic throughputs, materialize the low-degree overlay and audit its
// degrees — the library's 60-second tour on the paper's Figure 1
// instance.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// The paper's running example: a source with 6 Mbit/s of upload, two
	// open nodes with 5 Mbit/s each, and three guarded nodes (behind
	// NATs) with 4, 1 and 1 Mbit/s.
	ins := repro.MustInstance(6, []float64{5, 5}, []float64{4, 1, 1})
	fmt.Println("instance:", ins)

	// Closed-form optimal cyclic throughput (Lemma 5.1): the rate at
	// which every node could receive the stream with unbounded degrees.
	tstar := repro.OptimalCyclicThroughput(ins)
	fmt.Printf("optimal cyclic throughput:  %.2f\n", tstar) // 4.40

	// Optimal acyclic throughput (Theorem 4.1): what low-degree overlays
	// achieve. The word encodes the node order (■ = guarded, ○ = open).
	tac, word, err := repro.OptimalAcyclicThroughput(ins)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal acyclic throughput: %.2f (order %s)\n", tac, word) // 4.00, ■○■○■

	// Materialize the overlay. Every node's outdegree stays within the
	// Theorem 4.1 additive bounds of the ⌈b_i/T⌉ floor.
	scheme, err := repro.BuildScheme(ins, word, tac)
	if err != nil {
		log.Fatal(err)
	}
	if err := scheme.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlay: %d edges, max outdegree %d, acyclic=%v\n",
		scheme.NumEdges(), scheme.MaxOutDegree(), scheme.IsAcyclic())

	// The scheme's throughput is certified by max-flow, the paper's own
	// definition: T = min over nodes of maxflow(source → node).
	fmt.Printf("max-flow certified throughput: %.2f\n", scheme.Throughput())

	for i := 0; i < ins.Total(); i++ {
		fmt.Printf("  C%d (%s, b=%g): sends %.2f over %d connections (floor ⌈b/T⌉ = %d)\n",
			i, ins.KindOf(i), ins.Bandwidth(i), scheme.OutRate(i), scheme.OutDegree(i),
			repro.DegreeLowerBound(ins.Bandwidth(i), tac))
	}

	// The same pipeline through the v2 Request/Plan API: one typed
	// request in, one plan out — overlay, tree decomposition and a
	// 20-block periodic transmission schedule, throughput verified. This
	// is the contract `bmpcast serve` exposes over HTTP as versioned
	// JSON (POST /v1/solve).
	plan, err := repro.Execute(context.Background(), repro.NewRequest(ins,
		repro.WithSolver("acyclic"),
		repro.WithTolerance(1e-9),
		repro.WithSchedule(20),
	))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRequest/Plan API: T = %.2f (ratio %.3f of T* = %.2f), verified %.2f\n",
		plan.Throughput, plan.Ratio(), plan.TStar, plan.Verified)
	fmt.Printf("artifacts: %d trees, %d scheduled transmissions over %d blocks\n",
		len(plan.Trees), len(plan.Schedule.Transmissions), plan.Schedule.Blocks)
}
