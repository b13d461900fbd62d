// Broadcast trees: decompose an acyclic overlay into weighted broadcast
// trees (Schrijver ch. 53, referenced in §II-C of the paper). The
// decomposition answers "which data goes down which path": tree k of
// weight w_k carries a w_k/T fraction of the stream — this is what a
// deterministic scheduler (as opposed to the randomized Massoulié
// dissemination) would execute.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// One Request answers everything at once: overlay + decomposition
	// (the v2 API; repro.SolveAcyclic / repro.DecomposeTrees remain as
	// the step-by-step spelling of the same pipeline).
	ins := repro.Figure1Instance()
	plan, err := repro.Execute(context.Background(),
		repro.NewRequest(ins, repro.WithTrees(), repro.WithTolerance(1e-9)))
	if err != nil {
		log.Fatal(err)
	}
	T, scheme, ts := plan.Throughput, plan.Scheme, plan.Trees
	fmt.Printf("instance %v\noverlay at T = %.2f with %d edges (verified %.2f)\n\n",
		ins, T, scheme.NumEdges(), plan.Verified)

	if err := repro.VerifyTrees(scheme, T, ts); err != nil {
		log.Fatal(err)
	}

	var sum float64
	for k, tr := range ts {
		sum += tr.Weight
		fmt.Printf("tree %d: weight %.3f (%.0f%% of the stream), depth %d\n",
			k, tr.Weight, 100*tr.Weight/T, tr.Depth())
		for v := 1; v < len(tr.Parent); v++ {
			fmt.Printf("   C%d <- C%d\n", v, tr.Parent[v])
		}
	}
	fmt.Printf("\ntotal weight %.3f = T (every node receives the full stream)\n", sum)
	fmt.Println("each tree is a spanning arborescence: routing the k-th stream slice")
	fmt.Println("along tree k realizes the scheme's rates exactly.")
}
