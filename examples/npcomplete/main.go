// NP-completeness: a walk-through of the Theorem 3.1 reduction
// (Figure 8). Broadcasting at optimal throughput with outdegrees capped
// at the ⌈b_i/T⌉ floor is strongly NP-complete, by reduction from
// 3-PARTITION: the reduction instance has one source (b0 = 3pT), 3p
// intermediate nodes carrying the 3-PARTITION values as bandwidths and p
// final nodes with zero bandwidth. A throughput-T scheme with floor
// degrees exists iff the values split into p triples of sum T.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/generator"
)

func main() {
	// A satisfiable 3-PARTITION instance: p = 3 triples, T = 90.
	a := []int{23, 25, 42, 23, 27, 40, 30, 30, 30}
	const T = 90
	fmt.Printf("3-PARTITION values %v, target sum T = %d\n\n", a, T)

	ins, err := generator.ThreePartition(a, T)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduction instance: %v\n", ins)
	fmt.Printf("  source b0 = 3pT = %g; 3p = 9 intermediates; p = 3 zero-bandwidth finals\n\n", ins.B0)

	triples, ok := generator.SolveThreePartition(a, T)
	if !ok {
		log.Fatal("expected a solvable instance")
	}
	fmt.Printf("3-PARTITION solution (ranks into sorted values): %v\n", triples)

	scheme, err := core.ThreePartitionScheme(ins, T, triples)
	if err != nil {
		log.Fatal(err)
	}
	if err := scheme.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninduced broadcast scheme: throughput %.0f (max-flow verified: %.0f)\n",
		float64(T), scheme.Throughput(nil))

	// The crux: every outdegree sits exactly at the ⌈b_i/T⌉ floor —
	// the strict degree regime where the problem is NP-complete.
	tight := true
	for i := 0; i < ins.Total(); i++ {
		deg := scheme.OutDegree(i)
		floor := core.DegreeLowerBound(ins.Bandwidth(i), T)
		if deg != floor {
			tight = false
		}
		fmt.Printf("  C%-2d b=%-5g outdegree %d = ⌈b/T⌉ = %d\n", i, ins.Bandwidth(i), deg, floor)
	}
	fmt.Printf("\nall degrees at the floor: %v — a YES-certificate for 3-PARTITION.\n", tight)
	fmt.Println("(The paper's algorithms instead allow +1..+3 degree slack and run in")
	fmt.Println(" linear time: that is exactly the price of escaping NP-completeness.)")
}
