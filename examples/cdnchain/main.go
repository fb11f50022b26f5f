// Delivery-chain study: a stream hops through a chain of clusters
// (origin → regional PoPs → edge cluster → subscriber), each pair joined
// by a couple of provisioned links. This is the regime where the paper's
// single-bottleneck decomposition starts to struggle — whichever cut you
// pick, one side still contains almost the whole chain — and where this
// library's chain extension shines: it decomposes along *every* cut at
// once, paying only per-block enumeration. The example solves the same
// instances with naive enumeration (where feasible), the single-cut
// algorithm and the chain solver, and prints the deliverable-rate
// distribution a subscriber actually experiences.
package main

import (
	"fmt"
	"log"
	"time"

	"flowrel"
)

func main() {
	fmt.Println("delivery chains: b blocks of 3 nodes, 2-link cuts, d = 2 sub-streams")
	fmt.Printf("%-8s %-6s %-12s %-12s %-12s %-14s\n", "blocks", "|E|", "t_naive", "t_core", "t_chain", "reliability")
	for _, blocks := range []int{2, 3, 4, 5, 6} {
		o, cuts, err := flowrel.ChainOverlay(blocks, 3, 2, 2, 2, 2, 0.08, int64(blocks))
		if err != nil {
			log.Fatal(err)
		}
		dem := o.Demand(o.Peers[len(o.Peers)-1])

		t0 := time.Now()
		ch, err := flowrel.ChainReliability(o.G, dem, cuts, flowrel.ChainOptions{})
		if err != nil {
			log.Fatal(err)
		}
		tChain := time.Since(t0)

		tCore := "-"
		if blocks <= 5 {
			t1 := time.Now()
			rep, err := flowrel.Compute(o.G, dem, flowrel.Config{
				Engine: flowrel.EngineCore, Bottleneck: cuts[0], MaxSideEdges: 26,
			})
			if err == nil {
				tCore = time.Since(t1).Round(time.Microsecond).String()
				if diff := rep.Reliability - ch.Reliability; diff > 1e-9 || diff < -1e-9 {
					log.Fatalf("core and chain disagree: %v vs %v", rep.Reliability, ch.Reliability)
				}
			}
		}
		tNaive := "-"
		if o.G.NumEdges() <= 24 {
			t2 := time.Now()
			rep, err := flowrel.Compute(o.G, dem, flowrel.Config{Engine: flowrel.EngineNaive})
			if err == nil {
				tNaive = time.Since(t2).Round(time.Microsecond).String()
				if diff := rep.Reliability - ch.Reliability; diff > 1e-9 || diff < -1e-9 {
					log.Fatalf("naive and chain disagree: %v vs %v", rep.Reliability, ch.Reliability)
				}
			}
		}
		fmt.Printf("%-8d %-6d %-12s %-12s %-12s %-14.6f\n",
			blocks, o.G.NumEdges(), tNaive, tCore, tChain.Round(time.Microsecond), ch.Reliability)
	}

	// What a subscriber at the end of a 5-block chain experiences.
	o, cuts, err := flowrel.ChainOverlay(5, 3, 2, 2, 2, 2, 0.08, 5)
	if err != nil {
		log.Fatal(err)
	}
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	ds, err := flowrel.FlowDistributionFactored(o.G, dem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubscriber at the end of the 5-block chain (%d links, %d cuts):\n", o.G.NumEdges(), len(cuts))
	for v, p := range ds.P {
		fmt.Printf("  P(%d of %d sub-streams) = %.6f\n", v, ds.D, p)
	}
	fmt.Printf("  expected delivered fraction: %.1f%%\n", 100*ds.MeanFraction())

	// The chain structure also tells you *where* reliability is lost:
	// most-probable-states shows how much mass sits in 0/1/2-failure
	// patterns.
	layers, tail := flowrel.FailureLayerMass(o.G, 2)
	fmt.Printf("\nfailure-pattern mass: none %.4f, single %.4f, double %.4f, deeper %.4f\n",
		layers[0], layers[1], layers[2], tail)
	bd, err := flowrel.MostProbableStates(o.G, dem, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certified from ≤2-failure patterns alone: reliability ∈ [%.4f, %.4f]\n", bd.Lower, bd.Upper)
}
