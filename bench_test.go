// Benchmarks regenerating the paper's evaluation artifacts (see DESIGN.md
// §5 for the experiment index and EXPERIMENTS.md for recorded results):
//
//	BenchmarkNaiveVsCore        — E7: the headline 2^{|E|} vs 2^{α|E|} claim
//	BenchmarkBridge             — E2: Eq. 1 on the Fig. 2 bridge graph
//	BenchmarkAssignments        — E3: assignment enumeration (Example 1)
//	BenchmarkFigure4            — E4: the two-bottleneck worked example
//	BenchmarkSimulator          — E10: streaming-session throughput
//	BenchmarkChain              — E11: single-cut vs multi-cut chains
//	BenchmarkMulticast          — E12: all-subscribers reliability
//	BenchmarkChurnTransform     — E13: node splitting + solve
//	BenchmarkPolynomial         — E14: R(p) computation and evaluation
//	BenchmarkRiskGroups         — E15: shared-risk conditioning
//	BenchmarkImportance         — E16: Birnbaum ranking
//	BenchmarkContinuousSim      — E17: event-driven renewal simulation
//	BenchmarkEngines            — A3: all exact engines on one instance
//	BenchmarkMonteCarlo         — A4: sampling throughput
//	BenchmarkReduce             — A5: exact preprocessing
//	BenchmarkMostProbableStates — A6: certified bounds per failure budget
//	BenchmarkDistribution       — E9: deliverable-rate distribution
//	BenchmarkBottleneckSearch   — cut discovery preprocessing
package flowrel

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"flowrel/internal/assign"
	"flowrel/internal/chain"
	"flowrel/internal/churn"
	"flowrel/internal/core"
	"flowrel/internal/dist"
	"flowrel/internal/multicast"
	"flowrel/internal/overlay"
	"flowrel/internal/poly"
	"flowrel/internal/reduce"
	"flowrel/internal/reliability"
	"flowrel/internal/sim"
	"flowrel/internal/srlg"
)

// clusteredInstance builds the E7 workload: two clusters of the given side
// size joined by two bottleneck links, demand d=2.
func clusteredInstance(b testing.TB, side int) (*Graph, Demand, []EdgeID) {
	b.Helper()
	o, err := overlay.Clustered(side, side+3, 2, 2, 2, 0.1, int64(side))
	if err != nil {
		b.Fatal(err)
	}
	return o.G, o.Demand(o.Peers[len(o.Peers)-1]), o.Bottleneck
}

// BenchmarkNaiveVsCore is experiment E7: the same instances solved by the
// naive 2^{|E|} enumeration and the proposed 2^{α|E|} decomposition.
func BenchmarkNaiveVsCore(b *testing.B) {
	for _, side := range []int{4, 6, 8} {
		g, dem, cut := clusteredInstance(b, side)
		b.Run(fmt.Sprintf("naive/E=%d", g.NumEdges()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := reliability.Naive(g, dem, reliability.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("core/E=%d", g.NumEdges()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Reliability(g, dem, core.Options{Bottleneck: cut}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Beyond naive's reach: core alone keeps scaling (larger sides).
	for _, side := range []int{10, 12} {
		g, dem, cut := clusteredInstance(b, side)
		b.Run(fmt.Sprintf("core/E=%d", g.NumEdges()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Reliability(g, dem, core.Options{Bottleneck: cut}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBridge is experiment E2: the k=1 decomposition (Eq. 1) on the
// Fig. 2 bridge graph versus naive enumeration of the whole graph.
func BenchmarkBridge(b *testing.B) {
	o := overlay.Figure2()
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	b.Run("core-eq1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Reliability(o.G, dem, core.Options{Bottleneck: o.Bottleneck}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reliability.Naive(o.G, dem, reliability.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAssignments is experiment E3: enumerating the assignment family
// of Example 1 (d=5, caps (3,3,3) → 12 assignments) and larger ones.
func BenchmarkAssignments(b *testing.B) {
	cases := []struct {
		caps []int
		d    int
	}{
		{[]int{3, 3, 3}, 5},
		{[]int{4, 4, 4}, 7},
		{[]int{3, 3, 3, 3}, 6},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("d=%d,k=%d", c.d, len(c.caps)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assign.Enumerate(c.caps, c.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 is experiment E4: the full decomposition on the paper's
// two-bottleneck worked example.
func BenchmarkFigure4(b *testing.B) {
	o := overlay.Figure4()
	dem := o.Demand(o.Peers[0])
	for i := 0; i < b.N; i++ {
		if _, err := core.Reliability(o.G, dem, core.Options{Bottleneck: o.Bottleneck}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSideBuild isolates the side-array construction cost on the A3
// instance: one core compile per op (no plan cache, no evaluation weight
// to speak of), with the default frontier engine. Tracked by the bench
// gate as side_build_ns_per_op.
func BenchmarkSideBuild(b *testing.B) {
	g, dem, cut := clusteredInstance(b, 6)
	b.Run("frontier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Compile(g, dem, core.Options{Bottleneck: cut}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngines is ablation A3: every exact engine on one 20-link
// instance.
func BenchmarkEngines(b *testing.B) {
	g, dem, cut := clusteredInstance(b, 6)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reliability.Naive(g, dem, reliability.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factoring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reliability.Factoring(g, dem, reliability.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Reliability(g, dem, core.Options{Bottleneck: cut}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reliability.Bounds(g, dem, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMonteCarlo is ablation A4: sampling throughput (one op = 10 000
// samples).
func BenchmarkMonteCarlo(b *testing.B) {
	o := overlay.Figure4()
	dem := o.Demand(o.Peers[0])
	for i := 0; i < b.N; i++ {
		if _, err := reliability.MonteCarlo(o.G, dem, 10000, int64(i), reliability.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator is experiment E10: streaming-session throughput (one
// op = 10 000 sessions).
func BenchmarkSimulator(b *testing.B) {
	o := overlay.Figure4()
	dem := o.Demand(o.Peers[0])
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(o.G, dem, sim.Config{Sessions: 10000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBottleneckSearch measures minimal-cut enumeration and the
// α-bottleneck selection (the preprocessing the paper assumes given).
func BenchmarkBottleneckSearch(b *testing.B) {
	g, dem, _ := clusteredInstance(b, 8)
	for i := 0; i < b.N; i++ {
		if _, err := FindBottleneck(g, dem.S, dem.T, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanReuse is ablation A8: the compile/evaluate split on the A3
// instance — a cold compile (side arrays built from scratch), a cache-hit
// compile (structural hash lookup only), and a single probability
// evaluation against the frozen arrays.
func BenchmarkPlanReuse(b *testing.B) {
	g, dem, _ := clusteredInstance(b, 6)
	b.Run("cold-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ResetPlanCache()
			if _, err := CompilePlan(g, dem, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	ResetPlanCache()
	plan, err := CompilePlan(g, dem, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cached-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CompilePlan(g, dem, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	pf := plan.BasePFail()
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Eval(pf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalBatch measures batch evaluation throughput on the A3
// instance: 256 probability scenarios per op through the transposed block
// kernels (EvalBatchInto, tracked by the bench gate as
// eval_batch_ns_per_op) versus the same scenarios through the scalar
// evaluate phase the kernels replaced (eval_batch_scalar_ns_per_op — the
// pre-kernel baseline the ≥5× target in BENCH_7.json is measured
// against). Both sub-benchmarks also report scenarios/sec.
func BenchmarkEvalBatch(b *testing.B) {
	g, dem, _ := clusteredInstance(b, 6)
	ResetPlanCache()
	plan, err := CompilePlan(g, dem, Config{})
	if err != nil {
		b.Fatal(err)
	}
	base := plan.BasePFail()
	const batch = 256
	scenarios := make([][]float64, batch)
	for i := range scenarios {
		pf := make([]float64, len(base))
		sc := 2 * float64(i) / float64(batch-1)
		for j := range pf {
			pf[j] = base[j] * sc
			if pf[j] >= 1 {
				pf[j] = 0.999999
			}
		}
		scenarios[i] = pf
	}
	dst := make([]float64, batch)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := plan.EvalBatchInto(dst, scenarios, EvalBatchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
	})
	b.Run("scalar", func(b *testing.B) {
		// The pre-kernel EvalBatch, reproduced exactly: one goroutine per
		// scenario behind a semaphore, each paying full validation and a
		// scalar evaluation.
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			sem := make(chan struct{}, runtime.GOMAXPROCS(0))
			for s := range scenarios {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					r, err := plan.core.EvalScalar(scenarios[s])
					if err != nil {
						panic(err)
					}
					dst[s] = r
				}(s)
			}
			wg.Wait()
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
	})
}

// BenchmarkSweepModes is the 20-point `-mode scale` sweep both ways:
// per-point (rebuild the instance and pay a full solve at every scale
// factor — the pre-plan behaviour) vs planned (one compile, twenty
// probability evaluations). The planned variant asserts, via the compile
// statistics, that the whole sweep runs exactly one side-array
// construction: its max-flow call count equals a single cold compile's,
// and evaluation adds none.
func BenchmarkSweepModes(b *testing.B) {
	g, dem, _ := clusteredInstance(b, 6)
	const points = 20
	scales := make([]float64, points)
	for i := range scales {
		scales[i] = 2 * float64(i) / float64(points-1)
	}
	base := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		base[i] = e.PFail
	}
	scenarios := make([][]float64, points)
	for i, sc := range scales {
		pf := make([]float64, len(base))
		for j := range pf {
			pf[j] = base[j] * sc
			if pf[j] >= 1 {
				pf[j] = 0.999999
			}
		}
		scenarios[i] = pf
	}
	ResetPlanCache()
	ref, err := CompilePlan(g, dem, Config{})
	if err != nil {
		b.Fatal(err)
	}
	oneCompile := ref.MaxFlowCalls()

	b.Run("per-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, sc := range scales {
				ResetPlanCache()
				inst := rescaleProbs(b, g, sc)
				if _, err := Compute(inst, dem, Config{Engine: EngineCore}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ResetPlanCache()
			plan, err := CompilePlan(g, dem, Config{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.EvalBatch(scenarios); err != nil {
				b.Fatal(err)
			}
			if calls := plan.MaxFlowCalls(); calls != oneCompile {
				b.Fatalf("sweep ran %d max-flow calls, want exactly one construction (%d)", calls, oneCompile)
			}
		}
	})
}

// BenchmarkChain is experiment E11: single-cut core vs the multi-cut chain
// solver on delivery chains of growing length.
func BenchmarkChain(b *testing.B) {
	for _, blocks := range []int{3, 4, 5} {
		o, cuts, err := overlay.Chain(blocks, 3, 2, 2, 2, 2, 0.1, int64(blocks))
		if err != nil {
			b.Fatal(err)
		}
		dem := o.Demand(o.Peers[len(o.Peers)-1])
		b.Run(fmt.Sprintf("chain/blocks=%d", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chain.Solve(o.G, dem, cuts, chain.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		if blocks <= 4 {
			b.Run(fmt.Sprintf("core/blocks=%d", blocks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Reliability(o.G, dem, core.Options{Bottleneck: cuts[0], MaxSideEdges: 26}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReduce is ablation A5: the exact preprocessing pass itself and
// its effect on a downstream factoring solve.
func BenchmarkReduce(b *testing.B) {
	o, err := overlay.MultiTree(12, 3, 2, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	b.Run("apply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reduce.Apply(o.G, dem); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factoring-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reliability.Factoring(o.G, dem, reliability.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	red, err := reduce.Apply(o.G, dem)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("factoring-reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reliability.Factoring(red.G, red.Demand, reliability.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMostProbableStates is ablation A6: certified bounds from
// bounded failure layers.
func BenchmarkMostProbableStates(b *testing.B) {
	g, dem, _ := clusteredInstance(b, 10)
	for _, budget := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("L=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := reliability.MostProbableStates(g, dem, budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolynomial is experiment E14: one enumeration yields the whole
// R(p) curve; evaluations afterwards are nearly free.
func BenchmarkPolynomial(b *testing.B) {
	o := overlay.Figure2()
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	b.Run("compute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := poly.Compute(o.G, dem, reliability.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	P, err := poly.Compute(o.G, dem, reliability.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			P.Eval(0.1)
		}
	})
}

// BenchmarkMulticast is experiment E12: all-subscribers reliability.
func BenchmarkMulticast(b *testing.B) {
	o, err := overlay.MultiTree(8, 2, 2, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := multicast.Naive(o.G, o.Source, o.Peers, 2, reliability.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContinuousSim is experiment E17: event-driven renewal
// simulation throughput (one op = horizon 1000 on the Fig. 2 graph).
func BenchmarkContinuousSim(b *testing.B) {
	o := overlay.Figure2()
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	dyn := sim.UniformDynamics(o.G, 20, 3)
	for i := 0; i < b.N; i++ {
		if _, err := sim.Continuous(o.G, dem, sim.ContinuousConfig{
			Dynamics: dyn, Horizon: 1000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImportance is experiment E16: the full Birnbaum ranking
// (2|E| conditional factoring solves).
func BenchmarkImportance(b *testing.B) {
	g, dem, _ := clusteredInstance(b, 5)
	for i := 0; i < b.N; i++ {
		if _, err := reliability.BirnbaumImportance(g, dem, reliability.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRiskGroups is experiment E15: conditioning on shared-risk
// group states.
func BenchmarkRiskGroups(b *testing.B) {
	o, err := overlay.Clustered(5, 8, 2, 1, 2, 0.05, 6)
	if err != nil {
		b.Fatal(err)
	}
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	groups := []srlg.Group{{PFail: 0.05, Links: o.Bottleneck}}
	for i := 0; i < b.N; i++ {
		if _, err := srlg.Reliability(o.G, dem, groups, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnTransform is experiment E13: node splitting plus a solve.
func BenchmarkChurnTransform(b *testing.B) {
	o, err := overlay.MultiTree(10, 2, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	deep := o.Peers[len(o.Peers)-1]
	var peers []churn.Peer
	for _, p := range o.Peers {
		if p != deep {
			peers = append(peers, churn.Peer{Node: p, PFail: 0.05})
		}
	}
	for i := 0; i < b.N; i++ {
		inst, err := churn.Transform(o.G, o.Demand(deep), peers)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reliability.Factoring(inst.G, inst.Demand, reliability.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistribution measures the deliverable-rate distribution engines
// (E9's partial-delivery metrics come from these).
func BenchmarkDistribution(b *testing.B) {
	o := overlay.Figure4()
	dem := o.Demand(o.Peers[0])
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.Exact(o.G, dem, reliability.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.Factored(o.G, dem, reliability.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
