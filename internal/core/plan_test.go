package core

import (
	"math"
	"math/rand"
	"testing"

	"flowrel/internal/graph"
	"flowrel/internal/reliability"
	"flowrel/internal/testutil"
)

// rebuildWithProbs copies g with each link's failure probability replaced
// by pf[ID] (link IDs preserved); pf entries must lie in [0, 1).
func rebuildWithProbs(g *graph.Graph, pf []float64) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		b.AddNamedNode(g.NodeName(graph.NodeID(i)))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Cap, pf[e.ID])
	}
	return b.MustBuild()
}

// rebuildWithoutLink copies g minus one link, with the surviving links'
// probabilities taken from pf — the graph-surgery form of conditioning
// that link down.
func rebuildWithoutLink(g *graph.Graph, pf []float64, link graph.EdgeID) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		b.AddNamedNode(g.NodeName(graph.NodeID(i)))
	}
	for _, e := range g.Edges() {
		if e.ID != link {
			b.AddEdge(e.U, e.V, e.Cap, pf[e.ID])
		}
	}
	return b.MustBuild()
}

// TestPlanEvalMatchesDirect is the plan-reuse correctness corpus: on ≥ 50
// random planted-bottleneck graphs, one compiled Plan must reproduce the
// direct solve at the base probabilities, at a random re-weighting, and
// after conditioning a random link up (p = 0) and down (p = 1) — each to
// 1e-12 against an independent oracle on the modified instance.
func TestPlanEvalMatchesDirect(t *testing.T) {
	const wantGraphs = 50
	count := 0
	for seed := int64(0); count < wantGraphs && seed < 50*wantGraphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		g, dem, cut := plantBottleneck(rng, 2+rng.Intn(3), 2+rng.Intn(4), k, d)
		if g.NumEdges() > 14 {
			continue // keep the naive oracle cheap
		}
		opt := Options{Bottleneck: cut}
		plan, err := Compile(g, dem, opt)
		if err != nil {
			// The planted cut can fail minimality; fall back to discovery.
			opt = Options{}
			plan, err = Compile(g, dem, opt)
			if err != nil {
				continue // no usable cut: out of the decomposition's scope
			}
		}
		count++

		// Base probabilities: Eval(nil) must be bit-identical to the
		// direct solve (which is Compile + Eval by construction, but the
		// equality is the refactoring's contract).
		direct, err := Reliability(g, dem, opt)
		if err != nil {
			t.Fatalf("seed %d: direct solve: %v", seed, err)
		}
		got, err := plan.Eval(nil)
		if err != nil {
			t.Fatalf("seed %d: Eval(nil): %v", seed, err)
		}
		if !testutil.AlmostEqual(got, direct.Reliability, 0) {
			t.Fatalf("seed %d: Eval(nil) %.17g != direct %.17g", seed, got, direct.Reliability)
		}

		// Random re-weighting: oracle = naive enumeration on the rebuilt
		// graph.
		pf := plan.BasePFail()
		for i := range pf {
			pf[i] = rng.Float64() * 0.95
		}
		want, err := reliability.Naive(rebuildWithProbs(g, pf), dem, reliability.Options{})
		if err != nil {
			t.Fatalf("seed %d: naive oracle: %v", seed, err)
		}
		got, err = plan.Eval(pf)
		if err != nil {
			t.Fatalf("seed %d: Eval(reweighted): %v", seed, err)
		}
		if math.Abs(got-want.Reliability) > 1e-12 {
			t.Fatalf("seed %d: Eval(reweighted) %.15f vs naive %.15f", seed, got, want.Reliability)
		}

		// Conditioning up: p(e) = 0 against the rebuilt-graph oracle.
		link := graph.EdgeID(rng.Intn(g.NumEdges()))
		orig := pf[link]
		pf[link] = 0
		want, err = reliability.Naive(rebuildWithProbs(g, pf), dem, reliability.Options{})
		if err != nil {
			t.Fatalf("seed %d: naive up-oracle: %v", seed, err)
		}
		got, err = plan.Eval(pf)
		if err != nil {
			t.Fatalf("seed %d: Eval(up): %v", seed, err)
		}
		if math.Abs(got-want.Reliability) > 1e-12 {
			t.Fatalf("seed %d link %d: Eval(up) %.15f vs naive %.15f", seed, link, got, want.Reliability)
		}

		// Conditioning down: p(e) = 1 must equal removing the link.
		pf[link] = 1
		want, err = reliability.Naive(rebuildWithoutLink(g, pf, link), dem, reliability.Options{})
		if err != nil {
			t.Fatalf("seed %d: naive down-oracle: %v", seed, err)
		}
		got, err = plan.Eval(pf)
		if err != nil {
			t.Fatalf("seed %d: Eval(down): %v", seed, err)
		}
		if math.Abs(got-want.Reliability) > 1e-12 {
			t.Fatalf("seed %d link %d: Eval(down) %.15f vs naive %.15f", seed, link, got, want.Reliability)
		}
		pf[link] = orig
	}
	if count < wantGraphs {
		t.Fatalf("corpus produced only %d usable graphs, want ≥ %d", count, wantGraphs)
	}
}

// TestPlanEvalBatchDeterministic: EvalBatch must return exactly the
// sequential Eval results for any parallelism, including nil scenarios
// (base probabilities) — and be race-free under concurrency (run with
// -race).
func TestPlanEvalBatchDeterministic(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	scenarios := make([][]float64, 64)
	for i := range scenarios {
		if i%8 == 0 {
			continue // nil: base probabilities
		}
		pf := plan.BasePFail()
		for j := range pf {
			pf[j] = rng.Float64() * 0.9
		}
		scenarios[i] = pf
	}
	batch, err := plan.EvalBatch(scenarios, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, pf := range scenarios {
		want, err := plan.Eval(pf)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("scenario %d: batch %.17g != sequential %.17g", i, batch[i], want)
		}
	}
	// Worker count must not change a single bit.
	again, err := plan.EvalBatch(scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if batch[i] != again[i] {
			t.Fatalf("scenario %d: parallelism changes result", i)
		}
	}
}

// TestPlanEvalValidation covers the evaluate-phase input contract.
func TestPlanEvalValidation(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Eval(make([]float64, g.NumEdges()+1)); err == nil {
		t.Fatal("wrong-length vector accepted")
	}
	bad := plan.BasePFail()
	bad[0] = math.NaN()
	if _, err := plan.Eval(bad); err == nil {
		t.Fatal("NaN probability accepted")
	}
	bad[0] = 1.5
	if _, err := plan.Eval(bad); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	bad[0] = -0.1
	if _, err := plan.Eval(bad); err == nil {
		t.Fatal("negative probability accepted")
	}
	// p = 1 is valid in the evaluate phase (conditioning down), unlike in
	// a Graph.
	ok := plan.BasePFail()
	ok[0] = 1
	if _, err := plan.Eval(ok); err != nil {
		t.Fatalf("p = 1 rejected: %v", err)
	}
	if _, err := plan.EvalBatch([][]float64{make([]float64, 1)}, 0); err == nil {
		t.Fatal("EvalBatch wrong-length scenario accepted")
	}
}

// TestPlanTriviallyZero: a cut too thin for the demand compiles to the
// all-zero plan, for every probability vector.
func TestPlanTriviallyZero(t *testing.T) {
	g, dem, _ := bridgeGraph()
	dem.D = 3 // bridge capacity is 2
	plan, err := Compile(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := plan.BasePFail()
	for i := range pf {
		pf[i] = 0
	}
	r, err := plan.Eval(pf)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("R = %g with all links perfect, want 0", r)
	}
}

// TestPlanCompileStatsFrozen: evaluation adds no max-flow work — the
// compile-phase counters are immutable afterwards.
func TestPlanCompileStatsFrozen(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	calls, checks := plan.Stats.MaxFlowCalls, plan.Stats.RealizationChecks
	if calls == 0 {
		t.Fatal("compile did no max-flow work?")
	}
	for i := 0; i < 50; i++ {
		if _, err := plan.Eval(nil); err != nil {
			t.Fatal(err)
		}
	}
	if plan.Stats.MaxFlowCalls != calls || plan.Stats.RealizationChecks != checks {
		t.Fatalf("Eval changed compile stats: %+v", plan.Stats)
	}
}

// TestPlanEvalBatchDefaultParallelism: parallelism ≤ 0 means "pick for
// me" (GOMAXPROCS), not zero workers — a zero or negative worker count
// must still evaluate every scenario and match the sequential answers.
func TestPlanEvalBatchDefaultParallelism(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	scenarios := make([][]float64, 16)
	for i := range scenarios {
		pf := plan.BasePFail()
		for j := range pf {
			pf[j] = rng.Float64() * 0.9
		}
		scenarios[i] = pf
	}
	for _, par := range []int{0, -1, -64} {
		got, err := plan.EvalBatch(scenarios, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i, pf := range scenarios {
			want, err := plan.Eval(pf)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("parallelism %d scenario %d: %.17g != %.17g", par, i, got[i], want)
			}
		}
	}
}
