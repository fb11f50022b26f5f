package flowrel

import (
	"math"
	"strings"
	"testing"

	"flowrel/internal/overlay"
	"flowrel/internal/testutil"
)

// rescaleProbs rebuilds g with every link's failure probability multiplied
// by f (link IDs and capacities preserved).
func rescaleProbs(t testing.TB, g *Graph, f float64) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		b.AddNamedNode(g.NodeName(NodeID(i)))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Cap, e.PFail*f)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPlanCacheHitIdentical: the second Compute of the same instance must
// come from the plan cache — bit-identical reliability, zero compile work
// reported — and the cache counters must say so.
func TestPlanCacheHitIdentical(t *testing.T) {
	ResetPlanCache()
	g, dem := figure2Demand()
	first, err := Compute(g, dem, Config{Engine: EngineCore})
	if err != nil {
		t.Fatal(err)
	}
	if first.MaxFlowCalls == 0 {
		t.Fatal("cold solve reported no max-flow work")
	}
	second, err := Compute(g, dem, Config{Engine: EngineCore})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(second.Reliability, first.Reliability, 0) {
		t.Fatalf("cache hit changed the answer: %.17g vs %.17g", second.Reliability, first.Reliability)
	}
	if second.MaxFlowCalls != 0 || second.Configs != 0 {
		t.Fatalf("cache hit reported compile work: calls=%d configs=%d", second.MaxFlowCalls, second.Configs)
	}
	if second.K != first.K || !testutil.AlmostEqual(second.Alpha, first.Alpha, 0) || len(second.Cut) != len(first.Cut) {
		t.Fatalf("cache hit changed the decomposition: %+v vs %+v", second, first)
	}
	hits, misses, entries := PlanCacheStats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("cache stats hits=%d misses=%d entries=%d, want 1/1/1", hits, misses, entries)
	}
}

// TestPlanCacheStructuralKey: the key is topology + capacities + demand
// only. Rescaled probabilities hit the same entry and still produce the
// right answer for the *new* probabilities; a capacity change misses.
func TestPlanCacheStructuralKey(t *testing.T) {
	ResetPlanCache()
	g, dem := figure2Demand()
	if _, err := Compute(g, dem, Config{Engine: EngineCore}); err != nil {
		t.Fatal(err)
	}
	scaled := rescaleProbs(t, g, 0.5)
	rep, err := Compute(scaled, dem, Config{Engine: EngineCore})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := PlanCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("rescaled probabilities should hit: hits=%d misses=%d", hits, misses)
	}
	// The hit must answer for scaled's probabilities, not the cached
	// graph's: compare against a fresh solve of scaled alone.
	ResetPlanCache()
	want, err := Compute(scaled, dem, Config{Engine: EngineCore})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(rep.Reliability, want.Reliability, 0) {
		t.Fatalf("cache-hit eval %.17g != fresh solve %.17g", rep.Reliability, want.Reliability)
	}

	// A capacity change is a different structure: must miss.
	ResetPlanCache()
	if _, err := Compute(g, dem, Config{Engine: EngineCore}); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		b.AddNamedNode(g.NodeName(NodeID(i)))
	}
	for _, e := range g.Edges() {
		cap := e.Cap
		if e.ID == 0 {
			cap++
		}
		b.AddEdge(e.U, e.V, cap, e.PFail)
	}
	bumped, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(bumped, dem, Config{Engine: EngineCore}); err != nil {
		t.Fatal(err)
	}
	_, misses, _ = PlanCacheStats()
	if misses != 2 {
		t.Fatalf("capacity change should miss: misses=%d, want 2", misses)
	}
}

// TestCompilePlanPublicAPI covers the public Plan surface: compile once,
// evaluate the base and a conditioned vector, and confirm cache-hit plans
// report zero compile work.
func TestCompilePlanPublicAPI(t *testing.T) {
	ResetPlanCache()
	g, dem := figure2Demand()
	plan, err := CompilePlan(g, dem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxFlowCalls() == 0 {
		t.Fatal("cold compile reported no max-flow work")
	}
	direct, err := Compute(g, dem, Config{Engine: EngineCore})
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(r, direct.Reliability, 0) {
		t.Fatalf("Eval(nil) %.17g != Compute %.17g", r, direct.Reliability)
	}
	rep, err := plan.Report(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(rep.Reliability, r, 0) || rep.Engine != EngineCore || rep.K != direct.K {
		t.Fatalf("Report mismatch: %+v vs direct %+v", rep, direct)
	}

	// Conditioning every link up gives exactly 1.
	perfect := make([]float64, plan.NumEdges())
	r, err = plan.Eval(perfect)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("all links perfect: R = %g, want exactly 1", r)
	}

	// Second compile of the same structure: cache hit, zero compile work.
	again, err := CompilePlan(g, dem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if again.MaxFlowCalls() != 0 {
		t.Fatalf("cache-hit plan reports %d max-flow calls, want 0", again.MaxFlowCalls())
	}
	rep2, err := again.Report(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.MaxFlowCalls != 0 || rep2.Configs != 0 {
		t.Fatalf("cache-hit Report shows compile work: %+v", rep2)
	}
	if !testutil.AlmostEqual(rep2.Reliability, direct.Reliability, 0) {
		t.Fatalf("cache-hit Report %.17g != direct %.17g", rep2.Reliability, direct.Reliability)
	}
}

// TestCompilePlanRejectsReduce: reductions renumber links, so Eval vectors
// would silently misindex — CompilePlan must refuse.
func TestCompilePlanRejectsReduce(t *testing.T) {
	g, dem := figure2Demand()
	if _, err := CompilePlan(g, dem, Config{Reduce: true}); err == nil {
		t.Fatal("CompilePlan accepted Reduce")
	} else if !strings.Contains(err.Error(), "Reduce") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := CompilePlan(nil, dem, Config{}); err == nil {
		t.Fatal("CompilePlan accepted a nil graph")
	}
}

// TestPlanEvalBatchFacade: the public EvalBatch treats nil entries as the
// compile-time probabilities and agrees with sequential Eval.
func TestPlanEvalBatchFacade(t *testing.T) {
	ResetPlanCache()
	g, dem := figure2Demand()
	plan, err := CompilePlan(g, dem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := make([][]float64, 10)
	for i := 1; i < len(scenarios); i++ {
		pf := plan.BasePFail()
		for j := range pf {
			pf[j] = pf[j] * float64(i) / float64(len(scenarios))
		}
		scenarios[i] = pf
	}
	rs, err := plan.EvalBatch(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scenarios {
		want, err := plan.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i] != want {
			t.Fatalf("scenario %d: batch %.17g != Eval %.17g", i, rs[i], want)
		}
	}
}

// TestPlanReuseSpeedup pins the reuse claim as work, not wall time: in a
// 20-point probability sweep, every independent cold Compute pays
// max-flow calls, while one compiled plan pays exactly its own compile's
// calls and evaluating all 20 scenarios through it pays none. The
// wall-clock side of the claim is BenchmarkPlanReuse, which benchgate
// gates.
func TestPlanReuseSpeedup(t *testing.T) {
	if !StatsEnabled() {
		SetStatsEnabled(true)
		defer SetStatsEnabled(false)
	}
	o, err := overlay.Clustered(6, 9, 2, 2, 2, 0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	g, dem := o.G, o.Demand(o.Peers[len(o.Peers)-1])
	const points = 20

	scenarios := make([][]float64, points)
	base := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		base[i] = e.PFail
	}
	for i := range scenarios {
		pf := append([]float64(nil), base...)
		sc := float64(i) / float64(points-1)
		for j := range pf {
			pf[j] = math.Min(pf[j]*sc*2, 0.999999)
		}
		scenarios[i] = pf
	}

	// Baseline: every point pays the full compile (cold cache each time).
	for i := 0; i < points; i++ {
		ResetPlanCache()
		scaled := rescaleProbs(t, g, math.Min(float64(i)/float64(points-1)*2, 0.9/0.1))
		rep, err := Compute(scaled, dem, Config{Engine: EngineCore})
		if err != nil {
			t.Fatal(err)
		}
		if rep.MaxFlowCalls <= 0 {
			t.Fatalf("cold point %d reported %d max-flow calls, want > 0", i, rep.MaxFlowCalls)
		}
	}

	// Plan path: one compile, twenty evaluations.
	maxFlowCalls := func() int64 { return StatsSnapshot().Counters["core.max_flow_calls"] }
	ResetPlanCache()
	before := maxFlowCalls()
	plan, err := CompilePlan(g, dem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	compiled := maxFlowCalls()
	if plan.MaxFlowCalls() <= 0 || compiled-before != plan.MaxFlowCalls() {
		t.Fatalf("plan compile: registry counted %d max-flow calls, the plan reports %d; want the same positive count",
			compiled-before, plan.MaxFlowCalls())
	}
	if _, err := plan.EvalBatch(scenarios); err != nil {
		t.Fatal(err)
	}
	if d := maxFlowCalls() - compiled; d != 0 {
		t.Fatalf("evaluating %d scenarios through the plan paid %d max-flow calls, want 0", points, d)
	}
}
