package flowrel

import "testing"

// TestFrontierPruningA3 is the CI bench-smoke assertion for the frontier
// side walk on the A3 instance (overlay.Clustered side=6, 20 links,
// d=2): the monotone pruning must actually bite. The walk has to pay
// strictly fewer max-flow calls than the configurations it decides —
// and solve at most 1% of the dense |𝒟|·2^m pair count that solving
// every pair would cost, which only the cut certificates reach — with
// both pruning counters contributing.
func TestFrontierPruningA3(t *testing.T) {
	g, dem, cut := clusteredInstance(t, 6)
	ResetPlanCache()
	rep, err := Compute(g, dem, Config{Engine: EngineCore, Bottleneck: cut, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s == nil || s.PlanCacheHit {
		t.Fatalf("want a cold compile with stats, got %+v", s)
	}
	if s.FrontierMaxFlowCalls <= 0 {
		t.Fatalf("frontier engine did not run: frontier_max_flow_calls = %d", s.FrontierMaxFlowCalls)
	}
	if s.FrontierMaxFlowCalls >= int64(s.Configs) {
		t.Errorf("frontier paid %d max-flow calls over %d configurations; want strictly fewer",
			s.FrontierMaxFlowCalls, s.Configs)
	}
	densePairs := int64(len(rep.Assignments)) * int64(s.Configs)
	if limit := densePairs / 100; s.FrontierMaxFlowCalls > limit {
		t.Errorf("frontier paid %d max-flow calls; want at most 1%% of the %d dense pairs (%d)",
			s.FrontierMaxFlowCalls, densePairs, limit)
	}
	if s.PrunedCapacity == 0 || s.PrunedClosure == 0 {
		t.Errorf("expected both pruning filters to fire: pruned_capacity=%d pruned_closure=%d",
			s.PrunedCapacity, s.PrunedClosure)
	}
	t.Logf("A3: |𝒟|=%d configs=%d dense_pairs=%d frontier_calls=%d pruned_capacity=%d pruned_closure=%d",
		len(rep.Assignments), s.Configs, densePairs,
		s.FrontierMaxFlowCalls, s.PrunedCapacity, s.PrunedClosure)
}
