package flowrel

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"flowrel/internal/stats"
)

// figure2 is the paper's example topology (two parallel source paths, a
// bottleneck link, two parallel sink paths).
func obsTestGraph(t *testing.T) (*Graph, Demand) {
	t.Helper()
	b := NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNamedNode("a")
	bb := b.AddNamedNode("b")
	x := b.AddNamedNode("x")
	y := b.AddNamedNode("y")
	c := b.AddNamedNode("c")
	d := b.AddNamedNode("d")
	tt := b.AddNamedNode("t")
	b.AddEdge(s, a, 1, 0.1)
	b.AddEdge(s, bb, 1, 0.1)
	b.AddEdge(a, x, 1, 0.1)
	b.AddEdge(bb, x, 1, 0.1)
	b.AddEdge(x, y, 1, 0.05)
	b.AddEdge(y, c, 1, 0.1)
	b.AddEdge(y, d, 1, 0.1)
	b.AddEdge(c, tt, 1, 0.1)
	b.AddEdge(d, tt, 1, 0.1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, Demand{S: s, T: tt, D: 1}
}

func TestCollectStatsReport(t *testing.T) {
	ResetPlanCache()
	g, dem := obsTestGraph(t)

	rep, err := Compute(g, dem, Config{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st == nil {
		t.Fatal("CollectStats set but Report.Stats is nil")
	}
	if st.TotalNanos <= 0 {
		t.Errorf("TotalNanos = %d, want > 0", st.TotalNanos)
	}
	if st.PlanCacheHit {
		t.Error("first solve reported a plan cache hit")
	}
	if len(st.Rungs) == 0 || st.Rungs[0].Rung != "core" || st.Rungs[0].Outcome != "answered" {
		t.Errorf("rungs = %+v, want leading core/answered", st.Rungs)
	}
	if len(st.Phases) == 0 {
		t.Error("no phases recorded for a cold core solve")
	}
	if st.AugmentingPaths <= 0 {
		t.Errorf("AugmentingPaths = %d, want > 0 on a cold compile", st.AugmentingPaths)
	}

	// Second solve: answered from the plan cache, no flow work.
	rep2, err := Compute(g, dem, Config{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Stats.PlanCacheHit {
		t.Error("second solve missed the plan cache")
	}
	if rep2.Stats.AugmentingPaths != 0 {
		t.Errorf("cache hit ran %d augmenting paths, want 0", rep2.Stats.AugmentingPaths)
	}

	// The report must serialize with its documented snake_case keys.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"total_ns"`, `"plan_cache_hit"`, `"budget_curve"`, `"augmenting_paths"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("SolveStats JSON missing %s: %s", key, raw)
		}
	}
}

// TestConfigTracer verifies a caller-supplied tracer sees the same
// events the recorder does, concurrently and without CollectStats.
func TestConfigTracer(t *testing.T) {
	ResetPlanCache()
	g, dem := obsTestGraph(t)

	var mu sync.Mutex
	var rungs []string
	var phases int
	tr := &funcTracer{
		onPhase: func(stats.PhaseEvent) { mu.Lock(); phases++; mu.Unlock() },
		onRung: func(e stats.RungEvent) {
			mu.Lock()
			rungs = append(rungs, e.Rung+"/"+e.Outcome)
			mu.Unlock()
		},
	}
	rep, err := Compute(g, dem, Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != nil {
		t.Error("Report.Stats set without CollectStats")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rungs) != 1 || rungs[0] != "core/answered" {
		t.Errorf("rungs = %v, want [core/answered]", rungs)
	}
	if phases == 0 {
		t.Error("tracer saw no phase events")
	}
}

type funcTracer struct {
	onPhase func(stats.PhaseEvent)
	onRung  func(stats.RungEvent)
}

func (f *funcTracer) OnPhase(e stats.PhaseEvent) { f.onPhase(e) }
func (f *funcTracer) OnConfig(stats.ConfigEvent) {}
func (f *funcTracer) OnRung(e stats.RungEvent)   { f.onRung(e) }

// TestKernelBuildTimer checks that a cold compile and a delta compile
// each observe core.kernel_build_time once, and that a traced compile
// reports the build as its kernel phase.
func TestKernelBuildTimer(t *testing.T) {
	withPlanCacheShards(t, planCacheShards, defaultPlanCacheCapacity)
	g, dem := obsTestGraph(t)
	before := StatsSnapshot()
	p, err := CompilePlan(g, dem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mutate(Mutation{Kind: MutateAdd, U: 1, V: 2, Cap: 1, PFail: 0.1}); err != nil {
		t.Fatal(err)
	}
	d := StatsSnapshot().Delta(before)
	if got := d.Timers["core.kernel_build_time"].Count; got != 2 {
		t.Fatalf("core.kernel_build_time observed %d times over a compile and a mutation, want 2", got)
	}
	ResetPlanCache()
	rep, err := Compute(g, dem, Config{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	kernel := 0
	for _, ph := range rep.Stats.Phases {
		if ph.Engine == "core" && ph.Phase == "kernel" {
			kernel++
		}
	}
	if kernel != 1 {
		t.Fatalf("a traced cold compile reported %d kernel phases, want 1: %+v", kernel, rep.Stats.Phases)
	}
}

// TestCutSearchTimer checks that a cold compile and a delta compile each
// observe core.cut_search_time once.
func TestCutSearchTimer(t *testing.T) {
	withPlanCacheShards(t, planCacheShards, defaultPlanCacheCapacity)
	g, dem := obsTestGraph(t)
	before := StatsSnapshot()
	p, err := CompilePlan(g, dem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mutate(Mutation{Kind: MutateAdd, U: 1, V: 2, Cap: 1, PFail: 0.1}); err != nil {
		t.Fatal(err)
	}
	d := StatsSnapshot().Delta(before)
	if got := d.Timers["core.cut_search_time"].Count; got != 2 {
		t.Fatalf("core.cut_search_time observed %d times over a compile and a mutation, want 2", got)
	}
	if d.Timers["core.compile_time"].Count != 1 || d.Timers["core.delta_compile_time"].Count != 1 {
		t.Fatalf("compile_time %d, delta_compile_time %d observations, want 1 each",
			d.Timers["core.compile_time"].Count, d.Timers["core.delta_compile_time"].Count)
	}
}
