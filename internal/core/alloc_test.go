package core

import (
	"testing"

	"flowrel/internal/graph"
)

// The dynamic twin of the hotalloc static gate: after one warm-up call
// populates the scratch pools, the evaluate hot paths must run without a
// single heap allocation per operation. A real regression allocates at
// least once per run and fails loudly; the < 1 threshold only tolerates
// a GC emptying a sync.Pool mid-measurement, which shows up as a
// fractional average over the 200 runs.

func TestPlanEvalZeroAllocs(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	pf := plan.BasePFail()
	if _, err := plan.Eval(pf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := plan.Eval(pf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("Plan.Eval allocates %.2f times per op in steady state, want 0", allocs)
	}
}

func TestEvalBatchIntoZeroAllocs(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := make([][]float64, 32)
	for i := range scenarios {
		scenarios[i] = plan.BasePFail()
	}
	dst := make([]float64, len(scenarios))
	opt := BatchOptions{Parallelism: 1} // the inline drain fast path
	if err := plan.EvalBatchInto(dst, scenarios, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := plan.EvalBatchInto(dst, scenarios, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("EvalBatchInto (preallocated dst, parallelism 1) allocates %.2f times per op, want 0", allocs)
	}
}

// scalarOnlyPlan is the smallest plan past the kernel guards: d = 5 over
// three capacity-5 cut links gives |𝒟| = C(7, 2) = 21 >
// maxKernelAssignments, so the plan keeps only the scalar evaluator.
func scalarOnlyPlan(t *testing.T) *Plan {
	t.Helper()
	b := graph.NewBuilder()
	s := b.AddNode()
	tt := b.AddNode()
	cut := make([]graph.EdgeID, 3)
	for i := range cut {
		x := b.AddNode()
		y := b.AddNode()
		b.AddEdge(s, x, 5, 0.1)
		cut[i] = b.AddEdge(x, y, 5, 0.05)
		b.AddEdge(y, tt, 5, 0.2)
	}
	plan, err := Compile(b.MustBuild(), graph.Demand{S: s, T: tt, D: 5}, Options{Bottleneck: cut, MaxAssignmentSet: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 21 || plan.kern != nil {
		t.Fatalf("|𝒟| = %d, kernel built = %v: want 21 and the scalar path only", len(plan.Assignments), plan.kern != nil)
	}
	return plan
}

// The scalar path must hold the same contract, through Eval and through
// the pooled evalScratch branch of drain. Each scalar evaluation walks
// the 2^21-entry lattice (tenths of a second), so a few runs stand in
// for the 200 above.
func TestEvalScalarPathZeroAllocs(t *testing.T) {
	plan := scalarOnlyPlan(t)
	pf := plan.BasePFail()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := plan.Eval(pf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("Plan.Eval (scalar path) allocates %.2f times per op, want 0", allocs)
	}

	scenarios := [][]float64{nil}
	dst := make([]float64, len(scenarios))
	opt := BatchOptions{Parallelism: 1}
	allocs = testing.AllocsPerRun(2, func() {
		if err := plan.EvalBatchInto(dst, scenarios, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("EvalBatchInto (scalar path, parallelism 1) allocates %.2f times per op, want 0", allocs)
	}
}
