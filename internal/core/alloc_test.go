package core

import (
	"testing"
)

// The dynamic twin of the hotalloc static gate: after one warm-up call
// populates the scratch pools, the evaluate hot paths must run without a
// single heap allocation per operation. A real regression allocates at
// least once per run and fails loudly; the < 1 threshold only tolerates
// a GC emptying a sync.Pool mid-measurement, which shows up as a
// fractional average over the 200 runs.

// skipUnderRace skips an allocation count under the race detector. Its
// runtime drops one sync.Pool.Put in four on purpose, so every few
// calls a pooled scratch is rebuilt (six objects), and a steady-state
// Eval or EvalScalar averages about 1.5 allocations per op there while
// it makes none in a normal build, which holds the contract.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race runtime drops a quarter of sync.Pool.Put calls, so pooled scratch is reallocated; the non-race run checks zero allocations")
	}
}

func TestPlanEvalZeroAllocs(t *testing.T) {
	skipUnderRace(t)
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
	skipUnderRace(t)
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

// EvalScalar, the reference the kernels are held to, keeps the same
// contract on the one-lane kernel's pooled scratch.
func TestEvalScalarPathZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	pf := plan.BasePFail()
	if _, err := plan.EvalScalar(pf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := plan.EvalScalar(pf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("Plan.EvalScalar allocates %.2f times per op in steady state, want 0", allocs)
	}
}
