package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestKernelMatchesScalarCorpus: on ≥ 50 random planted-bottleneck
// graphs, the compiled kernel must reproduce the scalar evaluate phase
// bit for bit, and both must match the literal ACCUMULATION scan
// (accumulateLiteral) to 1e-12 — at the base probabilities, at a random
// re-weighting, and with a random link conditioned up (p = 0) and down
// (p = 1). Batch evaluation of the same vectors must match
// single-scenario Eval bit for bit.
func TestKernelMatchesScalarCorpus(t *testing.T) {
	const wantGraphs = 50
	count := 0
	for seed := int64(0); count < wantGraphs && seed < 50*wantGraphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		g, dem, cut := plantBottleneck(rng, 2+rng.Intn(3), 2+rng.Intn(4), k, d)
		plan, err := Compile(g, dem, Options{Bottleneck: cut})
		if err != nil {
			plan, err = Compile(g, dem, Options{})
			if err != nil {
				continue
			}
		}
		if plan.ds == nil {
			continue // trivially-zero plan: nothing to evaluate
		}
		if plan.kern == nil {
			t.Fatalf("seed %d: |𝒟| = %d plan compiled without a kernel", seed, len(plan.Assignments))
		}
		count++

		pf := plan.BasePFail()
		vectors := [][]float64{plan.BasePFail()}
		re := plan.BasePFail()
		for i := range re {
			re[i] = rng.Float64() * 0.95
		}
		vectors = append(vectors, re)
		link := rng.Intn(len(pf))
		up := append([]float64(nil), re...)
		up[link] = 0
		down := append([]float64(nil), re...)
		down[link] = 1
		vectors = append(vectors, up, down)

		for vi, v := range vectors {
			got, err := plan.Eval(v)
			if err != nil {
				t.Fatalf("seed %d vector %d: Eval: %v", seed, vi, err)
			}
			want, err := plan.EvalScalar(v)
			if err != nil {
				t.Fatalf("seed %d vector %d: EvalScalar: %v", seed, vi, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d vector %d: kernel %.17g vs scalar %.17g", seed, vi, got, want)
			}
			if lit := accumulateLiteral(plan, v); math.Abs(got-lit) > 1e-12 {
				t.Fatalf("seed %d vector %d: kernel %.17g vs literal ACCUMULATION %.17g", seed, vi, got, lit)
			}
		}

		dst := make([]float64, len(vectors))
		if err := plan.EvalBatchInto(dst, vectors, BatchOptions{}); err != nil {
			t.Fatalf("seed %d: EvalBatchInto: %v", seed, err)
		}
		for vi, v := range vectors {
			want, err := plan.Eval(v)
			if err != nil {
				t.Fatal(err)
			}
			if dst[vi] != want {
				t.Fatalf("seed %d vector %d: batch %.17g != Eval %.17g", seed, vi, dst[vi], want)
			}
		}
	}
	if count < wantGraphs {
		t.Fatalf("corpus produced only %d usable graphs, want ≥ %d", count, wantGraphs)
	}
}

// TestKernelSIMDLevels: every SIMD dispatch level supported by the host
// must produce bit-identical batch results — vectorization is a speed
// choice, never a numeric one.
func TestKernelSIMDLevels(t *testing.T) {
	detected := kernelSIMD
	defer func() { kernelSIMD = detected }()

	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	scenarios := make([][]float64, 40)
	for i := range scenarios {
		pf := plan.BasePFail()
		for j := range pf {
			pf[j] = rng.Float64()
		}
		scenarios[i] = pf
	}

	var want []float64
	for level := simdNone; level <= detected; level++ {
		kernelSIMD = level
		got := make([]float64, len(scenarios))
		if err := plan.EvalBatchInto(got, scenarios, BatchOptions{}); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("level %d scenario %d: %.17g != portable %.17g", level, i, got[i], want[i])
			}
		}
	}
}

// TestEvalBatchBoundedConcurrency is the regression test for the
// goroutine-per-scenario dispatch the worker pool replaced: a large
// batch at parallelism 2 must never have more than two workers (plus the
// caller and ambient test goroutines) alive, where the old code spawned
// one goroutine per scenario up front.
func TestEvalBatchBoundedConcurrency(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := make([][]float64, 512)
	pf := plan.BasePFail()
	for i := range scenarios {
		scenarios[i] = pf
	}
	baseline := runtime.NumGoroutine()
	var maxSeen atomic.Int64
	plan.setBlockHook(func() {
		n := int64(runtime.NumGoroutine())
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				return
			}
		}
	})
	defer plan.setBlockHook(nil)
	dst := make([]float64, len(scenarios))
	if err := plan.EvalBatchInto(dst, scenarios, BatchOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	// Generous slack for runtime helpers; the pre-pool dispatch reached
	// baseline + hundreds here.
	if limit := int64(baseline + 2 + 8); maxSeen.Load() > limit {
		t.Fatalf("saw %d goroutines during a parallelism-2 batch (baseline %d): dispatch is not bounded", maxSeen.Load(), baseline)
	}
}

// TestEvalBatchSharedPlanConcurrent hammers one Plan from several
// goroutines, each running batches with different worker counts — the
// immutability contract under -race, with every caller getting the
// deterministic answers.
func TestEvalBatchSharedPlanConcurrent(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	scenarios := make([][]float64, 48)
	for i := range scenarios {
		pf := plan.BasePFail()
		for j := range pf {
			pf[j] = rng.Float64() * 0.9
		}
		scenarios[i] = pf
	}
	want, err := plan.EvalBatch(scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, len(scenarios))
			for iter := 0; iter < 5; iter++ {
				if err := plan.EvalBatchInto(dst, scenarios, BatchOptions{Parallelism: 1 + w%4}); err != nil {
					errs[w] = err
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						errs[w] = fmt.Errorf("worker %d scenario %d: %.17g != %.17g", w, i, dst[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedScratchAcrossPlans: plans of one shape draw their one-lane
// scratch from one process-wide pool. Two such plans evaluated from many
// goroutines at once must still give each caller the sequential answers,
// and the pool must not keep a plan alive once its caller drops it.
func TestSharedScratchAcrossPlans(t *testing.T) {
	g, dem, cut := twoBottleneck()
	var plans [2]*Plan
	for i := range plans {
		p, err := Compile(g, dem, Options{Bottleneck: cut})
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	if plans[0].kpool1 == nil || plans[0].kpool1 != plans[1].kpool1 {
		t.Fatal("two plans of one shape do not share a scratch pool")
	}
	rng := rand.New(rand.NewSource(41))
	scenarios := make([][]float64, 16)
	want := make([][2]float64, len(scenarios))
	for i := range scenarios {
		pf := plans[0].BasePFail()
		for j := range pf {
			pf[j] = rng.Float64() * 0.9
		}
		scenarios[i] = pf
		for k, p := range plans {
			r, err := p.Eval(pf)
			if err != nil {
				t.Fatal(err)
			}
			want[i][k] = r
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				i := (w + iter) % len(scenarios)
				k := (w + iter) % 2
				got, err := plans[k].Eval(scenarios[i])
				if err != nil {
					errs[w] = err
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i][k]) {
					errs[w] = fmt.Errorf("worker %d: plan %d scenario %d: %.17g != %.17g", w, k, i, got, want[i][k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Start from an empty pool table so the dropped plan is the first of
	// its shape: the one a capturing New would pin.
	kpools.Range(func(k, _ any) bool {
		kpools.Delete(k)
		return true
	})
	released := make(chan struct{})
	func() {
		p, err := Compile(g, dem, Options{Bottleneck: cut})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Eval(nil); err != nil {
			t.Fatal(err)
		}
		// A Plan's own pools reference it, so the finalizer watches its
		// kernel: reachable exactly as long as the plan is.
		runtime.SetFinalizer(p.kern, func(*evalKernel) { close(released) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("a dropped plan stays reachable: the shared scratch pool pins it")
}

// TestEvalBatchIntoQuick: property check that EvalBatchInto agrees bit
// for bit with per-scenario Eval on randomized scenario sets that mix
// interior probabilities with the 0/1 conditioning sentinels and nil
// (base) rows.
func TestEvalBatchIntoQuick(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, count uint8, par uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scenarios := make([][]float64, int(count%21))
		for i := range scenarios {
			if rng.Intn(6) == 0 {
				continue // nil: base probabilities
			}
			pf := plan.BasePFail()
			for j := range pf {
				switch rng.Intn(10) {
				case 0:
					pf[j] = 0
				case 1:
					pf[j] = 1
				default:
					pf[j] = rng.Float64()
				}
			}
			scenarios[i] = pf
		}
		dst := make([]float64, len(scenarios))
		if err := plan.EvalBatchInto(dst, scenarios, BatchOptions{Parallelism: int(par%5) - 1}); err != nil {
			t.Logf("EvalBatchInto: %v", err)
			return false
		}
		for i, pf := range scenarios {
			want, err := plan.Eval(pf)
			if err != nil {
				t.Logf("Eval: %v", err)
				return false
			}
			if dst[i] != want {
				t.Logf("scenario %d: batch %.17g != Eval %.17g", i, dst[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalBatchIntoBase: nil scenarios evaluate BatchOptions.Base when
// set (no per-scenario copying), the compile-time probabilities
// otherwise; dst sizing and base validation fail loudly.
func TestEvalBatchIntoBase(t *testing.T) {
	g, dem, cut := twoBottleneck()
	plan, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	base := plan.BasePFail()
	for i := range base {
		base[i] = base[i] * 0.5
	}
	explicit := append([]float64(nil), base...)
	dst := make([]float64, 3)
	if err := plan.EvalBatchInto(dst, [][]float64{nil, explicit, nil}, BatchOptions{Base: base}); err != nil {
		t.Fatal(err)
	}
	want, err := plan.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range dst {
		if got != want {
			t.Fatalf("entry %d: %.17g != Eval(base) %.17g", i, got, want)
		}
	}

	if err := plan.EvalBatchInto(make([]float64, 2), [][]float64{nil}, BatchOptions{}); err == nil {
		t.Fatal("dst/scenario length mismatch accepted")
	}
	bad := append([]float64(nil), base...)
	bad[0] = math.NaN()
	err = plan.EvalBatchInto(make([]float64, 1), [][]float64{nil}, BatchOptions{Base: bad})
	if err == nil || !strings.Contains(err.Error(), "base") {
		t.Fatalf("invalid base not rejected as base: %v", err)
	}
	if err := plan.EvalBatchInto(nil, nil, BatchOptions{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestKernelGroupByRealized sanity-checks the counting sort: the
// permutation must list every configuration exactly once, grouped by
// realized mask with ascending masks inside each group (the scalar
// scatter's addition order).
func TestKernelGroupByRealized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(8)
		realized := make([]uint64, 1<<uint(m))
		for i := range realized {
			realized[i] = uint64(rng.Intn(1 << uint(n)))
		}
		perm, segRM, segOff := groupByRealized(realized, n)
		if len(perm) != len(realized) {
			t.Fatalf("trial %d: perm covers %d of %d configs", trial, len(perm), len(realized))
		}
		if len(segOff) != len(segRM)+1 || segOff[len(segRM)] != int32(len(realized)) {
			t.Fatalf("trial %d: inconsistent segment offsets", trial)
		}
		seen := make([]bool, len(realized))
		for s, rm := range segRM {
			if s > 0 && segRM[s-1] >= rm {
				t.Fatalf("trial %d: segment masks not ascending", trial)
			}
			group := perm[segOff[s]:segOff[s+1]]
			for i, mask := range group {
				if realized[mask] != uint64(rm) {
					t.Fatalf("trial %d: config %d grouped under rm %d, realized %d", trial, mask, rm, realized[mask])
				}
				if i > 0 && group[i-1] >= mask {
					t.Fatalf("trial %d: group for rm %d not in ascending mask order", trial, rm)
				}
				if seen[mask] {
					t.Fatalf("trial %d: config %d listed twice", trial, mask)
				}
				seen[mask] = true
			}
		}
	}
}
