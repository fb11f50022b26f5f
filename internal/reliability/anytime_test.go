package reliability

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"flowrel/internal/anytime"
	"flowrel/internal/graph"
	"flowrel/internal/testutil"
)

// randomGraph builds a connected-ish random instance small enough for the
// exact oracle.
func randomGraph(t *testing.T, nodes, extra int, seed int64) (*graph.Graph, graph.Demand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	ids := make([]graph.NodeID, nodes)
	for i := range ids {
		ids[i] = b.AddNode()
	}
	for i := 1; i < nodes; i++ {
		b.AddEdge(ids[i-1], ids[i], 1+rng.Intn(2), 0.05+0.4*rng.Float64())
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u == v {
			continue
		}
		b.AddEdge(ids[u], ids[v], 1+rng.Intn(2), 0.05+0.4*rng.Float64())
	}
	return b.MustBuild(), graph.Demand{S: ids[0], T: ids[nodes-1], D: 1}
}

// checkInterval asserts a partial result's certified interval contains
// the oracle reliability.
func checkInterval(t *testing.T, name string, lo, hi, want float64) {
	t.Helper()
	if lo > hi {
		t.Fatalf("%s: inverted interval [%g, %g]", name, lo, hi)
	}
	if lo < -1e-12 || hi > 1+1e-12 {
		t.Fatalf("%s: interval [%g, %g] outside [0, 1]", name, lo, hi)
	}
	if want < lo-1e-9 || want > hi+1e-9 {
		t.Fatalf("%s: interval [%g, %g] misses the true reliability %g", name, lo, hi, want)
	}
}

func TestNaiveCancelledReturnsCertifiedInterval(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g, dem := randomGraph(t, 8, 8, seed)
		exact, err := NaiveExact(g, dem)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.Float64()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Naive(g, dem, Options{Ctl: anytime.New(ctx, anytime.Budget{})})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Fatalf("seed %d: cancelled run not marked partial", seed)
		}
		if res.Reason == "" {
			t.Fatalf("seed %d: no stop reason", seed)
		}
		checkInterval(t, "naive", res.Lo, res.Hi, want)
	}
}

func TestNaiveBudgetInterval(t *testing.T) {
	// A budget that stops enumeration midway must still certify.
	for seed := int64(1); seed <= 5; seed++ {
		g, dem := randomGraph(t, 8, 8, seed)
		exact, err := NaiveExact(g, dem)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.Float64()
		// With CheckEvery amortization the workers overshoot a tiny
		// budget, but on a 2^15-ish space they still stop well short:
		// within one batch per worker.
		ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: 1})
		res, err := Naive(g, dem, Options{Ctl: ctl, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkInterval(t, "naive budget", res.Lo, res.Hi, want)
		if bound := 1 + 2*uint64(anytime.CheckEvery); res.Stats.Configs > bound {
			t.Fatalf("seed %d: examined %d of %d configurations under MaxConfigs 1, bound %d", seed, res.Stats.Configs, uint64(1)<<uint(g.NumEdges()), bound)
		}
		if !res.Partial || res.Hi-res.Lo <= 0 {
			t.Fatalf("seed %d: stopped run reads partial=%v [%g, %g]", seed, res.Partial, res.Lo, res.Hi)
		}
	}
}

func TestFactoringCancelledAndBudget(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g, dem := randomGraph(t, 8, 8, seed)
		exact, err := NaiveExact(g, dem)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.Float64()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Factoring(g, dem, Options{Ctl: anytime.New(ctx, anytime.Budget{})})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Fatal("cancelled factoring not marked partial")
		}
		checkInterval(t, "factoring cancelled", res.Lo, res.Hi, want)

		// A small node budget interrupts mid-tree; the explored mass
		// must certify.
		ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: 8})
		res, err = Factoring(g, dem, Options{Ctl: ctl, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkInterval(t, "factoring budget", res.Lo, res.Hi, want)

		// Unlimited controller: complete run, interval collapses.
		res, err = Factoring(g, dem, Options{Ctl: anytime.New(context.Background(), anytime.Budget{})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial {
			t.Fatal("complete factoring marked partial")
		}
		if !testutil.AlmostEqual(res.Lo, res.Reliability, 0) || !testutil.AlmostEqual(res.Hi, res.Reliability, 0) {
			t.Fatalf("complete run interval [%g, %g] not collapsed onto %g", res.Lo, res.Hi, res.Reliability)
		}
		if math.Abs(res.Reliability-want) > 1e-9 {
			t.Fatalf("factoring %g, oracle %g", res.Reliability, want)
		}
	}
}

func TestMostProbableStatesInterrupted(t *testing.T) {
	g, dem := randomGraph(t, 8, 8, 3)
	exact, err := NaiveExact(g, dem)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Float64()

	ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: 64})
	b, err := MostProbableStatesOpt(g, dem, g.NumEdges(), Options{Ctl: ctl})
	if err != nil {
		t.Fatal(err)
	}
	checkInterval(t, "states budget", b.Lower, b.Upper, want)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err = MostProbableStatesOpt(g, dem, g.NumEdges(), Options{Ctl: anytime.New(ctx, anytime.Budget{})})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Partial {
		t.Fatal("cancelled states run not marked partial")
	}
	checkInterval(t, "states cancelled", b.Lower, b.Upper, want)

	// Full budget with maxFailures = |E| is exhaustive: interval collapses.
	b, err = MostProbableStatesOpt(g, dem, g.NumEdges(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Partial || math.Abs(b.Lower-want) > 1e-9 || b.Upper-b.Lower > 1e-9 {
		t.Fatalf("exhaustive states = %+v, want tight at %g", b, want)
	}
}

func TestMonteCarloCancelled(t *testing.T) {
	g, dem := randomGraph(t, 8, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est, err := MonteCarlo(g, dem, 100000, 1, Options{Ctl: anytime.New(ctx, anytime.Budget{})})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Partial || est.Samples != 0 {
		t.Fatalf("cancelled MC: %+v", est)
	}

	ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: 2000})
	est, err = MonteCarlo(g, dem, 1000000, 1, Options{Ctl: ctl, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Partial || est.Samples == 0 || est.Samples >= 1000000 {
		t.Fatalf("budgeted MC: %+v", est)
	}
}

func TestImportanceSamplingCancelled(t *testing.T) {
	g, dem := randomGraph(t, 8, 8, 1)
	ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: 2000})
	est, err := UnreliabilityIS(g, dem, 1000000, 1, 0.3, Options{Ctl: ctl, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Partial || est.Samples == 0 {
		t.Fatalf("budgeted IS: %+v", est)
	}
}

// TestPanicRecoveryNaive injects a panicking hook at the max-flow call
// site and asserts the process survives with a typed error naming the
// failing configuration.
func TestPanicRecoveryNaive(t *testing.T) {
	g, dem := randomGraph(t, 8, 8, 2)
	hook := func(cfg uint64) {
		if cfg == 100 {
			panic("injected max-flow fault")
		}
	}
	_, err := Naive(g, dem, Options{TestHook: hook, Ctl: anytime.New(context.Background(), anytime.Budget{})})
	var pe *anytime.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Config != 100 {
		t.Fatalf("failing config %d, want 100", pe.Config)
	}
}

func TestPanicRecoveryFactoring(t *testing.T) {
	g, dem := randomGraph(t, 9, 10, 2)
	hook := func(node uint64) {
		if node == 5 {
			panic("injected factoring fault")
		}
	}
	_, err := Factoring(g, dem, Options{TestHook: hook, Parallelism: 4})
	var pe *anytime.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
}

func TestPanicRecoveryMonteCarlo(t *testing.T) {
	g, dem := randomGraph(t, 8, 8, 2)
	hook := func(i uint64) {
		if i == 3 {
			panic("injected sampling fault")
		}
	}
	_, err := MonteCarlo(g, dem, 50000, 1, Options{TestHook: hook})
	var pe *anytime.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
}

func TestNaiveExactCtx(t *testing.T) {
	g, dem := randomGraph(t, 8, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NaiveExactCtx(ctx, g, dem)
	if !errors.Is(err, anytime.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	r, err := NaiveExactCtx(context.Background(), g, dem)
	if err != nil || r == nil {
		t.Fatalf("uncancelled oracle failed: %v", err)
	}
}

// TestAnytimeMonotoneNarrowing sanity-checks the anytime contract: more
// budget, tighter (never wider) certified factoring intervals.
func TestAnytimeMonotoneNarrowing(t *testing.T) {
	g, dem := randomGraph(t, 10, 14, 4)
	prev := 1.1
	for _, budget := range []uint64{2, 8, 32, 1 << 20} {
		ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: budget})
		res, err := Factoring(g, dem, Options{Ctl: ctl, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		width := res.Hi - res.Lo
		if width > prev+1e-12 {
			t.Fatalf("interval widened at budget %d: %g > %g", budget, width, prev)
		}
		prev = width
	}
	if prev > 1e-9 {
		t.Fatalf("unlimited run did not collapse the interval (width %g)", prev)
	}
}
