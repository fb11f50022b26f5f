package multicast

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowrel/internal/graph"
	"flowrel/internal/overlay"
	"flowrel/internal/reliability"
	"flowrel/internal/testutil"
)

// TestMonteCarloRandDeterministic pins the injected-rng contract: block
// seeds are drawn from the source up front, so the estimate matches the
// seed wrapper exactly and is independent of worker scheduling.
func TestMonteCarloRandDeterministic(t *testing.T) {
	o, err := overlay.Mesh(14, 3, 2, 2, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}

	viaSeed, err := MonteCarlo(o.G, o.Source, nil, o.Substreams, 4000, 11, reliability.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		viaRand, err := MonteCarloRand(o.G, o.Source, nil, o.Substreams, 4000,
			rand.New(rand.NewSource(11)), reliability.Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(viaSeed.Reliability, viaRand.Reliability, 0) ||
			viaSeed.Admitting != viaRand.Admitting || viaSeed.Samples != viaRand.Samples {
			t.Fatalf("workers=%d: %+v diverged from %+v", workers, viaRand, viaSeed)
		}
	}

	if _, err := MonteCarloRand(o.G, o.Source, nil, o.Substreams, 100, nil, reliability.Options{}); err == nil {
		t.Fatal("MonteCarloRand accepted a nil rng")
	}
}

// Property: Naive is bit-identical at any parallelism, complete answer
// and interval alike (per-chunk sums are merged in chunk order).
func TestQuickMulticastParallelDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		m := 7 + rng.Intn(4) // 2 to 16 chunks
		b := graph.NewBuilder()
		b.AddNodes(n)
		for i := 0; i < m; i++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			for v == u {
				v = graph.NodeID(rng.Intn(n))
			}
			b.AddEdge(u, v, 1+rng.Intn(2), rng.Float64()*0.8)
		}
		g := b.MustBuild()
		d := 1 + rng.Intn(2)
		a, err := Naive(g, 0, nil, d, reliability.Options{Parallelism: 1})
		if err != nil {
			return false
		}
		c, err := Naive(g, 0, nil, d, reliability.Options{Parallelism: 7})
		if err != nil {
			return false
		}
		return testutil.AlmostEqual(a.Reliability, c.Reliability, 0) &&
			testutil.AlmostEqual(a.Lo, c.Lo, 0) && testutil.AlmostEqual(a.Hi, c.Hi, 0) &&
			a.Stats == c.Stats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
