package reliability

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flowrel/internal/graph"
	"flowrel/internal/testutil"
)

func edge(b *graph.Builder, u, v graph.NodeID, c int, p float64) {
	b.AddEdge(u, v, c, p)
}

func singleEdge(p float64) (*graph.Graph, graph.Demand) {
	b := graph.NewBuilder()
	s := b.AddNode()
	t := b.AddNode()
	edge(b, s, t, 1, p)
	return b.MustBuild(), graph.Demand{S: s, T: t, D: 1}
}

func TestNaiveSingleEdge(t *testing.T) {
	g, dem := singleEdge(0.2)
	res, err := Naive(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-0.8) > 1e-12 {
		t.Fatalf("R = %g, want 0.8", res.Reliability)
	}
	if res.Stats.Configs != 2 || res.Stats.Admitting != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestNaiveParallelAndSeries(t *testing.T) {
	// Two parallel unit links, p = 0.5.
	b := graph.NewBuilder()
	s := b.AddNode()
	tt := b.AddNode()
	edge(b, s, tt, 1, 0.5)
	edge(b, s, tt, 1, 0.5)
	g := b.MustBuild()
	res, err := Naive(g, graph.Demand{S: s, T: tt, D: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-0.75) > 1e-12 {
		t.Fatalf("parallel d=1: R = %g, want 0.75", res.Reliability)
	}
	res, err = Naive(g, graph.Demand{S: s, T: tt, D: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-0.25) > 1e-12 {
		t.Fatalf("parallel d=2: R = %g, want 0.25", res.Reliability)
	}

	// Series: survival requires both.
	b2 := graph.NewBuilder()
	s2 := b2.AddNode()
	a := b2.AddNode()
	t2 := b2.AddNode()
	edge(b2, s2, a, 1, 0.1)
	edge(b2, a, t2, 1, 0.2)
	g2 := b2.MustBuild()
	res, err = Naive(g2, graph.Demand{S: s2, T: t2, D: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-0.72) > 1e-12 {
		t.Fatalf("series: R = %g, want 0.72", res.Reliability)
	}
}

func TestNaiveCapacityMatters(t *testing.T) {
	// One fat link (cap 2) and one thin path; d = 2 needs the fat link OR
	// both thin... make it simple: s=t links cap 1 and cap 2, d = 2:
	// admitted iff cap-2 link alive (alone, 2) or both alive (3).
	b := graph.NewBuilder()
	s := b.AddNode()
	tt := b.AddNode()
	edge(b, s, tt, 1, 0.5) // thin
	edge(b, s, tt, 2, 0.5) // fat
	g := b.MustBuild()
	res, err := Naive(g, graph.Demand{S: s, T: tt, D: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-0.5) > 1e-12 {
		t.Fatalf("R = %g, want 0.5 (fat link alive)", res.Reliability)
	}
}

func TestNaiveErrors(t *testing.T) {
	g, dem := singleEdge(0.2)
	if _, err := Naive(nil, dem, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Naive(g, graph.Demand{S: 0, T: 0, D: 1}, Options{}); err == nil {
		t.Fatal("bad demand accepted")
	}
	if _, err := NaiveExact(g, graph.Demand{S: 0, T: 5, D: 1}); err == nil {
		t.Fatal("bad demand accepted by exact")
	}
	if _, err := Factoring(g, graph.Demand{S: 0, T: 0, D: 1}, Options{}); err == nil {
		t.Fatal("bad demand accepted by factoring")
	}
	if _, err := MonteCarlo(g, dem, 0, 1, Options{}); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := Bounds(g, graph.Demand{D: 0}, 2); err == nil {
		t.Fatal("bad demand accepted by bounds")
	}
}

func TestTooManyEdgesRejected(t *testing.T) {
	b := graph.NewBuilder()
	s := b.AddNode()
	tt := b.AddNode()
	for i := 0; i < 64; i++ {
		edge(b, s, tt, 1, 0.5)
	}
	g := b.MustBuild()
	dem := graph.Demand{S: s, T: tt, D: 1}
	if _, err := Naive(g, dem, Options{}); err == nil {
		t.Fatal("64 links accepted by Naive")
	}
	if _, err := NaiveExact(g, dem); err == nil {
		t.Fatal("64 links accepted by NaiveExact")
	}
	if _, err := Admits(g, dem, 1); err == nil {
		t.Fatal("64 links accepted by Admits")
	}
}

func randomTestGraph(rng *rand.Rand, maxNodes, maxEdges int) (*graph.Graph, graph.Demand) {
	n := 2 + rng.Intn(maxNodes-1)
	m := 1 + rng.Intn(maxEdges)
	b := graph.NewBuilder()
	b.AddNodes(n)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		for v == u {
			v = graph.NodeID(rng.Intn(n))
		}
		b.AddEdge(u, v, 1+rng.Intn(3), rng.Float64()*0.9)
	}
	g := b.MustBuild()
	return g, graph.Demand{S: 0, T: graph.NodeID(n - 1), D: 1 + rng.Intn(3)}
}

// Property: the float engines agree with the exact rational oracle.
func TestQuickEnginesMatchExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, dem := randomTestGraph(rng, 6, 10)
		exact, err := NaiveExact(g, dem)
		if err != nil {
			return false
		}
		want, _ := exact.Float64()

		naive, err := Naive(g, dem, Options{})
		if err != nil || math.Abs(naive.Reliability-want) > 1e-9 {
			return false
		}
		seq, err := Naive(g, dem, Options{Parallelism: 1})
		if err != nil || math.Abs(seq.Reliability-want) > 1e-9 {
			return false
		}
		fact, err := Factoring(g, dem, Options{})
		if err != nil || math.Abs(fact.Reliability-want) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: naive is bit-identical across parallelism levels.
func TestQuickNaiveParallelDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, dem := randomTestGraph(rng, 6, 10)
		a, err := Naive(g, dem, Options{Parallelism: 1})
		if err != nil {
			return false
		}
		b, err := Naive(g, dem, Options{Parallelism: 7})
		if err != nil {
			return false
		}
		return testutil.AlmostEqual(a.Reliability, b.Reliability, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: factoring explores at most as many configurations as naive and
// typically far fewer.
func TestFactoringPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, dem := randomTestGraph(rng, 6, 12)
	naive, err := Naive(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := Factoring(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Factoring recursion nodes ≤ 2^{m+1}; with pruning it should be well
	// under the naive configuration count on this size.
	if fact.Stats.Configs >= naive.Stats.Configs {
		t.Fatalf("factoring explored %d nodes vs naive %d configs", fact.Stats.Configs, naive.Stats.Configs)
	}
}

// Property: bounds sandwich the exact value.
func TestQuickBoundsSandwich(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, dem := randomTestGraph(rng, 6, 10)
		exact, err := Naive(g, dem, Options{})
		if err != nil {
			return false
		}
		bd, err := Bounds(g, dem, 3)
		if err != nil {
			return false
		}
		return bd.Lower <= exact.Reliability+1e-9 && exact.Reliability <= bd.Upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsOnSeries(t *testing.T) {
	// On a pure series path the lower bound (the single delivery subgraph
	// must fully survive) is exact: 0.9·0.8 = 0.72. The upper bound is the
	// best single-cut survival: min(0.9, 0.8) = 0.8.
	b := graph.NewBuilder()
	s := b.AddNode()
	a := b.AddNode()
	tt := b.AddNode()
	edge(b, s, a, 1, 0.1)
	edge(b, a, tt, 1, 0.2)
	g := b.MustBuild()
	bd, err := Bounds(g, graph.Demand{S: s, T: tt, D: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd.Lower-0.72) > 1e-9 || math.Abs(bd.Upper-0.8) > 1e-9 {
		t.Fatalf("bounds = [%g, %g], want [0.72, 0.8]", bd.Lower, bd.Upper)
	}
	if bd.DisjointSubgraphs != 1 {
		t.Fatalf("subgraphs = %d", bd.DisjointSubgraphs)
	}
}

func TestBoundsInfeasible(t *testing.T) {
	// Demand exceeds total capacity: upper bound must be 0.
	g, dem := singleEdge(0.2)
	dem.D = 5
	bd, err := Bounds(g, dem, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Upper != 0 || bd.Lower != 0 {
		t.Fatalf("bounds = %+v, want zero", bd)
	}
}

func TestMonteCarloConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		g, dem := randomTestGraph(rng, 6, 10)
		exact, err := Naive(g, dem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		est, err := MonteCarlo(g, dem, 60000, 42, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tol := 5*est.StdErr + 1e-9
		if math.Abs(est.Reliability-exact.Reliability) > tol {
			t.Fatalf("trial %d: MC %g vs exact %g (tol %g)", trial, est.Reliability, exact.Reliability, tol)
		}
	}
}

func TestMonteCarloDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, dem := randomTestGraph(rng, 6, 10)
	a, err := MonteCarlo(g, dem, 10000, 7, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(g, dem, 10000, 7, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Admitting != b.Admitting {
		t.Fatalf("MC not deterministic: %d vs %d hits", a.Admitting, b.Admitting)
	}
}

func TestConfidenceInterval(t *testing.T) {
	e := Estimate{Reliability: 0.5, StdErr: 0.1}
	lo, hi := e.ConfidenceInterval(1.96)
	if math.Abs(lo-0.304) > 1e-9 || math.Abs(hi-0.696) > 1e-9 {
		t.Fatalf("CI = [%g, %g]", lo, hi)
	}
	e = Estimate{Reliability: 0.99, StdErr: 0.1}
	if _, hi := e.ConfidenceInterval(1.96); hi != 1 {
		t.Fatal("CI not clamped to 1")
	}
	e = Estimate{Reliability: 0.01, StdErr: 0.1}
	if lo, _ := e.ConfidenceInterval(1.96); lo != 0 {
		t.Fatal("CI not clamped to 0")
	}
}

func TestAdmits(t *testing.T) {
	g, dem := singleEdge(0.2)
	if ok, err := Admits(g, dem, 1); err != nil || !ok {
		t.Fatalf("alive link should admit: %v %v", ok, err)
	}
	if ok, err := Admits(g, dem, 0); err != nil || ok {
		t.Fatalf("dead link should not admit: %v %v", ok, err)
	}
}

// Property: reliability is monotone in link failure probabilities
// (increasing any p cannot increase R).
func TestQuickMonotoneInFailureProb(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, dem := randomTestGraph(rng, 5, 8)
		r1, err := Naive(g, dem, Options{})
		if err != nil {
			return false
		}
		// Rebuild with uniformly larger failure probabilities.
		b := graph.NewBuilder()
		b.AddNodes(g.NumNodes())
		for _, e := range g.Edges() {
			p := e.PFail + (1-e.PFail)*0.3
			if p >= 1 {
				p = 0.999
			}
			b.AddEdge(e.U, e.V, e.Cap, p)
		}
		g2 := b.MustBuild()
		r2, err := Naive(g2, dem, Options{})
		if err != nil {
			return false
		}
		return r2.Reliability <= r1.Reliability+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
