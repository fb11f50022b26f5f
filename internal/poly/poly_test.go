package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flowrel/internal/graph"
	"flowrel/internal/reliability"
)

// uniformize rebuilds g with every link's failure probability set to p.
func uniformize(g *graph.Graph, p float64) *graph.Graph {
	b := graph.NewBuilder()
	b.AddNodes(g.NumNodes())
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Cap, p)
	}
	return b.MustBuild()
}

func singleEdge() (*graph.Graph, graph.Demand) {
	b := graph.NewBuilder()
	s := b.AddNode()
	t := b.AddNode()
	b.AddEdge(s, t, 1, 0.5)
	return b.MustBuild(), graph.Demand{S: s, T: t, D: 1}
}

func TestSingleEdgePolynomial(t *testing.T) {
	g, dem := singleEdge()
	P, err := Compute(g, dem, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// R(p) = 1 - p: N_0 = 0, N_1 = 1.
	if P.M != 1 || P.Admitting[0] != 0 || P.Admitting[1] != 1 {
		t.Fatalf("P = %+v", P)
	}
	for _, p := range []float64{0, 0.25, 0.5, 1} {
		if math.Abs(P.Eval(p)-(1-p)) > 1e-12 {
			t.Fatalf("Eval(%g) = %g, want %g", p, P.Eval(p), 1-p)
		}
	}
	if P.MinAdmittingLinks() != 1 {
		t.Fatalf("MinAdmittingLinks = %d", P.MinAdmittingLinks())
	}
	if P.MinDisconnectingLinks() != 1 {
		t.Fatalf("MinDisconnectingLinks = %d", P.MinDisconnectingLinks())
	}
	c := P.Coefficients()
	// 1 - p → c = [1, -1].
	if c[0].Int64() != 1 || c[1].Int64() != -1 {
		t.Fatalf("coefficients = %v", c)
	}
}

func TestInfeasibleDemand(t *testing.T) {
	g, dem := singleEdge()
	dem.D = 5
	P, err := Compute(g, dem, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if P.MinAdmittingLinks() != -1 || P.MinDisconnectingLinks() != -1 {
		t.Fatalf("P = %+v", P)
	}
	if P.Eval(0.3) != 0 {
		t.Fatalf("Eval = %g, want 0", P.Eval(0.3))
	}
}

func TestSolveFor(t *testing.T) {
	g, dem := singleEdge()
	P, err := Compute(g, dem, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// R(p) = 1-p: R >= 0.999 iff p <= 0.001.
	p, ok := P.SolveFor(0.999)
	if !ok || math.Abs(p-0.001) > 1e-9 {
		t.Fatalf("SolveFor(0.999) = %g, %v", p, ok)
	}
	if _, ok := P.SolveFor(1.1); ok {
		t.Fatal("impossible target accepted")
	}
	if p, ok := P.SolveFor(0); !ok || p != 1 {
		t.Fatalf("trivial target: %g, %v", p, ok)
	}
	for _, target := range []float64{0.5, 0.9, 0.99} {
		p, ok := P.SolveFor(target)
		if !ok {
			t.Fatalf("target %g unreachable", target)
		}
		if got := P.Eval(p); got < target-1e-9 {
			t.Fatalf("Eval(SolveFor(%g)) = %g", target, got)
		}
	}
}

func TestErrors(t *testing.T) {
	g, dem := singleEdge()
	if _, err := Compute(nil, dem, reliability.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Compute(g, graph.Demand{S: 0, T: 0, D: 1}, reliability.Options{}); err == nil {
		t.Fatal("bad demand accepted")
	}
}

// Property: Eval(p) matches a naive computation at uniform p, and the
// power-basis expansion matches the Bernstein evaluation.
func TestQuickPolynomialMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(9)
		b := graph.NewBuilder()
		b.AddNodes(n)
		for i := 0; i < m; i++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			for v == u {
				v = graph.NodeID(rng.Intn(n))
			}
			b.AddEdge(u, v, 1+rng.Intn(3), 0)
		}
		g := b.MustBuild()
		dem := graph.Demand{S: 0, T: graph.NodeID(n - 1), D: 1 + rng.Intn(2)}
		P, err := Compute(g, dem, reliability.Options{})
		if err != nil {
			return false
		}
		c := P.Coefficients()
		for _, p := range []float64{0.1, 0.37, 0.8} {
			want, err := reliability.Naive(uniformize(g, p), dem, reliability.Options{})
			if err != nil {
				return false
			}
			if math.Abs(P.Eval(p)-want.Reliability) > 1e-9 {
				return false
			}
			if math.Abs(EvalCoefficients(c, p)-want.Reliability) > 1e-6 {
				return false
			}
		}
		// Boundary values.
		full, err := reliability.Naive(uniformize(g, 0), dem, reliability.Options{})
		if err != nil {
			return false
		}
		if math.Abs(P.Eval(0)-full.Reliability) > 1e-9 || P.Eval(1) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: counts are bounded by binomials and monotone in the sense that
// supersets of admitting sets admit (N_i > 0 ⇒ N_j > 0 for j ≥ i, up to
// the full set, when the full set admits).
func TestQuickCountInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(8)
		b := graph.NewBuilder()
		b.AddNodes(n)
		for i := 0; i < m; i++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			for v == u {
				v = graph.NodeID(rng.Intn(n))
			}
			b.AddEdge(u, v, 1, 0)
		}
		g := b.MustBuild()
		dem := graph.Demand{S: 0, T: graph.NodeID(n - 1), D: 1}
		P, err := Compute(g, dem, reliability.Options{})
		if err != nil {
			return false
		}
		seen := false
		for i, c := range P.Admitting {
			if c > binom(P.M, i) {
				return false
			}
			if seen && i == P.M && c == 0 {
				return false // an admitting subset but not the full set
			}
			if c > 0 {
				seen = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the polynomial is identical at any parallelism (per-chunk
// counts are merged in chunk order).
func TestQuickComputeParallelDeterministic(t *testing.T) {
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
			b.AddEdge(u, v, 1+rng.Intn(2), 0)
		}
		g := b.MustBuild()
		dem := graph.Demand{S: 0, T: graph.NodeID(n - 1), D: 1 + rng.Intn(2)}
		a, err := Compute(g, dem, reliability.Options{Parallelism: 1})
		if err != nil {
			return false
		}
		c, err := Compute(g, dem, reliability.Options{Parallelism: 7})
		if err != nil {
			return false
		}
		for i := range a.Admitting {
			if a.Admitting[i] != c.Admitting[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
