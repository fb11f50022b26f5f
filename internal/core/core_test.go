package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"flowrel/internal/graph"
	"flowrel/internal/mincut"
	"flowrel/internal/reliability"
	"flowrel/internal/testutil"
)

// bridgeGraph: triangle {s,a,b} → bridge b→c → triangle {c,d,t}, all
// oriented toward t. The Fig. 2 shape.
func bridgeGraph() (*graph.Graph, graph.Demand, graph.EdgeID) {
	b := graph.NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNamedNode("a")
	bb := b.AddNamedNode("b")
	c := b.AddNamedNode("c")
	d := b.AddNamedNode("d")
	tt := b.AddNamedNode("t")
	b.AddEdge(s, a, 1, 0.1)
	b.AddEdge(s, bb, 1, 0.15)
	b.AddEdge(a, bb, 1, 0.2)
	bridge := b.AddEdge(bb, c, 2, 0.05)
	b.AddEdge(c, d, 1, 0.1)
	b.AddEdge(c, tt, 1, 0.12)
	b.AddEdge(d, tt, 1, 0.3)
	return b.MustBuild(), graph.Demand{S: s, T: tt, D: 1}, bridge
}

func TestBridgeMatchesNaive(t *testing.T) {
	g, dem, bridge := bridgeGraph()
	want, err := reliability.Naive(g, dem, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reliability(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-12 {
		t.Fatalf("core %.15f vs naive %.15f", res.Reliability, want.Reliability)
	}
	if res.K != 1 || res.Cut[0] != bridge {
		t.Fatalf("cut = %v, want bridge %d", res.Cut, bridge)
	}
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %v", res.Assignments)
	}
}

// TestBridgeEquationOne verifies Eq. 1: r = r(G_s)·(1-p(e'))·r(G_t).
func TestBridgeEquationOne(t *testing.T) {
	g, dem, bridge := bridgeGraph()
	res, err := Reliability(g, dem, Options{Bottleneck: []graph.EdgeID{bridge}})
	if err != nil {
		t.Fatal(err)
	}
	// r(G_s): reliability of the source triangle delivering 1 unit from s
	// to node b ("x" of the bridge).
	bt, err := mincut.Split(g, dem.S, dem.T, []graph.EdgeID{bridge})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := reliability.Naive(bt.Gs.G, graph.Demand{S: bt.Gs.NodeOf[dem.S], T: bt.XS[0], D: dem.D}, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := reliability.Naive(bt.Gt.G, graph.Demand{S: bt.YT[0], T: bt.Gt.NodeOf[dem.T], D: dem.D}, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := rs.Reliability * (1 - g.Edge(bridge).PFail) * rt.Reliability
	if math.Abs(res.Reliability-want) > 1e-12 {
		t.Fatalf("core %.15f vs Eq.1 %.15f", res.Reliability, want)
	}
}

func TestTriviallyZeroWhenCutTooThin(t *testing.T) {
	g, dem, _ := bridgeGraph()
	dem.D = 3 // bridge capacity is 2
	res, err := Reliability(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != 0 {
		t.Fatalf("R = %g, want 0", res.Reliability)
	}
	if len(res.Assignments) != 0 {
		t.Fatalf("assignments = %v, want empty", res.Assignments)
	}
}

// twoBottleneck builds two triangles joined by two links, demand d=2:
// the Fig. 4 regime with 𝒟 = {(2,0),(1,1),(0,2)}.
func twoBottleneck() (*graph.Graph, graph.Demand, []graph.EdgeID) {
	b := graph.NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNamedNode("a")
	c := b.AddNamedNode("c")
	d := b.AddNamedNode("d")
	e := b.AddNamedNode("e")
	tt := b.AddNamedNode("t")
	b.AddEdge(s, a, 2, 0.1)
	b.AddEdge(s, c, 2, 0.2)
	b.AddEdge(a, c, 1, 0.15)
	m1 := b.AddEdge(a, d, 2, 0.05)
	m2 := b.AddEdge(c, e, 2, 0.08)
	b.AddEdge(d, e, 1, 0.12)
	b.AddEdge(d, tt, 2, 0.1)
	b.AddEdge(e, tt, 2, 0.2)
	return b.MustBuild(), graph.Demand{S: s, T: tt, D: 2}, []graph.EdgeID{m1, m2}
}

func TestTwoBottleneckMatchesNaive(t *testing.T) {
	g, dem, cut := twoBottleneck()
	want, err := reliability.Naive(g, dem, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reliability(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-12 {
		t.Fatalf("core %.15f vs naive %.15f", res.Reliability, want.Reliability)
	}
	if res.K != 2 {
		t.Fatalf("K = %d", res.K)
	}
	if len(res.Assignments) != 3 {
		t.Fatalf("|D| = %d, want 3 {(2,0),(1,1),(0,2)}", len(res.Assignments))
	}
	// Explicit bottleneck gives the same answer.
	res, err = Reliability(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-12 {
		t.Fatalf("explicit cut: %.15f vs %.15f", res.Reliability, want.Reliability)
	}
}

func TestErrors(t *testing.T) {
	g, dem, _ := twoBottleneck()
	if _, err := Reliability(nil, dem, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Reliability(g, graph.Demand{S: 0, T: 0, D: 1}, Options{}); err == nil {
		t.Fatal("bad demand accepted")
	}
	if _, err := Reliability(g, dem, Options{Bottleneck: []graph.EdgeID{0}}); err == nil {
		t.Fatal("non-cut bottleneck accepted")
	}
	// An option below the kernel's bound is the effective limit, and the
	// error names it.
	if _, err := Reliability(g, dem, Options{MaxSideEdges: 2}); !errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), "MaxSideEdges 2") {
		t.Fatalf("side limit: got %v, want an error wrapping ErrLimit that names MaxSideEdges 2", err)
	}
	if _, err := Reliability(g, dem, Options{MaxAssignmentSet: 2}); !errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), "MaxAssignmentSet 2") {
		t.Fatalf("assignment limit: got %v, want an error wrapping ErrLimit that names MaxAssignmentSet 2", err)
	}
}

// plantBottleneck builds a random graph made of two weakly connected random
// blobs joined only by k bottleneck links, with guaranteed minimality.
func plantBottleneck(rng *rand.Rand, sideNodes, sideEdges, k, d int) (*graph.Graph, graph.Demand, []graph.EdgeID) {
	b := graph.NewBuilder()
	ns := sideNodes
	// Source side: nodes [0, ns); s = 0. Random weak spanning tree + extras.
	b.AddNodes(ns)
	for i := 1; i < ns; i++ {
		j := graph.NodeID(rng.Intn(i))
		if rng.Intn(2) == 0 {
			b.AddEdge(j, graph.NodeID(i), 1+rng.Intn(d+1), rng.Float64()*0.9)
		} else {
			b.AddEdge(graph.NodeID(i), j, 1+rng.Intn(d+1), rng.Float64()*0.9)
		}
	}
	for e := ns - 1; e < sideEdges; e++ {
		u := graph.NodeID(rng.Intn(ns))
		v := graph.NodeID(rng.Intn(ns))
		if u != v {
			b.AddEdge(u, v, 1+rng.Intn(d+1), rng.Float64()*0.9)
		}
	}
	// Sink side: nodes [ns, 2ns); t = last.
	b.AddNodes(ns)
	off := graph.NodeID(ns)
	for i := 1; i < ns; i++ {
		j := off + graph.NodeID(rng.Intn(i))
		if rng.Intn(2) == 0 {
			b.AddEdge(j, off+graph.NodeID(i), 1+rng.Intn(d+1), rng.Float64()*0.9)
		} else {
			b.AddEdge(off+graph.NodeID(i), j, 1+rng.Intn(d+1), rng.Float64()*0.9)
		}
	}
	for e := ns - 1; e < sideEdges; e++ {
		u := off + graph.NodeID(rng.Intn(ns))
		v := off + graph.NodeID(rng.Intn(ns))
		if u != v {
			b.AddEdge(u, v, 1+rng.Intn(d+1), rng.Float64()*0.9)
		}
	}
	s := graph.NodeID(0)
	t := off + graph.NodeID(ns-1)
	// Bottleneck links x_i → y_i. To guarantee minimality, ensure s
	// reaches x_i and y_i reaches t by adding direct links if needed.
	g0 := b.MustBuild()
	cut := make([]graph.EdgeID, 0, k)
	for i := 0; i < k; i++ {
		x := graph.NodeID(rng.Intn(ns))
		y := off + graph.NodeID(rng.Intn(ns))
		if !g0.Reaches(s, x, nil) {
			b.AddEdge(s, x, 1+rng.Intn(d+1), rng.Float64()*0.9)
		}
		if !g0.Reaches(y, t, nil) {
			b.AddEdge(y, t, 1+rng.Intn(d+1), rng.Float64()*0.9)
		}
		g0 = b.MustBuild()
		cut = append(cut, b.AddEdge(x, y, 1+rng.Intn(d+1), rng.Float64()*0.9))
	}
	return b.MustBuild(), graph.Demand{S: s, T: t, D: d}, cut
}

// Property: on random planted-bottleneck graphs, the decomposition agrees
// with the naive baseline.
func TestQuickCoreMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		g, dem, cut := plantBottleneck(rng, 2+rng.Intn(3), 2+rng.Intn(4), k, d)
		if g.NumEdges() > 18 {
			return true // keep naive cheap
		}
		want, err := reliability.Naive(g, dem, reliability.Options{})
		if err != nil {
			return false
		}
		res, err := Reliability(g, dem, Options{Bottleneck: cut})
		if err != nil {
			// The planted cut can fail minimality if a random side
			// link shortcuts it; fall back to discovery.
			res, err = Reliability(g, dem, Options{})
			if err != nil {
				return true // no small cut found: out of scope
			}
		}
		if math.Abs(res.Reliability-want.Reliability) > 1e-9 {
			t.Logf("seed %d: core %.12f naive %.12f", seed, res.Reliability, want.Reliability)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: discovered bottleneck (no explicit cut) also matches naive.
func TestQuickDiscoveredCutMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, dem, _ := plantBottleneck(rng, 2+rng.Intn(3), 2+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(2))
		if g.NumEdges() > 16 {
			return true
		}
		want, err := reliability.Naive(g, dem, reliability.Options{})
		if err != nil {
			return false
		}
		res, err := Reliability(g, dem, Options{MaxBottleneck: 3})
		if err != nil {
			return true // no usable cut; fine
		}
		return math.Abs(res.Reliability-want.Reliability) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCostModel(t *testing.T) {
	// §III-C: the number of realization checks is |𝒟|·(2^{|E_s|}+2^{|E_t|}).
	g, dem, cut := twoBottleneck()
	res, err := Reliability(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	wantChecks := int64(len(res.Assignments)) * int64(res.Stats.SideConfigs[0]+res.Stats.SideConfigs[1])
	if res.Stats.RealizationChecks != wantChecks {
		t.Fatalf("RealizationChecks = %d, want %d", res.Stats.RealizationChecks, wantChecks)
	}
	if res.Stats.SideConfigs[0] != 8 || res.Stats.SideConfigs[1] != 8 {
		t.Fatalf("SideConfigs = %v, want [8 8]", res.Stats.SideConfigs)
	}
	if !testutil.AlmostEqual(res.Alpha, 3.0/8.0, 0) {
		t.Fatalf("alpha = %g", res.Alpha)
	}
}

// TestLargeScale pushes the decomposition to a 40-link instance (two
// 19-link sides): far beyond naive enumeration's reach, solvable in a few
// seconds. Cross-checked against Monte Carlo. Skipped under -short.
func TestLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale run skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(104))
	g, dem, cut := plantBottleneck(rng, 8, 18, 2, 2)
	if g.NumEdges() > 40 {
		t.Skipf("instance has %d links; generator drifted", g.NumEdges())
	}
	res, err := Reliability(g, dem, Options{Bottleneck: cut, MaxSideEdges: 24})
	if err != nil {
		// The planted cut may fail minimality for this seed; that would be
		// a generator artifact, not an engine bug.
		t.Skipf("planted cut unusable: %v", err)
	}
	est, err := reliability.MonteCarlo(g, dem, 300000, 5, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-est.Reliability) > 5*est.StdErr+1e-9 {
		t.Fatalf("core %.6f vs MC %.6f ± %.6f on %d links", res.Reliability, est.Reliability, est.StdErr, g.NumEdges())
	}
	t.Logf("solved %d links (sides %v) exactly: R = %.6f", g.NumEdges(), res.SideEdges, res.Reliability)
}

// TestParallelCutLinks exercises a bottleneck made of two parallel links
// between the same pair of nodes — every stage (assignments, side arrays,
// classification) must treat them as distinct links.
func TestParallelCutLinks(t *testing.T) {
	b := graph.NewBuilder()
	s := b.AddNode()
	x := b.AddNode()
	y := b.AddNode()
	tt := b.AddNode()
	b.AddEdge(s, x, 2, 0.1)
	c1 := b.AddEdge(x, y, 1, 0.2)
	c2 := b.AddEdge(x, y, 1, 0.3)
	b.AddEdge(y, tt, 2, 0.1)
	g := b.MustBuild()
	dem := graph.Demand{S: s, T: tt, D: 2}
	want, err := reliability.Naive(g, dem, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reliability(g, dem, Options{Bottleneck: []graph.EdgeID{c1, c2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-12 {
		t.Fatalf("core %.15f vs naive %.15f", res.Reliability, want.Reliability)
	}
	// d=2 over two unit links: only (1,1) fits.
	if len(res.Assignments) != 1 || res.Assignments[0].String() != "(1, 1)" {
		t.Fatalf("assignments = %v", res.Assignments)
	}
	// Hand check: everything must be up.
	hand := 0.9 * 0.8 * 0.7 * 0.9
	if math.Abs(res.Reliability-hand) > 1e-12 {
		t.Fatalf("R = %g, want %g", res.Reliability, hand)
	}
}

// TestSourceAdjacentCut exercises a bottleneck whose links leave the
// source directly (G_s is a single node with no links).
func TestSourceAdjacentCut(t *testing.T) {
	b := graph.NewBuilder()
	s := b.AddNode()
	y1 := b.AddNode()
	y2 := b.AddNode()
	tt := b.AddNode()
	c1 := b.AddEdge(s, y1, 1, 0.2)
	c2 := b.AddEdge(s, y2, 1, 0.2)
	b.AddEdge(y1, tt, 1, 0.1)
	b.AddEdge(y2, tt, 1, 0.1)
	b.AddEdge(y1, y2, 1, 0.1)
	g := b.MustBuild()
	dem := graph.Demand{S: s, T: tt, D: 1}
	want, err := reliability.Naive(g, dem, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reliability(g, dem, Options{Bottleneck: []graph.EdgeID{c1, c2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-12 {
		t.Fatalf("core %.15f vs naive %.15f", res.Reliability, want.Reliability)
	}
	if res.SideEdges[0] != 0 {
		t.Fatalf("G_s should have no links, got %d", res.SideEdges[0])
	}
}
