package mincut

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowrel/internal/graph"
)

// bridgeGraph builds the Fig. 2 shape: a triangle {s,a,b}, a bridge b—c,
// and a triangle {c,d,t}.
func bridgeGraph(t *testing.T) (*graph.Graph, graph.NodeID, graph.NodeID, graph.EdgeID) {
	t.Helper()
	b := graph.NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNamedNode("a")
	bb := b.AddNamedNode("b")
	c := b.AddNamedNode("c")
	d := b.AddNamedNode("d")
	tt := b.AddNamedNode("t")
	b.AddEdge(s, a, 1, 0.1)  // 0
	b.AddEdge(s, bb, 1, 0.1) // 1
	b.AddEdge(a, bb, 1, 0.1) // 2
	bridge := b.AddEdge(bb, c, 2, 0.05)
	b.AddEdge(c, d, 1, 0.1)  // 4
	b.AddEdge(c, tt, 1, 0.1) // 5
	b.AddEdge(d, tt, 1, 0.1) // 6
	return b.MustBuild(), s, tt, bridge
}

func TestCardinality(t *testing.T) {
	g, s, tt, _ := bridgeGraph(t)
	if got := Cardinality(g, s, tt); got != 1 {
		t.Fatalf("cardinality = %d, want 1 (bridge)", got)
	}
	// Disconnected graph.
	b := graph.NewBuilder()
	u := b.AddNode()
	v := b.AddNode()
	g2 := b.MustBuild()
	if got := Cardinality(g2, u, v); got != 0 {
		t.Fatalf("disconnected cardinality = %d, want 0", got)
	}
}

func TestIsCutIsMinimal(t *testing.T) {
	g, s, tt, bridge := bridgeGraph(t)
	if !IsCut(g, s, tt, []graph.EdgeID{bridge}) {
		t.Fatal("bridge should be a cut")
	}
	if !IsMinimalCut(g, s, tt, []graph.EdgeID{bridge}) {
		t.Fatal("bridge should be a minimal cut")
	}
	// Superset of a cut is a cut but not minimal.
	if !IsCut(g, s, tt, []graph.EdgeID{bridge, 0}) {
		t.Fatal("superset should still be a cut")
	}
	if IsMinimalCut(g, s, tt, []graph.EdgeID{bridge, 0}) {
		t.Fatal("superset should not be minimal")
	}
	if IsCut(g, s, tt, []graph.EdgeID{0}) {
		t.Fatal("single non-bridge is not a cut")
	}
	// {s-a, s-b} is a minimal cut isolating s.
	if !IsMinimalCut(g, s, tt, []graph.EdgeID{0, 1}) {
		t.Fatal("{0,1} should be minimal")
	}
}

func TestEnumerateMinimalBridgeGraph(t *testing.T) {
	g, s, tt, bridge := bridgeGraph(t)
	cuts := EnumerateMinimal(g, s, tt, 2)
	// Minimal cuts of size ≤ 2: the bridge {3}; {0,1} isolates s;
	// {1,2} isolates {s,a}; {5,6} isolates t; {4,5} isolates {t,d}'s
	// access through c (c–d and c–t removed leaves t unreachable).
	// Note {0,2} is not a cut (s still reaches b via s–b).
	want := map[string]bool{
		"[3]":   true,
		"[0 1]": true,
		"[1 2]": true,
		"[5 6]": true,
		"[4 5]": true,
	}
	got := map[string]bool{}
	for _, c := range cuts {
		key := ""
		for i, e := range c {
			if i > 0 {
				key += " "
			}
			key += itoa(int(e))
		}
		got["["+key+"]"] = true
		if !IsMinimalCut(g, s, tt, c) {
			t.Fatalf("enumerated non-minimal cut %v", c)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing cut %s (got %v)", k, got)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected cut %s", k)
		}
	}
	_ = bridge
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	s := ""
	for i > 0 {
		s = string(rune('0'+i%10)) + s
		i /= 10
	}
	return s
}

func TestBridges(t *testing.T) {
	g, _, _, bridge := bridgeGraph(t)
	got := Bridges(g)
	// Directed bridges: s→a (a has no other in-path from s), a→b is the
	// only a-to-b route, b→c, c→d, d→t. s→b and c→t have alternatives.
	want := []graph.EdgeID{0, 2, bridge, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("Bridges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bridges = %v, want %v", got, want)
		}
	}
	// A tree: every link is a bridge.
	b := graph.NewBuilder()
	r := b.AddNode()
	c1 := b.AddNode()
	c2 := b.AddNode()
	c3 := b.AddNode()
	b.AddEdge(r, c1, 1, 0)
	b.AddEdge(r, c2, 1, 0)
	b.AddEdge(c1, c3, 1, 0)
	tree := b.MustBuild()
	if got := Bridges(tree); len(got) != 3 {
		t.Fatalf("tree bridges = %v, want all 3", got)
	}
	// Parallel links are not bridges.
	b2 := graph.NewBuilder()
	u := b2.AddNode()
	v := b2.AddNode()
	b2.AddEdge(u, v, 1, 0)
	b2.AddEdge(u, v, 1, 0)
	if got := Bridges(b2.MustBuild()); len(got) != 0 {
		t.Fatalf("parallel bridges = %v, want none", got)
	}
	// In a directed cycle every arc is the only route between its
	// endpoints, so all arcs are directed bridges.
	b3 := graph.NewBuilder()
	n0 := b3.AddNode()
	n1 := b3.AddNode()
	n2 := b3.AddNode()
	b3.AddEdge(n0, n1, 1, 0)
	b3.AddEdge(n1, n2, 1, 0)
	b3.AddEdge(n2, n0, 1, 0)
	if got := Bridges(b3.MustBuild()); len(got) != 3 {
		t.Fatalf("directed cycle bridges = %v, want all 3", got)
	}
	// A pair of anti-parallel arcs still leaves each as the only route in
	// its direction: both are directed bridges.
	b4 := graph.NewBuilder()
	p0 := b4.AddNode()
	p1 := b4.AddNode()
	b4.AddEdge(p0, p1, 1, 0)
	b4.AddEdge(p1, p0, 1, 0)
	if got := Bridges(b4.MustBuild()); len(got) != 2 {
		t.Fatalf("anti-parallel bridges = %v, want both", got)
	}
}

func TestSplitBridge(t *testing.T) {
	g, s, tt, bridge := bridgeGraph(t)
	b, err := Split(g, s, tt, []graph.EdgeID{bridge})
	if err != nil {
		t.Fatal(err)
	}
	if b.K() != 1 {
		t.Fatalf("K = %d", b.K())
	}
	if b.Gs.G.NumEdges() != 3 || b.Gt.G.NumEdges() != 3 {
		t.Fatalf("sides have %d/%d links", b.Gs.G.NumEdges(), b.Gt.G.NumEdges())
	}
	if b.Alpha != 3.0/7.0 {
		t.Fatalf("alpha = %g, want 3/7", b.Alpha)
	}
	// XS is node "b" on the s side, YT node "c" on the t side.
	if nm := b.Gs.G.NodeName(b.XS[0]); nm != "b" {
		t.Fatalf("XS name = %q", nm)
	}
	if nm := b.Gt.G.NodeName(b.YT[0]); nm != "c" {
		t.Fatalf("YT name = %q", nm)
	}
}

func TestSplitErrors(t *testing.T) {
	g, s, tt, bridge := bridgeGraph(t)
	if _, err := Split(g, s, tt, nil); err == nil {
		t.Fatal("empty cut accepted")
	}
	if _, err := Split(g, s, tt, []graph.EdgeID{0}); err == nil {
		t.Fatal("non-cut accepted")
	}
	if _, err := Split(g, s, tt, []graph.EdgeID{bridge, 0}); err == nil {
		t.Fatal("non-minimal cut accepted")
	}
	if _, err := Split(g, s, tt, []graph.EdgeID{bridge, bridge}); err == nil {
		t.Fatal("duplicate edges accepted")
	}
}

// TestSplitCutErrors holds the checks that graph.SplitByCut made before
// Split took over labelling G - C; a cut that does not separate s from t is
// checked in TestSplitErrors.
func TestSplitCutErrors(t *testing.T) {
	g, s, tt, bridge := bridgeGraph(t)
	for _, cut := range [][]graph.EdgeID{{99}, {-1}, {bridge, 99}} {
		if _, err := Split(g, s, tt, cut); err == nil {
			t.Fatalf("out-of-range cut %v accepted", cut)
		}
	}
	// A node no link touches makes a third component.
	b := graph.NewBuilder()
	u, v := b.AddNode(), b.AddNode()
	b.AddNode()
	link := b.AddEdge(u, v, 1, 0.1)
	if _, err := Split(b.MustBuild(), u, v, []graph.EdgeID{link}); err == nil {
		t.Fatal("split into three components accepted")
	}
}

func TestFindPrefersBalancedCut(t *testing.T) {
	g, s, tt, bridge := bridgeGraph(t)
	b, err := Find(g, s, tt, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The bridge split is 3/3 (alpha 3/7); isolating s or t leaves 6 links
	// on one side (alpha 6/7). The bridge must win.
	if b.K() != 1 || b.Cut[0] != bridge {
		t.Fatalf("Find chose %v, want bridge {%d}", b.Cut, bridge)
	}
	if _, err := Find(g, s, tt, 0); err == nil {
		t.Fatal("maxSize 0 accepted")
	}
}

func TestFindTwoBottleneckLinks(t *testing.T) {
	// Two triangles joined by two links: minimal cut of size 2 in the
	// middle is the most balanced.
	b := graph.NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNamedNode("a")
	c := b.AddNamedNode("c")
	d := b.AddNamedNode("d")
	tt := b.AddNamedNode("t")
	e := b.AddNamedNode("e")
	b.AddEdge(s, a, 2, 0.1) // 0
	b.AddEdge(s, c, 2, 0.1) // 1
	b.AddEdge(a, c, 1, 0.1) // 2
	m1 := b.AddEdge(a, d, 2, 0.1)
	m2 := b.AddEdge(c, e, 2, 0.1)
	b.AddEdge(d, e, 1, 0.1)  // 5
	b.AddEdge(d, tt, 2, 0.1) // 6
	b.AddEdge(e, tt, 2, 0.1) // 7
	g := b.MustBuild()
	bt, err := Find(g, s, tt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bt.K() != 2 || bt.Cut[0] != m1 || bt.Cut[1] != m2 {
		t.Fatalf("Find chose %v, want {%d,%d}", bt.Cut, m1, m2)
	}
	if bt.Gs.G.NumEdges() != 3 || bt.Gt.G.NumEdges() != 3 {
		t.Fatalf("sides %d/%d", bt.Gs.G.NumEdges(), bt.Gt.G.NumEdges())
	}
	if bt.Alpha != 3.0/8.0 {
		t.Fatalf("alpha = %g", bt.Alpha)
	}
}

func TestFindNoCut(t *testing.T) {
	// Complete graph K4 has min cut 3 between any pair; maxSize 2 fails.
	b := graph.NewBuilder()
	n := b.AddNodes(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(n+graph.NodeID(i), n+graph.NodeID(j), 1, 0.1)
		}
	}
	g := b.MustBuild()
	if _, err := Find(g, 0, 3, 2); err == nil {
		t.Fatal("expected no cut of size ≤ 2 in K4")
	}
	if bt, err := Find(g, 0, 3, 3); err != nil || bt.K() != 3 {
		t.Fatalf("K4 size-3 cut: %v %v", bt, err)
	}
}

// Property: enumerated cuts are exactly the minimal cuts found by brute
// force over all subsets of size ≤ maxSize.
func TestQuickEnumerateMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		m := 2 + rng.Intn(8)
		b := graph.NewBuilder()
		b.AddNodes(n)
		for i := 0; i < m; i++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			for v == u {
				v = graph.NodeID(rng.Intn(n))
			}
			b.AddEdge(u, v, 1, 0.1)
		}
		g := b.MustBuild()
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		maxSize := 1 + rng.Intn(3)

		got := map[string]bool{}
		for _, c := range EnumerateMinimal(g, s, tt, maxSize) {
			got[fmtCut(c)] = true
		}
		want := map[string]bool{}
		var cur []graph.EdgeID
		var brute func(start int)
		brute = func(start int) {
			if len(cur) > 0 && len(cur) <= maxSize && IsMinimalCut(g, s, tt, cur) {
				want[fmtCut(cur)] = true
			}
			if len(cur) == maxSize {
				return
			}
			for e := start; e < m; e++ {
				cur = append(cur, graph.EdgeID(e))
				brute(e + 1)
				cur = cur[:len(cur)-1]
			}
		}
		brute(0)
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func fmtCut(c []graph.EdgeID) string {
	s := ""
	for _, e := range c {
		s += itoa(int(e)) + ","
	}
	return s
}

// Property: Bridges agrees with the definition (removal disconnects the
// endpoints).
func TestQuickBridgesDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(10)
		b := graph.NewBuilder()
		b.AddNodes(n)
		for i := 0; i < m; i++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			for v == u {
				v = graph.NodeID(rng.Intn(n))
			}
			b.AddEdge(u, v, 1, 0.1)
		}
		g := b.MustBuild()
		isBridge := map[graph.EdgeID]bool{}
		for _, e := range Bridges(g) {
			isBridge[e] = true
		}
		for _, e := range g.Edges() {
			if IsCut(g, e.U, e.V, []graph.EdgeID{e.ID}) != isBridge[e.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
