package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"flowrel/internal/bitset"
	"flowrel/internal/testutil"
)

// diamond builds s—a, s—b, a—t, b—t, a—b.
func diamond(t *testing.T) (*Graph, NodeID, NodeID) {
	t.Helper()
	b := NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNamedNode("a")
	bb := b.AddNamedNode("b")
	tt := b.AddNamedNode("t")
	b.AddEdge(s, a, 2, 0.1)
	b.AddEdge(s, bb, 1, 0.2)
	b.AddEdge(a, tt, 2, 0.1)
	b.AddEdge(bb, tt, 1, 0.2)
	b.AddEdge(a, bb, 1, 0.3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, s, tt
}

func TestBuilderBasics(t *testing.T) {
	g, s, tt := diamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 5 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.NodeName(s) != "s" || g.NodeName(tt) != "t" {
		t.Fatal("node names lost")
	}
	if id, ok := g.NodeByName("a"); !ok || id != 1 {
		t.Fatalf("NodeByName(a) = %d,%v", id, ok)
	}
	if _, ok := g.NodeByName(""); ok {
		t.Fatal("NodeByName(\"\") should fail")
	}
	if g.TotalCapacity() != 7 {
		t.Fatalf("TotalCapacity = %d, want 7", g.TotalCapacity())
	}
	e := g.Edge(0)
	if e.Other(s) != 1 || e.Other(1) != s {
		t.Fatal("Other broken")
	}
	if len(g.Incident(s)) != 2 {
		t.Fatalf("Incident(s) = %v", g.Incident(s))
	}
}

func TestEdgeOtherPanics(t *testing.T) {
	g, _, _ := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Edge(0).Other(3)
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"self-loop", func(b *Builder) { n := b.AddNode(); b.AddEdge(n, n, 1, 0) }},
		{"bad endpoint", func(b *Builder) { n := b.AddNode(); b.AddEdge(n, n+5, 1, 0) }},
		{"negative cap", func(b *Builder) { u, v := b.AddNode(), b.AddNode(); b.AddEdge(u, v, -1, 0) }},
		{"p=1", func(b *Builder) { u, v := b.AddNode(), b.AddNode(); b.AddEdge(u, v, 1, 1.0) }},
		{"p<0", func(b *Builder) { u, v := b.AddNode(), b.AddNode(); b.AddEdge(u, v, 1, -0.1) }},
		{"dup name", func(b *Builder) { b.AddNamedNode("x"); b.AddNamedNode("x") }},
	}
	for _, c := range cases {
		b := NewBuilder()
		c.build(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		}
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	b := NewBuilder()
	u, v := b.AddNode(), b.AddNode()
	b.AddEdge(u, v, 1, 0.1)
	b.AddEdge(u, v, 2, 0.2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.TotalCapacity() != 3 {
		t.Fatal("parallel edges mishandled")
	}
}

func TestReaches(t *testing.T) {
	g, s, tt := diamond(t)
	if !g.Reaches(s, tt, nil) {
		t.Fatal("full graph should connect s,t")
	}
	if !g.Reaches(s, s, nil) {
		t.Fatal("node reaches itself")
	}
	if g.Reaches(tt, s, nil) {
		t.Fatal("links are directed: t must not reach s")
	}
	// Kill edges 0 (s→a) and 1 (s→b): s has no out-links.
	alive := bitset.New(g.NumEdges())
	alive.SetAll()
	alive.Clear(0)
	alive.Clear(1)
	if g.Reaches(s, tt, alive) {
		t.Fatal("s should be cut off")
	}
	// Kill s→a and b→t: the surviving route is s→b, but a→b points the
	// wrong way, so t is unreachable.
	alive.SetAll()
	alive.Clear(0)
	alive.Clear(3)
	if g.Reaches(s, tt, alive) {
		t.Fatal("a→b cannot be traversed backward")
	}
	// Kill s→b and a→t: s→a alive, a→b alive, b→t alive: reachable.
	alive.SetAll()
	alive.Clear(1)
	alive.Clear(2)
	if !g.Reaches(s, tt, alive) {
		t.Fatal("path s→a→b→t should connect")
	}
}

func TestOutIn(t *testing.T) {
	g, s, tt := diamond(t)
	if got := len(g.Out(s)); got != 2 {
		t.Fatalf("Out(s) = %d links, want 2", got)
	}
	if got := len(g.In(s)); got != 0 {
		t.Fatalf("In(s) = %d links, want 0", got)
	}
	if got := len(g.In(tt)); got != 2 {
		t.Fatalf("In(t) = %d links, want 2", got)
	}
	if got := len(g.Out(tt)); got != 0 {
		t.Fatalf("Out(t) = %d links, want 0", got)
	}
}

func TestWeakComponents(t *testing.T) {
	g, s, tt := diamond(t)
	comp, n := g.WeakComponents(nil)
	if n != 1 {
		t.Fatalf("components = %d, want 1", n)
	}
	_ = comp
	alive := bitset.New(g.NumEdges())
	alive.SetAll()
	alive.Clear(0) // s→a
	alive.Clear(1) // s→b
	comp, n = g.WeakComponents(alive)
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if comp[s] == comp[tt] {
		t.Fatal("s and t should be in different components")
	}
	empty := bitset.New(g.NumEdges())
	_, n = g.WeakComponents(empty)
	if n != g.NumNodes() {
		t.Fatalf("all-dead components = %d, want %d", n, g.NumNodes())
	}
}

func TestInduced(t *testing.T) {
	g, s, tt := diamond(t)
	// The cut {a-t (2), b-t (3)} separates {s,a,b} from {t}.
	gs := g.Induced([]bool{true, true, true, false})
	gt := g.Induced([]bool{false, false, false, true})
	if gs.G.NumNodes() != 3 || gt.G.NumNodes() != 1 {
		t.Fatalf("split sizes %d/%d", gs.G.NumNodes(), gt.G.NumNodes())
	}
	if gs.G.NumEdges() != 3 || gt.G.NumEdges() != 0 {
		t.Fatalf("split edges %d/%d", gs.G.NumEdges(), gt.G.NumEdges())
	}
	if !gs.HasNode(s) || gs.HasNode(tt) || !gt.HasNode(tt) {
		t.Fatal("membership wrong")
	}
	// Mappings are mutually consistent.
	for sub, par := range gs.ParentNode {
		if gs.NodeOf[par] != NodeID(sub) {
			t.Fatal("node mapping inconsistent")
		}
	}
	for subE, parE := range gs.ParentEdge {
		pe := g.Edge(parE)
		se := gs.G.Edge(EdgeID(subE))
		if se.Cap != pe.Cap || !testutil.AlmostEqual(se.PFail, pe.PFail, 0) {
			t.Fatal("edge attributes lost in induction")
		}
		if gs.ParentNode[se.U] != pe.U || gs.ParentNode[se.V] != pe.V {
			t.Fatal("edge endpoints lost in induction")
		}
	}
	// Each induced node's incidence list is its parent's, restricted to
	// induced links, in the same order.
	for sub, par := range gs.ParentNode {
		var want []EdgeID
		for _, pe := range g.Incident(par) {
			e := g.Edge(pe)
			if gs.HasNode(e.U) && gs.HasNode(e.V) {
				want = append(want, pe)
			}
		}
		got := gs.G.Incident(NodeID(sub))
		if len(got) != len(want) {
			t.Fatalf("node %d has %d induced links, want %d", sub, len(got), len(want))
		}
		for i, se := range got {
			if gs.ParentEdge[se] != want[i] {
				t.Fatalf("node %d incidence %v, want parent links %v", sub, got, want)
			}
		}
	}
	// Name survives induction.
	if nm := gs.G.NodeName(gs.NodeOf[s]); nm != "s" {
		t.Fatalf("induced name = %q", nm)
	}
}

func TestCloneDeep(t *testing.T) {
	g, _, _ := diamond(t)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	c.edges[0].Cap = 99
	if g.edges[0].Cap == 99 {
		t.Fatal("clone shares edge storage")
	}
	c.adj[0] = append(c.adj[0], 0)
	if len(g.adj[0]) == len(c.adj[0]) {
		t.Fatal("clone shares adjacency storage")
	}
}

func TestDemandValidate(t *testing.T) {
	g, s, tt := diamond(t)
	if err := (Demand{S: s, T: tt, D: 2}).Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := []Demand{
		{S: s, T: s, D: 1},
		{S: -1, T: tt, D: 1},
		{S: s, T: 100, D: 1},
		{S: s, T: tt, D: 0},
	}
	for _, dem := range bad {
		if err := dem.Validate(g); err == nil {
			t.Errorf("demand %v validated, want error", dem)
		}
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	src := `
# a diamond
node s
node t
edge s a 2 0.1
edge s b 1 0.2
edge a t 2 0.1
edge b t 1 0.2
edge a b 1 0.3
demand s t 2
`
	f, err := ParseTextString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Graph.NumNodes() != 4 || f.Graph.NumEdges() != 5 {
		t.Fatalf("parsed %d nodes %d edges", f.Graph.NumNodes(), f.Graph.NumEdges())
	}
	if f.Demand == nil || f.Demand.D != 2 {
		t.Fatalf("demand = %+v", f.Demand)
	}
	var sb strings.Builder
	if err := f.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	f2, err := ParseTextString(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if f2.Graph.NumNodes() != 4 || f2.Graph.NumEdges() != 5 || f2.Demand == nil {
		t.Fatal("round trip lost structure")
	}
	for i, e := range f.Graph.Edges() {
		e2 := f2.Graph.Edge(EdgeID(i))
		if e.Cap != e2.Cap || !testutil.AlmostEqual(e.PFail, e2.PFail, 0) {
			t.Fatal("round trip lost edge attributes")
		}
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"edge s t 1",                   // missing pfail
		"edge s t x 0.1",               // bad cap
		"edge s t 1 zz",                // bad pfail
		"frob s t",                     // unknown directive
		"node a\nnode a",               // dup node
		"demand s s 1",                 // s == t
		"edge s t 1 0.1\ndemand s t 0", // d=0
		"edge s t 1 0.1\ndemand s t 1\ndemand s t 1", // dup demand
		"edge 5 6 1 0.1", // index out of range
		"edge s t 1 1.0", // p = 1
	}
	for _, src := range bad {
		if _, err := ParseTextString(src); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", src)
		}
	}
}

func TestParseTextDuplex(t *testing.T) {
	f, err := ParseTextString("duplex a b 2 0.1\nedge b c 1 0.2\ndemand a c 1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Graph.NumEdges() != 3 {
		t.Fatalf("links = %d, want 3 (duplex = 2 + 1)", f.Graph.NumEdges())
	}
	e0, e1 := f.Graph.Edge(0), f.Graph.Edge(1)
	if e0.U != e1.V || e0.V != e1.U || e0.Cap != e1.Cap || !testutil.AlmostEqual(e0.PFail, e1.PFail, 0) {
		t.Fatalf("duplex pair mismatch: %+v / %+v", e0, e1)
	}
	if _, err := ParseTextString("duplex a b 2"); err == nil {
		t.Fatal("short duplex accepted")
	}
}

func TestParseTextDemandByIndex(t *testing.T) {
	f, err := ParseTextString("node s\nnode t\nedge 0 1 2 0.1\ndemand 0 1 2")
	if err != nil {
		t.Fatal(err)
	}
	if f.Demand.S != 0 || f.Demand.T != 1 {
		t.Fatalf("demand = %+v", f.Demand)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, s, tt := diamond(t)
	f := &File{Graph: g, Demand: &Demand{S: s, T: tt, D: 2}}
	data, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var f2 File
	if err := f2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if f2.Graph.NumNodes() != 4 || f2.Graph.NumEdges() != 5 {
		t.Fatal("JSON round trip lost structure")
	}
	if f2.Demand == nil || f2.Demand.D != 2 || f2.Demand.S != s || f2.Demand.T != tt {
		t.Fatalf("JSON demand = %+v", f2.Demand)
	}
	if !testutil.AlmostEqual(f2.Graph.Edge(4).PFail, 0.3, 0) {
		t.Fatal("JSON round trip lost pfail")
	}
}

func TestJSONErrors(t *testing.T) {
	var f File
	bad := []string{
		`{"nodes":["a","a"],"edges":[]}`,
		`{"nodes":["a"],"edges":[{"u":"a","v":"zz","cap":1,"pfail":0}]}`,
		`{"nodes":["a","b"],"edges":[{"u":"a","v":"b","cap":1,"pfail":0}],"demand":{"s":"a","t":"zz","d":1}}`,
		`{nonsense`,
	}
	for _, src := range bad {
		if err := f.UnmarshalJSON([]byte(src)); err == nil {
			t.Errorf("UnmarshalJSON(%q) succeeded, want error", src)
		}
	}
}

// randomGraph builds a connected-ish random graph for property tests.
func randomGraph(rng *rand.Rand, nodes, edges int) *Graph {
	b := NewBuilder()
	b.AddNodes(nodes)
	for i := 0; i < edges; i++ {
		u := NodeID(rng.Intn(nodes))
		v := NodeID(rng.Intn(nodes))
		for v == u {
			v = NodeID(rng.Intn(nodes))
		}
		b.AddEdge(u, v, 1+rng.Intn(3), rng.Float64()*0.9)
	}
	return b.MustBuild()
}

// Property: WeakComponents matches a union-find over the alive links, and
// Reaches implies weak connectivity.
func TestQuickWeakComponentsVsUnionFind(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(6), rng.Intn(10))
		alive := bitset.New(g.NumEdges())
		for i := 0; i < g.NumEdges(); i++ {
			if rng.Intn(2) == 0 {
				alive.Set(i)
			}
		}
		// Union-find over alive links, ignoring direction.
		parent := make([]int, g.NumNodes())
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for _, e := range g.Edges() {
			if alive.Test(int(e.ID)) {
				parent[find(int(e.U))] = find(int(e.V))
			}
		}
		comp, _ := g.WeakComponents(alive)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if (comp[u] == comp[v]) != (find(u) == find(v)) {
					return false
				}
				if g.Reaches(NodeID(u), NodeID(v), alive) && comp[u] != comp[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: text round trip preserves node/edge counts and attributes.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(6), rng.Intn(10))
		var sb strings.Builder
		if err := (&File{Graph: g}).WriteText(&sb); err != nil {
			return false
		}
		f2, err := ParseTextString(sb.String())
		if err != nil {
			return false
		}
		if f2.Graph.NumNodes() != g.NumNodes() || f2.Graph.NumEdges() != g.NumEdges() {
			return false
		}
		for i, e := range g.Edges() {
			e2 := f2.Graph.Edge(EdgeID(i))
			if e.Cap != e2.Cap || !testutil.AlmostEqual(e.PFail, e2.PFail, 0) || e.U != e2.U || e.V != e2.V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
