package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"flowrel/internal/assign"
	"flowrel/internal/graph"
)

// sideCase is one plan side for the cold walk and its dense oracle, with
// the links planted off every path (planted, a mask over link IDs).
type sideCase struct {
	sub      *graph.Subgraph
	terminal graph.NodeID
	ends     []graph.NodeID
	toSink   bool
	ds       *assign.Set
	planted  uint64
}

// sideLink is one link of a side under construction.
type sideLink struct {
	u, v    graph.NodeID
	cap     int
	planted bool
}

// buildSideCase numbers links in the order given (link i is bit i) and
// draws the assignment family of demand d over cut capacities caps.
func buildSideCase(nodes int, links []sideLink, terminal graph.NodeID, ends []graph.NodeID, toSink bool, caps []int, d int) (sideCase, bool) {
	b := graph.NewBuilder()
	b.AddNodes(nodes)
	c := sideCase{terminal: terminal, ends: ends, toSink: toSink}
	for i, l := range links {
		b.AddEdge(l.u, l.v, l.cap, 0.1)
		if l.planted {
			c.planted |= 1 << uint(i)
		}
	}
	c.sub = &graph.Subgraph{G: b.MustBuild()}
	ds, err := assign.NewSet(caps, d)
	if err != nil || ds.Len() == 0 {
		return sideCase{}, false
	}
	c.ds = ds
	return c, true
}

// randomSide draws a side of n ≥ 2 core nodes (node 0 the terminal) with m
// random links of capacity 0 to 3 among them and k cut endpoints picked
// from the core nodes, then plants off-path links at random link IDs:
// out of a node nothing links into (the terminal, or the endpoints on
// G_t, cannot reach its tail), into a node that links nowhere (a dead
// end) and of capacity 0, `plant` of them in all. toSink picks G_s.
func randomSide(rng *rand.Rand, n, m, k, d, plant int, toSink bool) (sideCase, bool) {
	lost, dead := graph.NodeID(n), graph.NodeID(n+1)
	node := func() graph.NodeID { return graph.NodeID(rng.Intn(n)) }
	pair := func() (graph.NodeID, graph.NodeID) {
		u := node()
		return u, (u + 1 + graph.NodeID(rng.Intn(n-1))) % graph.NodeID(n)
	}
	var links []sideLink
	for len(links) < m {
		u, v := pair()
		links = append(links, sideLink{u, v, rng.Intn(4), false})
	}
	for p := 0; p < plant; p++ {
		var l sideLink
		switch p % 3 {
		case 0:
			l = sideLink{lost, node(), 1 + rng.Intn(3), true}
		case 1:
			l = sideLink{node(), dead, 1 + rng.Intn(3), true}
		default:
			u, v := pair()
			l = sideLink{u, v, 0, true}
		}
		at := rng.Intn(len(links) + 1)
		links = slices.Insert(links, at, l)
	}
	ends, caps := make([]graph.NodeID, k), make([]int, k)
	for i := range ends {
		ends[i], caps[i] = node(), 1+rng.Intn(d)
	}
	return buildSideCase(n+2, links, 0, ends, toSink, caps, d)
}

// checkSide walks one side cold and holds its rows bit for bit to the
// dense walk. The walk must find every planted link off-path, hand
// TestHook every mask exactly once, check and charge |𝒟|·2^m pairs, and
// count as PrunedOffPath exactly the pairs of masks that hold an
// off-path link.
func checkSide(t *testing.T, name string, c sideCase) {
	t.Helper()
	m := c.sub.G.NumEdges()
	seen := make([]int, 1<<uint(m))
	opt := &Options{TestHook: func(mask uint64) { seen[mask]++ }}
	f := newFrontierCtx(c.sub, c.terminal, c.ends, c.toSink, c.ds, opt)
	var st Stats
	rows, err := walkFrontier(f, &st)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := c.ds.Len()
	got, want := realizedArray(rows, n, m), denseSide(c.sub, c.terminal, c.ends, c.toSink, c.ds)
	for mask := range want {
		if got[mask] != want[mask] {
			t.Fatalf("%s: m=%d off %#x mask %#x: walk realized %#x, dense walk %#x", name, m, f.off, mask, got[mask], want[mask])
		}
		if seen[mask] != 1 {
			t.Fatalf("%s: TestHook saw mask %#x %d times", name, mask, seen[mask])
		}
	}
	if c.planted&^f.off != 0 {
		t.Fatalf("%s: planted off-path links %#x, the rule found %#x", name, c.planted, f.off)
	}
	if st.RealizationChecks != int64(n)<<uint(m) {
		t.Fatalf("%s: %d realization checks, want |𝒟|·2^m = %d", name, st.RealizationChecks, int64(n)<<uint(m))
	}
	onMasks := int64(1) << uint(m-bits.OnesCount64(f.off))
	if wantOff := int64(n) * (int64(1)<<uint(m) - onMasks); st.PrunedOffPath != wantOff {
		t.Fatalf("%s: %d pairs pruned off-path, want %d (off %#x)", name, st.PrunedOffPath, wantOff, f.off)
	}
	if st.PrunedCapacity+st.PrunedClosure+st.PrunedOffPath > st.RealizationChecks {
		t.Fatalf("%s: pruned %d+%d+%d pairs out of %d checked", name, st.PrunedCapacity, st.PrunedClosure, st.PrunedOffPath, st.RealizationChecks)
	}
}

// The cold walk steps over off-path links and stays bit-identical to the
// dense walk: links out of unreachable nodes, into dead ends and of
// capacity 0, among the six low links and the high ones, on both side
// orientations, on sides shorter than a word, and on a side whose links
// are all off-path.
func TestSideRowsMatchDense(t *testing.T) {
	// Seven links among nodes 0–4 (terminal 0, cut endpoints 3 and 4) and
	// planted links touching nodes 5 and 6; "low and high" puts them at
	// bits 1 and 4 (in-word) and 7 and 9 (word index).
	core := []sideLink{{0, 1, 2, false}, {0, 2, 1, false}, {1, 3, 1, false}, {2, 4, 2, false}, {1, 2, 1, false}, {3, 4, 1, false}, {2, 3, 1, false}}
	lostOut := sideLink{5, 1, 2, true}  // nothing links into node 5
	deadIn := sideLink{2, 6, 2, true}   // node 6 links nowhere
	zero := sideLink{1, 4, 0, true}     // capacity 0
	lostOut2 := sideLink{5, 6, 1, true} // both ends off every path
	shapes := map[string][]sideLink{
		"low and high": slices.Concat(core[:1], []sideLink{lostOut}, core[1:3], []sideLink{deadIn}, core[3:5], []sideLink{zero}, core[5:6], []sideLink{lostOut2}, core[6:]),
		"low only":     slices.Concat([]sideLink{zero, deadIn}, core),
		"high only":    slices.Concat(core[:6], []sideLink{lostOut, deadIn, zero}),
		"partial word": slices.Concat(core[:3], []sideLink{lostOut}, core[3:4]),
		"none":         core,
	}
	for name, links := range shapes {
		for _, toSink := range []bool{true, false} {
			if !toSink {
				// G_t: flow enters at the endpoints and leaves at the
				// terminal over the same links reversed.
				links = reversed(links)
			}
			c, ok := buildSideCase(7, links, 0, []graph.NodeID{3, 4}, toSink, []int{2, 2}, 2)
			if !ok {
				t.Fatalf("%s: no assignments", name)
			}
			checkSide(t, fmt.Sprintf("%s/toSink=%v", name, toSink), c)
		}
	}

	// Every link off-path: the terminal's one link has capacity 0 and the
	// rest join nodes it cannot reach.
	all := []sideLink{{1, 2, 1, true}, {0, 1, 0, true}, {2, 3, 2, true}, {3, 1, 1, true}, {1, 3, 1, true}, {2, 1, 1, true}, {3, 2, 2, true}, {1, 4, 1, true}}
	c, ok := buildSideCase(5, all, 0, []graph.NodeID{3, 4}, true, []int{1, 2}, 2)
	if !ok {
		t.Fatal("all off-path: no assignments")
	}
	checkSide(t, "all off-path", c)
	if c.sub.G.NumEdges() != bits.OnesCount64(c.planted) {
		t.Fatal("fixture: a link of the all-off-path side is not planted")
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		m := rng.Intn(9)
		c, ok := randomSide(rng, 2+rng.Intn(4), m, 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(4), trial%2 == 0)
		if ok {
			checkSide(t, fmt.Sprintf("random trial %d", trial), c)
		}
	}
}

// reversed returns the links with every direction flipped, planted marks
// kept: a G_s shape read as a G_t one.
func reversed(links []sideLink) []sideLink {
	out := make([]sideLink, len(links))
	for i, l := range links {
		out[i] = sideLink{l.v, l.u, l.cap, l.planted}
	}
	return out
}

// FuzzSideRows is TestSideRowsMatchDense on fuzzed sides: 2 to 5 core
// nodes, 0 to 8 random links, 1 to 3 cut endpoints, demand 1 to 3, 0 to
// 4 planted off-path links at random IDs, either orientation.
func FuzzSideRows(f *testing.F) {
	for _, c := range [][6]uint8{{3, 7, 2, 2, 3, 0}, {4, 5, 2, 2, 2, 1}, {2, 0, 1, 1, 4, 0}, {5, 8, 3, 3, 1, 1}, {3, 3, 1, 2, 4, 0}, {4, 6, 2, 1, 0, 1}} {
		f.Add(c[0], c[1], c[2], c[3], c[4], c[5] == 1, int64(c[1])<<8|int64(c[4]))
	}
	f.Fuzz(func(t *testing.T, nb, mb, kb, db, pb uint8, toSink bool, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		if c, ok := randomSide(rng, 2+int(nb%4), int(mb%9), 1+int(kb%3), 1+int(db%3), int(pb%5), toSink); ok {
			checkSide(t, "fuzz", c)
		}
	})
}

// TestOffPathLinks holds the rule to its definition on random digraphs
// of up to 70 nodes (past one bitset word): link u→v is off-path when no
// source reaches u, or v reaches no sink, over positive-capacity links
// (a Floyd–Warshall transitive closure).
func TestOffPathLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(7)
		if trial%10 == 0 {
			n = 60 + rng.Intn(11)
		}
		b := graph.NewBuilder()
		b.AddNodes(n)
		m := rng.Intn(min(64, 3*n) + 1)
		for i := 0; i < m; i++ {
			u := rng.Intn(n)
			b.AddEdge(graph.NodeID(u), graph.NodeID((u+1+rng.Intn(n-1))%n), rng.Intn(3), 0.1)
		}
		g := b.MustBuild()
		pick := func() []graph.NodeID {
			out := make([]graph.NodeID, 1+rng.Intn(3))
			for i := range out {
				out[i] = graph.NodeID(rng.Intn(n))
			}
			return out
		}
		sources, sinks := pick(), pick()
		reach := make([][]bool, n)
		for u := range reach {
			reach[u] = make([]bool, n)
			reach[u][u] = true
		}
		for _, e := range g.Edges() {
			if e.Cap > 0 {
				reach[e.U][e.V] = true
			}
		}
		for k := 0; k < n; k++ {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					reach[u][v] = reach[u][v] || reach[u][k] && reach[k][v]
				}
			}
		}
		var want uint64
		for _, e := range g.Edges() {
			from := slices.ContainsFunc(sources, func(s graph.NodeID) bool { return reach[s][e.U] })
			to := slices.ContainsFunc(sinks, func(x graph.NodeID) bool { return reach[e.V][x] })
			if !from || !to {
				want |= 1 << uint(e.ID)
			}
		}
		if got := offPathLinks(g, sources, sinks); got != want {
			t.Fatalf("trial %d (n=%d, m=%d): offPathLinks = %#x, want %#x", trial, n, m, got, want)
		}
	}
}
