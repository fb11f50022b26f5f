package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"flowrel/internal/assign"
	"flowrel/internal/graph"
)

// segmentCase is one segment for the walk and its dense oracle.
type segmentCase struct {
	sub          *graph.Subgraph
	heads, tails []graph.NodeID
	in, out      []assign.Assignment
	d            int
}

// randomSegment draws a segment of n nodes and m links of capacity 0 to
// 3, with kIn heads and kOut tails picked from all n nodes (so heads
// repeat, and meet tails, as often as chance has them), and the
// assignment families of demand d over head and tail capacities of 1 to
// d. It reports false when a family is empty.
func randomSegment(rng *rand.Rand, n, m, kIn, kOut, d int) (segmentCase, bool) {
	b := graph.NewBuilder()
	first := b.AddNodes(n)
	node := func() graph.NodeID { return first + graph.NodeID(rng.Intn(n)) }
	for added := 0; added < m && n > 1; {
		if u, v := node(), node(); u != v {
			b.AddEdge(u, v, rng.Intn(4), 0.1)
			added++
		}
	}
	family := func(k int) ([]graph.NodeID, []assign.Assignment) {
		ends, caps := make([]graph.NodeID, k), make([]int, k)
		for i := range ends {
			ends[i], caps[i] = node(), 1+rng.Intn(d)
		}
		fam, err := assign.Enumerate(caps, d)
		if err != nil {
			panic(err)
		}
		return ends, fam
	}
	c := segmentCase{sub: &graph.Subgraph{G: b.MustBuild()}, d: d}
	c.heads, c.in = family(kIn)
	c.tails, c.out = family(kOut)
	return c, len(c.in) > 0 && len(c.out) > 0
}

// checkSegment holds BuildSegment's rows, and each Relation read from
// them, bit for bit to the dense walk, and the walk's charge to one
// configuration per (pair, configuration), every mask handed to TestHook
// once. It returns the links the walk stepped over as off-path.
func checkSegment(t *testing.T, c segmentCase) (off uint64) {
	t.Helper()
	var st Stats
	m := c.sub.G.NumEdges()
	seen := make([]int, 1<<uint(m))
	opt := &Options{TestHook: func(mask uint64) { seen[mask]++ }}
	seg, err := BuildSegment(c.sub, c.heads, c.in, c.tails, c.out, c.d, opt, &st)
	if err != nil {
		t.Fatal(err)
	}
	want := denseSegment(c.sub, c.heads, c.in, c.tails, c.out, c.d)
	if !slices.Equal(seg.rows, want) {
		t.Fatalf("m=%d heads %v in %v tails %v out %v d=%d: rows %x, dense walk %x", m, c.heads, c.in, c.tails, c.out, c.d, seg.rows, want)
	}
	pairs := len(c.in) * len(c.out)
	if st.RealizationChecks != int64(pairs)<<uint(m) {
		t.Fatalf("m=%d: %d realization checks, want %d pairs × 2^m", m, st.RealizationChecks, pairs)
	}
	for mask, k := range seen {
		if k != 1 {
			t.Fatalf("m=%d: TestHook saw mask %#x %d times", m, mask, k)
		}
	}
	off = newSegmentCtx(c.sub, c.heads, c.in, c.tails, c.out, c.d, opt).off
	onMasks := int64(1) << uint(m-bits.OnesCount64(off))
	if wantOff := int64(pairs) * (int64(1)<<uint(m) - onMasks); st.PrunedOffPath != wantOff {
		t.Fatalf("m=%d: %d pairs pruned off-path, want %d (off %#x)", m, st.PrunedOffPath, wantOff, off)
	}
	words, _ := rowShape(m)
	for a := range c.in {
		for mask := uint64(0); mask < uint64(1)<<uint(m); mask++ {
			var rel uint64
			for b := range c.out {
				w := want[uint64(a*len(c.out)+b)*words+mask>>lowLinks]
				rel |= (w >> (mask & (1<<lowLinks - 1)) & 1) << uint(b)
			}
			if got := seg.Relation(a, mask); got != rel {
				t.Fatalf("m=%d: Relation(%d, %d) = %b, want %b", m, a, mask, got, rel)
			}
		}
	}
	return off
}

// The segment walk reproduces the dense walk on every shape the chain
// hands it: an end segment's single assignment, heads that are also
// tails (the capacity bound's direct flow), repeated endpoints,
// zero-capacity links, links off every head→tail path among the six low
// links and the high ones, widths on both sides of the 6-link word edge,
// and more than 64 pairs, past what one realized-set word packs.
func TestSegmentRowsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	offBoth := 0
	for m := 0; m <= 9; m++ {
		for trial := 0; trial < 12; trial++ {
			n := 1 + rng.Intn(5)
			if c, ok := randomSegment(rng, n, m, 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)); ok {
				if off := checkSegment(t, c); off&(1<<lowLinks-1) != 0 && off>>lowLinks != 0 {
					offBoth++
				}
			}
		}
	}
	if offBoth == 0 {
		t.Fatal("no random segment had off-path links among both the low and the high links")
	}

	// Named shapes on a 4-node diamond 0 → {1, 2} → 3 with a cross link
	// and a zero-capacity one.
	b := graph.NewBuilder()
	b.AddNodes(4)
	b.AddEdge(0, 1, 2, 0.1)
	b.AddEdge(0, 2, 1, 0.1)
	b.AddEdge(1, 3, 1, 0.1)
	b.AddEdge(2, 3, 2, 0.1)
	b.AddEdge(1, 2, 1, 0.1)
	b.AddEdge(2, 1, 0, 0.1)
	diamond := &graph.Subgraph{G: b.MustBuild()}
	whole := []assign.Assignment{{2}}
	two, err := assign.Enumerate([]int{2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []segmentCase{
		{diamond, []graph.NodeID{0}, []graph.NodeID{3}, whole, whole, 2},        // both ends terminals
		{diamond, []graph.NodeID{0}, []graph.NodeID{1, 2}, whole, two, 2},       // a source segment
		{diamond, []graph.NodeID{1, 2}, []graph.NodeID{3}, two, whole, 2},       // a sink segment
		{diamond, []graph.NodeID{1, 2}, []graph.NodeID{1, 3}, two, two, 2},      // a head that is a tail
		{diamond, []graph.NodeID{1, 1}, []graph.NodeID{3, 3}, two, two, 2},      // repeated endpoints
		{diamond, []graph.NodeID{1, 2}, []graph.NodeID{2, 1}, two, two, 2},      // every head a tail
		{diamond, []graph.NodeID{0, 0}, []graph.NodeID{0, 3}, two, two, 2},      // a head that is a tail, twice
		{diamond, []graph.NodeID{3}, []graph.NodeID{0}, whole, whole, 2},        // nothing flows backwards
		{diamond, []graph.NodeID{0}, []graph.NodeID{0}, whole, whole, 2},        // no link needed
		{diamond, []graph.NodeID{1, 2}, []graph.NodeID{3, 3}, two, two[:1], 2},  // one out-assignment
		{diamond, []graph.NodeID{1, 2}, []graph.NodeID{3, 3}, two[1:2], two, 2}, // one in-assignment
		{diamond, []graph.NodeID{2}, []graph.NodeID{1}, whole, whole, 2},        // only a zero-capacity link joins 2 to 1
	} {
		checkSegment(t, c)
	}

	// 10 × 10 pairs over 7 links: rows past the 64 a realized-set word
	// holds, each word edge crossed.
	rng = rand.New(rand.NewSource(6))
	wide, err := assign.Enumerate([]int{3, 3, 3}, 3)
	if err != nil || len(wide) != 10 {
		t.Fatalf("family of %d: %v", len(wide), err)
	}
	c, _ := randomSegment(rng, 5, 7, 1, 1, 1)
	c.heads = []graph.NodeID{0, 1, 2}
	c.tails = []graph.NodeID{2, 3, 4}
	c.in, c.out, c.d = wide, wide, 3
	checkSegment(t, c)
}

// FuzzSegmentRows is TestSegmentRowsMatchDense on fuzzed segments: 1 to 5
// nodes, 0 to 8 links, 1 to 3 heads and tails, demand 1 to 3. The last
// three seeds draw 7-link segments with off-path links among both the
// low and the high links (0x42, 0x4f and 0x41).
func FuzzSegmentRows(f *testing.F) {
	for _, c := range [][5]uint8{{2, 0, 1, 1, 1}, {4, 5, 2, 2, 2}, {4, 6, 2, 3, 2}, {5, 7, 3, 3, 3}, {3, 8, 1, 2, 3}, {1, 0, 2, 2, 2}} {
		f.Add(c[0], c[1], c[2], c[3], c[4], int64(c[1])<<8|int64(c[0]))
	}
	for _, c := range [][6]uint8{{2, 7, 1, 2, 2, 25}, {2, 7, 2, 2, 1, 44}, {2, 7, 1, 1, 2, 76}} {
		f.Add(c[0], c[1], c[2], c[3], c[4], int64(c[5]))
	}
	f.Fuzz(func(t *testing.T, nb, mb, inb, outb, db uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		if c, ok := randomSegment(rng, 1+int(nb%5), int(mb%9), 1+int(inb%3), 1+int(outb%3), 1+int(db%3)); ok {
			checkSegment(t, c)
		}
	})
}
