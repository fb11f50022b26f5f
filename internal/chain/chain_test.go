package chain

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"flowrel/internal/anytime"
	"flowrel/internal/core"
	"flowrel/internal/graph"
	"flowrel/internal/overlay"
	"flowrel/internal/reliability"
)

// threeBlocks builds s-block → cut1 → middle block → cut2 → t-block, with
// k links per cut and capacities supporting demand d.
func threeBlocks(k, d int, pCut float64) (*graph.Graph, graph.Demand, [][]graph.EdgeID) {
	b := graph.NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNode()
	// Block 0: s plus helper a.
	b.AddEdge(s, a, d, 0.1)
	// Cut 1 tails: s and a alternately.
	mid := make([]graph.NodeID, 2)
	mid[0] = b.AddNode()
	mid[1] = b.AddNode()
	b.AddEdge(mid[0], mid[1], 1, 0.15)
	end := make([]graph.NodeID, 2)
	end[0] = b.AddNode()
	end[1] = b.AddNode()
	t := b.AddNamedNode("t")
	b.AddEdge(end[0], end[1], 1, 0.15)
	b.AddEdge(end[0], t, d, 0.1)
	b.AddEdge(end[1], t, d, 0.1)

	var cut1, cut2 []graph.EdgeID
	for i := 0; i < k; i++ {
		tail := s
		if i%2 == 1 {
			tail = a
		}
		cut1 = append(cut1, b.AddEdge(tail, mid[i%2], d, pCut))
		cut2 = append(cut2, b.AddEdge(mid[i%2], end[i%2], d, pCut))
	}
	return b.MustBuild(), graph.Demand{S: s, T: t, D: d}, [][]graph.EdgeID{cut1, cut2}
}

func TestChainMatchesNaiveThreeBlocks(t *testing.T) {
	for _, k := range []int{1, 2} {
		for _, d := range []int{1, 2} {
			g, dem, cuts := threeBlocks(k, d, 0.2)
			want, err := reliability.Naive(g, dem, reliability.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(g, dem, cuts, Options{})
			if err != nil {
				t.Fatalf("k=%d d=%d: %v", k, d, err)
			}
			if math.Abs(res.Reliability-want.Reliability) > 1e-9 {
				t.Fatalf("k=%d d=%d: chain %.12f vs naive %.12f", k, d, res.Reliability, want.Reliability)
			}
			if len(res.Cuts) != 2 || len(res.SegmentEdges) != 3 {
				t.Fatalf("structure: %+v", res)
			}
		}
	}
}

func TestChainSingleCutMatchesCore(t *testing.T) {
	// With one cut the chain solver is exactly the paper's algorithm.
	o := overlay.Figure4()
	dem := o.Demand(o.Peers[0])
	want, err := core.Reliability(o.G, dem, core.Options{Bottleneck: o.Bottleneck})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(o.G, dem, [][]graph.EdgeID{o.Bottleneck}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-12 {
		t.Fatalf("chain %.15f vs core %.15f", res.Reliability, want.Reliability)
	}
}

func TestChainCutOrderIrrelevant(t *testing.T) {
	g, dem, cuts := threeBlocks(2, 2, 0.2)
	a, err := Solve(g, dem, cuts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, dem, [][]graph.EdgeID{cuts[1], cuts[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Reliability-b.Reliability) > 1e-12 {
		t.Fatalf("order matters: %.15f vs %.15f", a.Reliability, b.Reliability)
	}
}

func TestChainTriviallyZero(t *testing.T) {
	g, dem, cuts := threeBlocks(1, 1, 0.2)
	dem.D = 5 // cut capacity is 1
	res, err := Solve(g, dem, cuts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != 0 {
		t.Fatalf("R = %g, want 0", res.Reliability)
	}
}

func TestChainValidationErrors(t *testing.T) {
	g, dem, cuts := threeBlocks(2, 2, 0.2)
	cases := map[string][][]graph.EdgeID{
		"no cuts":        {},
		"empty cut":      {{}},
		"out of range":   {{999}},
		"duplicate link": {cuts[0], {cuts[0][0], cuts[1][0]}},
		"not minimal":    {{cuts[0][0]}}, // one link of a 2-link cut
	}
	for name, cs := range cases {
		if _, err := Solve(g, dem, cs, Options{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Solve(nil, dem, cuts, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Solve(g, graph.Demand{S: 0, T: 0, D: 1}, cuts, Options{}); err == nil {
		t.Error("bad demand accepted")
	}
	if _, err := Solve(g, dem, cuts, Options{MaxSegmentEdges: 1}); err == nil {
		t.Error("segment limit not enforced")
	}
	if _, err := Solve(g, dem, cuts, Options{MaxAssignmentSet: 1}); err == nil {
		t.Error("assignment limit not enforced")
	}
}

func TestFindAssemblesChain(t *testing.T) {
	g, dem, _ := threeBlocks(2, 2, 0.2)
	cuts, err := Find(g, dem, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) < 2 {
		t.Fatalf("found %d cuts, want ≥ 2", len(cuts))
	}
	res, err := Solve(g, dem, cuts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := reliability.Naive(g, dem, reliability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Reliability-want.Reliability) > 1e-9 {
		t.Fatalf("Find+Solve %.12f vs naive %.12f", res.Reliability, want.Reliability)
	}
	// maxCuts honored.
	one, err := Find(g, dem, 2, 1)
	if err != nil || len(one) != 1 {
		t.Fatalf("maxCuts=1: %v %v", one, err)
	}
}

func TestFindNoCut(t *testing.T) {
	// Dense graph with min cut 4: maxCutSize 2 fails.
	b := graph.NewBuilder()
	n := b.AddNodes(6)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(n+graph.NodeID(i), n+graph.NodeID(j), 1, 0.1)
		}
	}
	g := b.MustBuild()
	if _, err := Find(g, graph.Demand{S: 0, T: 5, D: 1}, 2, 0); err == nil {
		t.Fatal("expected error")
	}
}

// chainGraph builds a random chain of `blocks` small random blocks joined
// by planted cuts; returns the instance and the planted cut sequence.
func chainGraph(rng *rand.Rand, blocks, blockNodes, k, d int) (*graph.Graph, graph.Demand, [][]graph.EdgeID) {
	b := graph.NewBuilder()
	prevExits := []graph.NodeID{} // tails available in the previous block
	var cuts [][]graph.EdgeID
	var s, t graph.NodeID
	for blk := 0; blk < blocks; blk++ {
		first := b.AddNodes(blockNodes)
		// Weak spanning tree inside the block, random directions.
		for i := 1; i < blockNodes; i++ {
			j := first + graph.NodeID(rng.Intn(i))
			u, v := j, first+graph.NodeID(i)
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			b.AddEdge(u, v, 1+rng.Intn(d+1), rng.Float64()*0.8)
		}
		// A couple of extra links.
		for e := 0; e < 2; e++ {
			u := first + graph.NodeID(rng.Intn(blockNodes))
			v := first + graph.NodeID(rng.Intn(blockNodes))
			if u != v {
				b.AddEdge(u, v, 1+rng.Intn(d+1), rng.Float64()*0.8)
			}
		}
		if blk == 0 {
			s = first
		}
		if blk == blocks-1 {
			t = first + graph.NodeID(blockNodes-1)
		}
		if blk > 0 {
			// Join from previous block with k cut links; ensure
			// reachability so the cut is minimal.
			var cut []graph.EdgeID
			g0 := b.MustBuild()
			entryFixed := false
			for i := 0; i < k; i++ {
				x := prevExits[rng.Intn(len(prevExits))]
				y := first + graph.NodeID(rng.Intn(blockNodes))
				if !g0.Reaches(s, x, nil) {
					b.AddEdge(s, x, d, rng.Float64()*0.5)
					g0 = b.MustBuild()
				}
				cut = append(cut, b.AddEdge(x, y, 1+rng.Intn(d), rng.Float64()*0.5))
				_ = entryFixed
			}
			cuts = append(cuts, cut)
		}
		prevExits = prevExits[:0]
		for i := 0; i < blockNodes; i++ {
			prevExits = append(prevExits, first+graph.NodeID(i))
		}
	}
	// Ensure every cut head side reaches t: patch with direct links where
	// needed (keeps minimality of each cut).
	g0 := b.MustBuild()
	for _, cut := range cuts {
		for _, eid := range cut {
			y := g0.Edge(eid).V
			if !g0.Reaches(y, t, nil) {
				b.AddEdge(y, t, d, rng.Float64()*0.5)
				g0 = b.MustBuild()
			}
		}
	}
	return b.MustBuild(), graph.Demand{S: s, T: t, D: d}, cuts
}

// Property: on random chain graphs the chain solver agrees with naive.
func TestQuickChainMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := 2 + rng.Intn(2)
		k := 1 + rng.Intn(2)
		d := 1 + rng.Intn(2)
		g, dem, cuts := chainGraph(rng, blocks, 2+rng.Intn(2), k, d)
		if g.NumEdges() > 18 {
			return true // keep naive affordable
		}
		res, err := Solve(g, dem, cuts, Options{MaxAssignmentSet: 62})
		if err != nil {
			// Planted cuts can lose minimality to the reachability
			// patches; skip those instances.
			return true
		}
		want, err := reliability.Naive(g, dem, reliability.Options{})
		if err != nil {
			return false
		}
		if math.Abs(res.Reliability-want.Reliability) > 1e-9 {
			t.Logf("seed %d: chain %.12f naive %.12f", seed, res.Reliability, want.Reliability)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Find+Solve agrees with naive whenever it succeeds.
func TestQuickFindMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, dem, _ := chainGraph(rng, 2+rng.Intn(2), 2, 1+rng.Intn(2), 1+rng.Intn(2))
		if g.NumEdges() > 16 {
			return true
		}
		cuts, err := Find(g, dem, 3, 0)
		if err != nil {
			return true
		}
		res, err := Solve(g, dem, cuts, Options{MaxAssignmentSet: 62})
		if err != nil {
			return true
		}
		want, err := reliability.Naive(g, dem, reliability.Options{})
		if err != nil {
			return false
		}
		return math.Abs(res.Reliability-want.Reliability) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bundleChain builds s ⇉ x₁ → y₁ ⇉ x₂ → … → y_r ⇉ t: segment i is
// links[i] parallel unit links, and each cut k parallel links of
// capacity c from the segment before it to the one after, all of them
// leaving one node and entering one, so every cut's endpoints repeat.
func bundleChain(links []int, k, c, d int) (*graph.Graph, graph.Demand, [][]graph.EdgeID) {
	b := graph.NewBuilder()
	first := b.AddNodes(2 * len(links))
	var cuts [][]graph.EdgeID
	for i, l := range links {
		u := first + graph.NodeID(2*i)
		if i > 0 {
			var cut []graph.EdgeID
			for j := 0; j < k; j++ {
				cut = append(cut, b.AddEdge(u-1, u, c, 0.05))
			}
			cuts = append(cuts, cut)
		}
		for j := 0; j < l; j++ {
			b.AddEdge(u, u+1, 1, 0.2)
		}
	}
	return b.MustBuild(), graph.Demand{S: first, T: first + graph.NodeID(2*len(links)-1), D: d}, cuts
}

// chargedWork is what a complete Solve charges: one configuration per
// (pair, configuration) of every segment, where segment i pairs the
// assignments entering it with those leaving it (the terminal's one
// assignment at either end).
func chargedWork(res Result) uint64 {
	sizes := append(append([]int{1}, res.AssignSizes...), 1)
	var total uint64
	for i, m := range res.SegmentEdges {
		total += uint64(sizes[i]*sizes[i+1]) << uint(m)
	}
	return total
}

// Every segment charges its walk as a plan side does: a complete Solve
// charges its Ctl exactly one configuration per (pair, configuration)
// and exactly the max-flow calls it reports. A configuration budget
// stops it within one charge batch, with an error wrapping
// anytime.ErrInterrupted.
func TestSolveChargesMatchWork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		g, dem, cuts := chainGraph(rng, 2+rng.Intn(3), 3, 1+rng.Intn(2), 1+rng.Intn(2))
		ctl := anytime.New(context.Background(), anytime.Budget{})
		res, err := Solve(g, dem, cuts, Options{Ctl: ctl})
		if err != nil || res.Reliability == 0 {
			continue // a patched cut lost minimality, or the walk stopped early
		}
		if want := chargedWork(res); ctl.Configs() != want {
			t.Fatalf("trial %d: charged %d configurations, want %d", trial, ctl.Configs(), want)
		}
		if ctl.MaxFlowCalls() != res.MaxFlowCalls {
			t.Fatalf("trial %d: charged %d max-flow calls, Result reports %d", trial, ctl.MaxFlowCalls(), res.MaxFlowCalls)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d of 80 random chains solved", checked)
	}

	// Three cuts of two capacity-2 links at d = 2: 3 assignments each, 9
	// pairs in the middle segments, whose 10 links take 9·2^10
	// configurations each.
	g, dem, cuts := bundleChain([]int{3, 10, 10, 3}, 2, 2, 2)
	full, err := Solve(g, dem, cuts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := chargedWork(full)
	const maxPairs = 9
	for _, budget := range []uint64{1, 5000, total / 2, total - 1} {
		ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: budget})
		_, err := Solve(g, dem, cuts, Options{Ctl: ctl})
		if !errors.Is(err, anytime.ErrInterrupted) {
			t.Fatalf("budget %d of %d: err = %v, want one wrapping ErrInterrupted", budget, total, err)
		}
		if batch := uint64(anytime.CheckEvery + 64*maxPairs); ctl.Configs() < budget || ctl.Configs() >= budget+batch {
			t.Fatalf("budget %d: charged %d configurations, want fewer than one batch (%d) past it", budget, ctl.Configs(), batch)
		}
	}
}

// A chain past any of core's bounds is refused with core.ErrLimit before
// any segment walk, whatever the options allow: no configuration reaches
// the hook or the Ctl, and the refusal allocates far less than the DP
// lattice or the rows it declines. At |𝒟| = 22 the lattice alone is
// 2^22 floats, 32 MiB.
func TestSolveLimitsRejectBeforeWalk(t *testing.T) {
	wide := Options{MaxAssignmentSet: 62, MaxSegmentEdges: 63}
	cases := []struct {
		name    string
		links   []int
		k, c, d int
		opt     Options
		want    string
	}{
		// Two cut links of capacity 21 at d = 21: |𝒟| = 22.
		{"assignments", []int{1, 1}, 2, 21, 21, wide, "|𝒟_1| = 22 exceeds the evaluate kernel's 20"},
		// Under the option, not just the bound: |𝒟| = 3 against 2.
		{"assignment option", []int{1, 1}, 2, 2, 2, Options{MaxAssignmentSet: 2}, "exceeds MaxAssignmentSet 2 (raise it, up to 20)"},
		// A 27-link segment, and a 5-link one against the option.
		{"segment links", []int{27, 1}, 1, 1, 1, wide, "segment/0 has 27 links, exceeding the evaluate kernel's 26"},
		{"segment option", []int{1, 5}, 1, 1, 1, Options{MaxSegmentEdges: 4}, "segment/1 has 5 links, exceeding MaxSegmentEdges 4"},
		// 23 cut links at d = 23: |𝒟| = 1, but a 2^23-entry class table.
		{"cut links", []int{1, 1}, 23, 1, 23, wide, "cut 1 has 23 links"},
		// |𝒟| = 20 on both sides of a 22-link middle segment: 400 pairs
		// of 2^22 bits, past the 20·2^26 a plan side may hold.
		{"segment rows", []int{1, 22, 1}, 2, 19, 19, wide, "segment/1's 400 assignment pairs over 22 links"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, dem, cuts := bundleChain(tc.links, tc.k, tc.c, tc.d)
			ctl := anytime.New(context.Background(), anytime.Budget{})
			visited := 0
			opt := tc.opt
			opt.Ctl = ctl
			opt.TestHook = func(uint64) { visited++ }
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Solve(g, dem, cuts, opt)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, core.ErrLimit) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error wrapping core.ErrLimit that says %q", err, tc.want)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
				t.Fatalf("refused chain allocated %d bytes; want under 1 MiB", b)
			}
			if visited != 0 || ctl.Configs() != 0 || ctl.MaxFlowCalls() != 0 {
				t.Fatalf("refused chain walked %d masks, charged %d configurations and %d max-flow calls; want none",
					visited, ctl.Configs(), ctl.MaxFlowCalls())
			}
		})
	}
}
