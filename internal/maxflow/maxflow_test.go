package maxflow

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flowrel/internal/graph"
)

// buildDiamond: s=0, a=1, b=2, t=3 with caps s-a:2 s-b:1 a-t:2 b-t:1 a-b:1.
func buildDiamond() (*Network, []Handle) {
	nw := New(4)
	hs := []Handle{
		nw.AddUndirected(0, 1, 2),
		nw.AddUndirected(0, 2, 1),
		nw.AddUndirected(1, 3, 2),
		nw.AddUndirected(2, 3, 1),
		nw.AddUndirected(1, 2, 1),
	}
	return nw, hs
}

func TestMaxFlowDiamond(t *testing.T) {
	nw, _ := buildDiamond()
	if got := nw.MaxFlow(0, 3, -1); got != 3 {
		t.Fatalf("maxflow = %d, want 3", got)
	}
	if v, err := nw.CheckConservation(0, 3); err != nil || v != 3 {
		t.Fatalf("conservation: v=%d err=%v", v, err)
	}
	if got := nw.MaxFlowEK(0, 3, -1); got != 3 {
		t.Fatalf("EK maxflow = %d, want 3", got)
	}
}

func TestMaxFlowLimit(t *testing.T) {
	nw, _ := buildDiamond()
	if got := nw.MaxFlow(0, 3, 2); got != 2 {
		t.Fatalf("limited maxflow = %d, want 2", got)
	}
	if got := nw.MaxFlow(0, 3, 0); got != 0 {
		t.Fatalf("limit-0 maxflow = %d, want 0", got)
	}
	if got := nw.MaxFlowEK(0, 3, 2); got != 2 {
		t.Fatalf("limited EK = %d, want 2", got)
	}
}

func TestUndirectedBothDirections(t *testing.T) {
	nw := New(2)
	nw.AddUndirected(0, 1, 3)
	if got := nw.MaxFlow(0, 1, -1); got != 3 {
		t.Fatalf("0→1 = %d, want 3", got)
	}
	if got := nw.MaxFlow(1, 0, -1); got != 3 {
		t.Fatalf("1→0 = %d, want 3", got)
	}
}

func TestDirectedOneWay(t *testing.T) {
	nw := New(2)
	nw.AddDirected(0, 1, 3)
	if got := nw.MaxFlow(0, 1, -1); got != 3 {
		t.Fatalf("forward = %d, want 3", got)
	}
	if got := nw.MaxFlow(1, 0, -1); got != 0 {
		t.Fatalf("backward = %d, want 0", got)
	}
}

func TestParallelEdges(t *testing.T) {
	nw := New(2)
	nw.AddUndirected(0, 1, 2)
	nw.AddUndirected(0, 1, 3)
	if got := nw.MaxFlow(0, 1, -1); got != 5 {
		t.Fatalf("parallel = %d, want 5", got)
	}
}

func TestDisabledEdgeCarriesNothing(t *testing.T) {
	nw, hs := buildDiamond()
	nw.SetEnabled(hs[0], false) // kill s-a
	if got := nw.MaxFlow(0, 3, -1); got != 1 {
		t.Fatalf("maxflow without s-a = %d, want 1", got)
	}
	nw.SetEnabled(hs[0], true)
	if got := nw.MaxFlow(0, 3, -1); got != 3 {
		t.Fatalf("maxflow restored = %d, want 3", got)
	}
}

func TestSetBaseCap(t *testing.T) {
	nw := New(3)
	hu := nw.AddUndirected(0, 1, 1)
	hd := nw.AddDirected(1, 2, 1)
	nw.SetBaseCapUndirected(hu, 4)
	nw.SetBaseCapDirected(hd, 2)
	if got := nw.MaxFlow(0, 2, -1); got != 2 {
		t.Fatalf("maxflow = %d, want 2", got)
	}
	if got := nw.MaxFlow(2, 0, -1); got != 0 {
		t.Fatalf("reverse through directed arc = %d, want 0", got)
	}
}

func TestFlowOnAndSuperSink(t *testing.T) {
	// s -(2)- a, with demand arcs a→T of caps 1 and 1: classic side-array
	// shape: realize assignment (1,1).
	nw := New(3)
	he := nw.AddUndirected(0, 1, 2)
	d1 := nw.AddDirected(1, 2, 1)
	d2 := nw.AddDirected(1, 2, 1)
	if got := nw.MaxFlow(0, 2, -1); got != 2 {
		t.Fatalf("maxflow = %d, want 2", got)
	}
	if f := nw.FlowOn(he); f != 2 {
		t.Fatalf("FlowOn(link) = %d, want 2", f)
	}
	if nw.FlowOn(d1)+nw.FlowOn(d2) != 2 {
		t.Fatal("demand arcs should carry 2 total")
	}
}

func TestMinCutMatchesMaxFlow(t *testing.T) {
	nw, hs := buildDiamond()
	v := nw.MaxFlow(0, 3, -1)
	reach := nw.ResidualReachable(0)
	if reach[3] {
		t.Fatal("sink reachable after max flow")
	}
	// Cut capacity = sum of caps of edges crossing reach boundary.
	cut := 0
	for _, h := range hs {
		u := nw.arcs[h^1].to
		w := nw.arcs[h].to
		if reach[u] != reach[w] {
			cut += int(nw.base[h])
		}
	}
	if cut != v {
		t.Fatalf("cut capacity %d != flow %d", cut, v)
	}
}

func TestCloneIndependent(t *testing.T) {
	nw, hs := buildDiamond()
	c := nw.Clone()
	c.SetEnabled(hs[0], false)
	if got := nw.MaxFlow(0, 3, -1); got != 3 {
		t.Fatalf("original affected by clone: %d", got)
	}
	if got := c.MaxFlow(0, 3, -1); got != 1 {
		t.Fatalf("clone maxflow = %d, want 1", got)
	}
}

func TestAddNode(t *testing.T) {
	nw := New(1)
	v := nw.AddNode()
	nw.AddUndirected(0, v, 1)
	if got := nw.MaxFlow(0, v, -1); got != 1 {
		t.Fatalf("maxflow = %d, want 1", got)
	}
}

func TestFromGraph(t *testing.T) {
	b := graph.NewBuilder()
	s := b.AddNode()
	x := b.AddNode()
	tt := b.AddNode()
	b.AddEdge(s, x, 2, 0)
	b.AddEdge(x, tt, 1, 0)
	g := b.MustBuild()
	nw, hs := FromGraph(g)
	if len(hs) != 2 {
		t.Fatalf("handles = %d, want 2", len(hs))
	}
	if got := nw.MaxFlow(int32(s), int32(tt), -1); got != 1 {
		t.Fatalf("maxflow = %d, want 1", got)
	}
}

// randomNetwork builds a random undirected network on n nodes, m edges.
func randomNetwork(rng *rand.Rand, n, m int) (*Network, []Handle) {
	nw := New(n)
	hs := make([]Handle, 0, m)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		for v == u {
			v = int32(rng.Intn(n))
		}
		hs = append(hs, nw.AddUndirected(u, v, 1+rng.Intn(4)))
	}
	return nw, hs
}

// Property: Dinic and Edmonds–Karp agree.
func TestQuickDinicVsEK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		nw, _ := randomNetwork(rng, n, rng.Intn(20))
		s, tt := int32(0), int32(n-1)
		return nw.MaxFlow(s, tt, -1) == nw.MaxFlowEK(s, tt, -1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: max flow equals the capacity of the residual-reachability cut.
func TestQuickMaxFlowMinCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		nw, hs := randomNetwork(rng, n, rng.Intn(20))
		s, tt := int32(0), int32(n-1)
		v := nw.MaxFlow(s, tt, -1)
		reach := nw.ResidualReachable(s)
		if v > 0 && reach[tt] {
			return false
		}
		cut := 0
		for _, h := range hs {
			u := nw.arcs[h^1].to
			w := nw.arcs[h].to
			if reach[u] != reach[w] {
				cut += int(nw.base[h])
			}
		}
		if !reach[tt] && cut != v {
			return false
		}
		if cv, err := nw.CheckConservation(s, tt); err != nil || cv != v {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: incremental disable/enable tracks a from-scratch recompute
// through a random toggle sequence, and conservation holds at every step.
func TestQuickIncrementalVsRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		m := 1 + rng.Intn(14)
		nw, hs := randomNetwork(rng, n, m)
		ref := nw.Clone()
		s, tt := int32(0), int32(n-1)

		value := nw.MaxFlow(s, tt, -1)
		enabled := make([]bool, len(hs))
		for i := range enabled {
			enabled[i] = true
		}
		for step := 0; step < 24; step++ {
			i := rng.Intn(len(hs))
			if enabled[i] {
				value -= nw.DisableIncremental(hs[i], s, tt)
				enabled[i] = false
			} else {
				nw.EnableIncremental(hs[i])
				enabled[i] = true
			}
			value += nw.Augment(s, tt, -1)
			if v, err := nw.CheckConservation(s, tt); err != nil || v != value {
				return false
			}
			// Reference from scratch.
			for j, on := range enabled {
				ref.SetEnabled(hs[j], on)
			}
			if want := ref.MaxFlow(s, tt, -1); want != value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: incremental with a flow-value limit (the engines cap at d).
func TestQuickIncrementalWithLimit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(12)
		limit := 1 + rng.Intn(4)
		nw, hs := randomNetwork(rng, n, m)
		ref := nw.Clone()
		s, tt := int32(0), int32(n-1)

		value := nw.MaxFlow(s, tt, limit)
		enabled := make([]bool, len(hs))
		for i := range enabled {
			enabled[i] = true
		}
		for step := 0; step < 16; step++ {
			i := rng.Intn(len(hs))
			if enabled[i] {
				value -= nw.DisableIncremental(hs[i], s, tt)
				enabled[i] = false
			} else {
				nw.EnableIncremental(hs[i])
				enabled[i] = true
			}
			value += nw.Augment(s, tt, limit-value)
			for j, on := range enabled {
				ref.SetEnabled(hs[j], on)
			}
			want := ref.MaxFlow(s, tt, limit)
			// With a limit both engines either reach the limit or agree on
			// the max; reaching the limit must coincide.
			if (value >= limit) != (want >= limit) {
				return false
			}
			if value < limit && value != want {
				return false
			}
			if _, err := nw.CheckConservation(s, tt); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDisableIncrementalNoFlowEdge(t *testing.T) {
	nw := New(3)
	h1 := nw.AddUndirected(0, 1, 1)
	h2 := nw.AddUndirected(1, 2, 1)
	h3 := nw.AddUndirected(0, 2, 1) // direct; after maxflow both paths used
	_ = h1
	v := nw.MaxFlow(0, 2, -1)
	if v != 2 {
		t.Fatalf("maxflow = %d", v)
	}
	lost := nw.DisableIncremental(h2, 0, 2)
	if lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
	if _, err := nw.CheckConservation(0, 2); err != nil {
		t.Fatal(err)
	}
	lost = nw.DisableIncremental(h2, 0, 2) // already disabled: no-op
	if lost != 0 {
		t.Fatalf("second disable lost = %d, want 0", lost)
	}
	_ = h3
}

func TestStatsCounted(t *testing.T) {
	nw, _ := buildDiamond()
	nw.MaxFlow(0, 3, -1)
	if nw.Stats.MaxFlowCalls != 1 || nw.Stats.AugmentUnits != 3 || nw.Stats.BFSRuns == 0 {
		t.Fatalf("stats = %+v", nw.Stats)
	}
}

func TestPanics(t *testing.T) {
	nw := New(2)
	h := nw.AddUndirected(0, 1, 1)
	for name, f := range map[string]func(){
		"negative nodes": func() { New(-1) },
		"bad endpoint":   func() { nw.AddUndirected(0, 5, 1) },
		"negative cap":   func() { nw.AddUndirected(0, 1, -1) },
		"negative capD":  func() { nw.AddDirected(0, 1, -1) },
		"s==t":           func() { nw.Augment(0, 0, -1) },
		"set negative":   func() { nw.SetBaseCapUndirected(h, -2) },
		"set negative d": func() { nw.SetBaseCapDirected(h, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: RetargetIncremental tracks a from-scratch recompute through a
// random walk over enabled-edge bitmasks — exactly how the frontier side
// engine drives it, except here the transitions are arbitrary rather than
// popcount-adjacent, so both the incremental and the full-reset paths get
// exercised. Every fourth step is a per-edge capacity delta (the churn
// mutation) applied through SetBaseCapUndirectedIncremental, so the walk
// also proves a feasible flow survives capacity shrink/grow, not just
// enable/disable. After every retarget or capacity delta the tracked flow
// value must be non-negative and equal the network's own, and
// conservation must hold after every hop.
func TestQuickRetargetIncremental(t *testing.T) {
	f := func(seed int64) bool {
		if err := retargetWalk(seed); err != nil {
			t.Logf("seed %#x: %v", uint64(seed), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestRetargetIncrementalPinnedSeeds replays walks that once broke the
// repair. Seed 0x25e1d266e1b25b40 (4 nodes, 13 links, s = 0, t = 3)
// disables link {1,3} while it carries one unit of an s–t path and one
// unit of a cycle through t; a repair that routed both through its
// virtual s→t arc left a flow of value −1 behind, and the next disable
// panicked trying to cancel it.
func TestRetargetIncrementalPinnedSeeds(t *testing.T) {
	seed := int64(0x25e1d266e1b25b40)
	if err := retargetWalk(seed); err != nil {
		t.Fatalf("seed %#x: %v", uint64(seed), err)
	}
}

// retargetWalk runs one TestQuickRetargetIncremental walk.
func retargetWalk(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(7)
	m := 1 + rng.Intn(14)
	nw, hs := randomNetwork(rng, n, m)
	ref := nw.Clone()
	s, tt := int32(0), int32(n-1)

	// Frontier start state: everything disabled, zero flow.
	for _, h := range hs {
		nw.SetEnabled(h, false)
	}
	nw.ResetFlow()
	cur, value := uint64(0), 0
	all := uint64(1)<<uint(len(hs)) - 1

	for step := 0; step < 24; step++ {
		if step%4 == 3 {
			// Capacity delta on a random edge, live or not: shrinking
			// below the crossing flow must repair and report the loss.
			i := rng.Intn(len(hs))
			c := rng.Intn(5)
			value -= nw.SetBaseCapUndirectedIncremental(hs[i], c, s, tt)
			ref.SetBaseCapUndirected(hs[i], c)
		} else {
			var target uint64
			if step%3 == 0 {
				// Popcount-adjacent hop, the common case in the engine.
				target = cur ^ (uint64(1) << uint(rng.Intn(len(hs))))
			} else {
				target = rng.Uint64() & all
			}
			value = nw.RetargetIncremental(hs, cur, target, s, tt, value)
			cur = target
		}
		v, err := nw.CheckConservation(s, tt)
		if err != nil {
			return fmt.Errorf("step %d: after the repair: %v", step, err)
		}
		if value < 0 || v != value {
			return fmt.Errorf("step %d: after the repair the tracked value is %d, the network carries %d", step, value, v)
		}
		value += nw.Augment(s, tt, -1)
		if v, err := nw.CheckConservation(s, tt); err != nil || v != value {
			return fmt.Errorf("step %d: after Augment the tracked value is %d, the network carries %d (%v)", step, value, v, err)
		}
		for i, h := range hs {
			ref.SetEnabled(h, cur&(1<<uint(i)) != 0)
		}
		if want := ref.MaxFlow(s, tt, -1); want != value {
			return fmt.Errorf("step %d: incremental max flow %d, from scratch %d", step, value, want)
		}
	}
	return nil
}

// A flow of negative value (pushed t→s) breaks the repair's
// precondition: the only way to restore conservation after its edge goes
// is to cancel a t→s path, which the virtual s→t arc cannot do. The
// repair must reset the flow, report the whole value as lost and never
// panic.
func TestDisableIncrementalNegativeFlowResets(t *testing.T) {
	nw := New(3) // s = 0, t = 1, relay 2
	nw.AddUndirected(1, 2, 1)
	back := nw.AddUndirected(2, 0, 1)
	if got := nw.Augment(1, 0, -1); got != 1 {
		t.Fatalf("t→s push = %d, want 1", got)
	}
	if v, err := nw.CheckConservation(0, 1); err != nil || v != -1 {
		t.Fatalf("before: value %d err %v, want -1", v, err)
	}
	if lost := nw.DisableIncremental(back, 0, 1); lost != -1 {
		t.Fatalf("lost = %d, want -1 (the whole value)", lost)
	}
	if v, err := nw.CheckConservation(0, 1); err != nil || v != 0 {
		t.Fatalf("after: value %d err %v, want a reset flow", v, err)
	}
}

// SetBaseCapDirectedIncremental on a saturated path: shrinking below the
// crossing flow loses exactly the excess, growing back restores headroom
// for Augment, and a disabled edge only records the new base.
func TestSetBaseCapIncremental(t *testing.T) {
	nw := New(3)
	a := nw.AddDirected(0, 1, 2)
	b := nw.AddDirected(1, 2, 2)
	if v := nw.MaxFlow(0, 2, -1); v != 2 {
		t.Fatalf("maxflow = %d, want 2", v)
	}
	if lost := nw.SetBaseCapDirectedIncremental(b, 1, 0, 2); lost != 1 {
		t.Fatalf("shrink 2→1 lost %d, want 1", lost)
	}
	if v, err := nw.CheckConservation(0, 2); err != nil || v != 1 {
		t.Fatalf("after shrink: value %d err %v", v, err)
	}
	if lost := nw.SetBaseCapDirectedIncremental(b, 0, 0, 2); lost != 1 {
		t.Fatalf("shrink 1→0 lost %d, want 1", lost)
	}
	if lost := nw.SetBaseCapDirectedIncremental(b, 2, 0, 2); lost != 0 {
		t.Fatalf("grow 0→2 lost %d, want 0", lost)
	}
	if got := nw.Augment(0, 2, -1); got != 2 {
		t.Fatalf("augment after grow = %d, want 2", got)
	}
	// Disabled edge: record the base, no flow change, conservation holds.
	lost := nw.DisableIncremental(a, 0, 2)
	if lost != 2 {
		t.Fatalf("disable lost %d, want 2", lost)
	}
	if lost := nw.SetBaseCapDirectedIncremental(a, 5, 0, 2); lost != 0 {
		t.Fatalf("set on disabled lost %d, want 0", lost)
	}
	nw.EnableIncremental(a)
	if got := nw.Augment(0, 2, -1); got != 2 {
		t.Fatalf("augment after enable = %d, want 2 (new cap visible)", got)
	}
	if v, err := nw.CheckConservation(0, 2); err != nil || v != 2 {
		t.Fatalf("final: value %d err %v", v, err)
	}
}

// RetargetIncremental with no change must be a no-op that keeps the
// caller's flow value, and a transition from zero flow must take the
// reset path (returning 0) regardless of the diff size.
func TestRetargetIncrementalEdgeCases(t *testing.T) {
	nw, hs := buildDiamond()
	all := uint64(1)<<uint(len(hs)) - 1
	v := nw.MaxFlow(0, 3, -1)
	if got := nw.RetargetIncremental(hs, all, all, 0, 3, v); got != v {
		t.Fatalf("no-op retarget changed value: %d -> %d", v, got)
	}
	// value=0 forces the reset path even for a single-bit diff.
	nw.ResetFlow()
	if got := nw.RetargetIncremental(hs, all, all&^1, 0, 3, 0); got != 0 {
		t.Fatalf("reset path returned %d, want 0", got)
	}
	if nw.Enabled(hs[0]) {
		t.Fatal("retarget did not disable handle 0")
	}
	if _, err := nw.CheckConservation(0, 3); err != nil {
		t.Fatal(err)
	}
}

// Property: the crossing set CutCrossing reports after a failed solve is
// a certificate of infeasibility — every configuration that enables none
// of the reported links outside the solved configuration also falls short
// of the limit (checked by brute force over all configurations). The
// network mixes directed and undirected links plus fixed arcs outside the
// handle set, and solves warm through RetargetIncremental the way the
// side walks do.
func TestQuickCutCrossingCertifiesInfeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(9)
		nw := New(n)
		hs := make([]Handle, m)
		for i := range hs {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			for v == u {
				v = int32(rng.Intn(n))
			}
			if rng.Intn(2) == 0 {
				hs[i] = nw.AddDirected(u, v, rng.Intn(4))
			} else {
				hs[i] = nw.AddUndirected(u, v, rng.Intn(4))
			}
		}
		s, tt := int32(0), int32(n-1)
		if n > 2 && rng.Intn(2) == 0 {
			nw.AddDirected(int32(1+rng.Intn(n-2)), tt, 1+rng.Intn(3))
		}
		d := 1 + rng.Intn(5)
		ref := nw.Clone()
		solve := func(c uint64) int {
			for i, h := range hs {
				ref.SetEnabled(h, c&(1<<uint(i)) != 0)
			}
			return ref.MaxFlow(s, tt, d)
		}
		for _, h := range hs {
			nw.SetEnabled(h, false)
		}
		nw.ResetFlow()
		cur, value := uint64(0), 0
		all := uint64(1)<<uint(m) - 1
		for step := 0; step < 12; step++ {
			mask := rng.Uint64() & all
			value = nw.RetargetIncremental(hs, cur, mask, s, tt, value)
			cur = mask
			if value < d {
				value += nw.Augment(s, tt, d-value)
			}
			if value >= d {
				continue
			}
			a := nw.CutCrossing(s, hs) &^ mask
			for c := uint64(0); c <= all; c++ {
				if c&a == 0 && solve(c) >= d {
					t.Logf("seed %d: mask %#x fails (flow %d < %d) with certificate %#x, but %#x carries %d",
						seed, mask, value, d, a, c, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// CutCrossing runs on the network's own scratch: after the first solve it
// must not allocate.
func TestCutCrossingZeroAllocs(t *testing.T) {
	nw, hs := buildDiamond()
	nw.SetEnabled(hs[2], false)
	nw.ResetFlow()
	if got := nw.Augment(0, 3, 3); got != 1 {
		t.Fatalf("flow = %d, want 1", got)
	}
	allocs := testing.AllocsPerRun(100, func() { nw.CutCrossing(0, hs) })
	if allocs != 0 {
		t.Fatalf("CutCrossing allocates %.1f times per call", allocs)
	}
	// The diamond with a–t down: the source side is {s, a, b}; b–t and
	// the dead a–t link cross it.
	if got, want := nw.CutCrossing(0, hs), uint64(1)<<2|uint64(1)<<3; got != want {
		t.Fatalf("crossing = %#b, want %#b", got, want)
	}
}

// TestSizedAndClonedLayouts builds random networks three ways — New,
// NewSized with the exact degrees, and a Clone of either — and checks
// that adding the links into NewSized's room allocates nothing, that a
// node outgrowing its room (in a sized network or a clone, whose lists
// share one backing array) leaves every other node's list intact, and
// that all of them solve every s→t flow alike.
func TestSizedAndClonedLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		type link struct{ u, v, c int32 }
		links := make([]link, rng.Intn(20))
		deg := make([]int, n)
		for i := range links {
			links[i] = link{int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(4))}
			deg[links[i].u]++
			deg[links[i].v]++
		}
		plain := New(n)
		for _, l := range links {
			plain.AddDirected(l.u, l.v, int(l.c))
		}
		// AllocsPerRun calls once more than it measures: one sized
		// network per call.
		sizedNets := []*Network{NewSized(deg), NewSized(deg), NewSized(deg)}
		k := 0
		if allocs := testing.AllocsPerRun(len(sizedNets)-1, func() {
			for _, l := range links {
				sizedNets[k].AddDirected(l.u, l.v, int(l.c))
			}
			k++
		}); allocs != 0 {
			t.Fatalf("trial %d: adding the sized links allocated %v times", trial, allocs)
		}
		sized := sizedNets[0]
		clone := sized.Clone()
		// Two more links on each network at one node: past the sized
		// node's room, and past the clone's spare slot.
		u := int32(rng.Intn(n))
		for _, l := range []link{{u, int32(rng.Intn(n)), 1}, {int32(rng.Intn(n)), u, 2}} {
			for _, nw := range []*Network{plain, sized, clone} {
				nw.AddDirected(l.u, l.v, int(l.c))
			}
		}
		for _, nw := range []*Network{sized, clone} {
			for u := range plain.adj {
				if fmt.Sprint(nw.adj[u]) != fmt.Sprint(plain.adj[u]) {
					t.Fatalf("trial %d: node %d lists arcs %v, want %v", trial, u, nw.adj[u], plain.adj[u])
				}
			}
		}
		for s := int32(0); s < int32(n); s++ {
			for d := int32(0); d < int32(n); d++ {
				if s == d {
					continue
				}
				want := plain.MaxFlow(s, d, -1)
				for _, nw := range []*Network{sized, clone} {
					if got := nw.MaxFlow(s, d, -1); got != want {
						t.Fatalf("trial %d: flow %d→%d is %d, New-built network %d", trial, s, d, got, want)
					}
				}
			}
		}
	}
}
