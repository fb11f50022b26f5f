// Package maxflow implements integral maximum flow on mixed networks of
// undirected links and directed arcs, tuned for the reliability engines:
//
//   - capacities are small integers (sub-stream counts), so Dinic with an
//     early exit at the demanded flow value is the workhorse;
//   - every edge can be switched on and off cheaply, because the engines
//     solve one max-flow per failure configuration;
//   - an incremental mode repairs the current flow after edges are
//     disabled or enabled, which lets a walk retarget one warm network
//     from configuration to configuration instead of re-solving from
//     scratch.
//
// An undirected link {u,v} of capacity c is represented as the residual
// arc pair (u→v, c), (v→u, c); a directed arc as (u→v, c), (v→u, 0).
package maxflow

import (
	"fmt"
	"math"
	"math/bits"

	"flowrel/internal/graph"
)

// Handle identifies an edge of the network (the index of its forward arc;
// arcs are always created in residual pairs, forward first).
type Handle int32

type arc struct {
	to  int32
	cap int32 // remaining (residual) capacity
}

// Network is a flow network. It is not safe for concurrent use; engines
// give each worker its own Clone.
type Network struct {
	n       int
	arcs    []arc
	base    []int32 // original capacity per arc
	enabled []bool  // per edge (indexed by Handle/2)
	adj     [][]int32

	// scratch for Dinic / BFS
	level []int32
	iter  []int32
	queue []int32

	// Stats counts work done, for the cost-model experiments.
	Stats Stats
}

// Stats accumulates operation counts.
type Stats struct {
	MaxFlowCalls    int64 // completed Augment/MaxFlow invocations
	BFSRuns         int64
	AugmentUnits    int64 // total flow units pushed
	AugmentingPaths int64 // individual augmenting paths found
}

// New returns an empty network with n nodes.
func New(n int) *Network {
	if n < 0 {
		panic("maxflow: negative node count")
	}
	return &Network{n: n, adj: make([][]int32, n)}
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return nw.n }

// AddNode appends a node and returns its index.
func (nw *Network) AddNode() int32 {
	nw.adj = append(nw.adj, nil)
	nw.n++
	return int32(nw.n - 1)
}

func (nw *Network) addPair(u, v int32, capFwd, capRev int32) Handle {
	if u < 0 || int(u) >= nw.n || v < 0 || int(v) >= nw.n {
		panic(fmt.Sprintf("maxflow: endpoint out of range (%d,%d) n=%d", u, v, nw.n))
	}
	h := Handle(len(nw.arcs))
	nw.arcs = append(nw.arcs, arc{to: v, cap: capFwd}, arc{to: u, cap: capRev})
	nw.base = append(nw.base, capFwd, capRev)
	nw.enabled = append(nw.enabled, true)
	nw.adj[u] = append(nw.adj[u], int32(h))
	nw.adj[v] = append(nw.adj[v], int32(h)+1)
	return h
}

// AddUndirected adds an undirected link {u,v} with capacity c.
func (nw *Network) AddUndirected(u, v int32, c int) Handle {
	if c < 0 {
		panic("maxflow: negative capacity")
	}
	return nw.addPair(u, v, int32(c), int32(c))
}

// AddDirected adds a directed arc u→v with capacity c.
func (nw *Network) AddDirected(u, v int32, c int) Handle {
	if c < 0 {
		panic("maxflow: negative capacity")
	}
	return nw.addPair(u, v, int32(c), 0)
}

// SetBaseCapDirected sets the base capacity of a directed arc created with
// AddDirected and resets its flow.
func (nw *Network) SetBaseCapDirected(h Handle, c int) {
	if c < 0 {
		panic("maxflow: negative capacity")
	}
	nw.base[h] = int32(c)
	nw.base[h^1] = 0
	nw.resetEdge(h)
}

// SetBaseCapUndirected sets the base capacity of an undirected link created
// with AddUndirected and resets its flow.
func (nw *Network) SetBaseCapUndirected(h Handle, c int) {
	if c < 0 {
		panic("maxflow: negative capacity")
	}
	nw.base[h] = int32(c)
	nw.base[h^1] = int32(c)
	nw.resetEdge(h)
}

// SetEnabled switches the edge on or off and resets its flow. Use ResetFlow
// before re-solving from scratch, or DisableIncremental/EnableIncremental
// to repair the current flow instead.
func (nw *Network) SetEnabled(h Handle, on bool) {
	nw.enabled[h/2] = on
	nw.resetEdge(h)
}

// Enabled reports whether the edge is on.
func (nw *Network) Enabled(h Handle) bool { return nw.enabled[h/2] }

func (nw *Network) resetEdge(h Handle) {
	if nw.enabled[h/2] {
		nw.arcs[h].cap = nw.base[h]
		nw.arcs[h^1].cap = nw.base[h^1]
	} else {
		nw.arcs[h].cap = 0
		nw.arcs[h^1].cap = 0
	}
}

// ResetFlow discards all flow: every enabled edge's residual capacities are
// restored to base, every disabled edge's to zero.
func (nw *Network) ResetFlow() {
	for h := Handle(0); int(h) < len(nw.arcs); h += 2 {
		nw.resetEdge(h)
	}
}

// FlowOn returns the net flow through the edge in its forward direction
// (negative if the net flow runs backward through an undirected link).
func (nw *Network) FlowOn(h Handle) int {
	if !nw.enabled[h/2] {
		return 0
	}
	return int(nw.base[h] - nw.arcs[h].cap)
}

// Clone returns an independent copy (Stats reset).
func (nw *Network) Clone() *Network {
	c := &Network{
		n:       nw.n,
		arcs:    append([]arc(nil), nw.arcs...),
		base:    append([]int32(nil), nw.base...),
		enabled: append([]bool(nil), nw.enabled...),
		adj:     make([][]int32, len(nw.adj)),
	}
	for i, l := range nw.adj {
		c.adj[i] = append([]int32(nil), l...)
	}
	return c
}

const inf = math.MaxInt32

// growScratch sizes the Dinic/BFS scratch for the current node count.
func (nw *Network) growScratch() {
	if cap(nw.level) < nw.n {
		nw.level = make([]int32, nw.n)
		nw.iter = make([]int32, nw.n)
		nw.queue = make([]int32, 0, nw.n)
	}
	nw.level = nw.level[:nw.n]
}

// bfsLevel builds the level graph; returns false if t unreachable.
func (nw *Network) bfsLevel(s, t int32) bool {
	nw.Stats.BFSRuns++
	nw.growScratch()
	for i := range nw.level {
		nw.level[i] = -1
	}
	nw.queue = nw.queue[:0]
	nw.level[s] = 0
	nw.queue = append(nw.queue, s)
	for qi := 0; qi < len(nw.queue); qi++ {
		u := nw.queue[qi]
		for _, ai := range nw.adj[u] {
			a := nw.arcs[ai]
			if a.cap > 0 && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[u] + 1
				if a.to == t {
					return true
				}
				nw.queue = append(nw.queue, a.to)
			}
		}
	}
	return nw.level[t] >= 0
}

// dfsBlock sends up to up units from u toward t along the level graph.
func (nw *Network) dfsBlock(u, t int32, up int32) int32 {
	if u == t {
		return up
	}
	for ; nw.iter[u] < int32(len(nw.adj[u])); nw.iter[u]++ {
		ai := nw.adj[u][nw.iter[u]]
		a := &nw.arcs[ai]
		if a.cap > 0 && nw.level[a.to] == nw.level[u]+1 {
			d := nw.dfsBlock(a.to, t, min32(up, a.cap))
			if d > 0 {
				a.cap -= d
				nw.arcs[ai^1].cap += d
				return d
			}
		}
	}
	nw.level[u] = -1
	return 0
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// Augment pushes additional flow from s to t on top of the current flow
// state, stopping once `limit` additional units have been pushed (limit < 0
// means unbounded), and returns the amount pushed. Dinic's algorithm.
func (nw *Network) Augment(s, t int32, limit int) int {
	if s == t {
		panic("maxflow: source equals sink")
	}
	nw.Stats.MaxFlowCalls++
	lim := int32(inf)
	if limit >= 0 {
		lim = int32(limit)
	}
	return int(nw.augment(s, t, lim))
}

// augment is Augment's Dinic loop without the call count, so a flow
// repair that runs it more than once still counts as one call.
func (nw *Network) augment(s, t int32, lim int32) int32 {
	var total int32
	for total < lim && nw.bfsLevel(s, t) {
		nw.iter = nw.iter[:nw.n]
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for total < lim {
			d := nw.dfsBlock(s, t, lim-total)
			if d == 0 {
				break
			}
			nw.Stats.AugmentingPaths++
			total += d
		}
	}
	nw.Stats.AugmentUnits += int64(total)
	return total
}

// MaxFlow resets all flow and computes the s→t max flow, stopping early at
// limit (limit < 0 = unbounded).
func (nw *Network) MaxFlow(s, t int32, limit int) int {
	nw.ResetFlow()
	return nw.Augment(s, t, limit)
}

// ResidualReachable returns the set of nodes reachable from s in the
// residual graph; after an (un-limited) max flow this is the source side of
// a minimum cut.
func (nw *Network) ResidualReachable(s int32) []bool {
	nw.markReachable(s)
	seen := make([]bool, nw.n)
	for v, l := range nw.level {
		seen[v] = l >= 0
	}
	return seen
}

// markReachable runs a residual BFS from s on the Dinic scratch: on
// return level[v] >= 0 exactly when v is reachable from s.
func (nw *Network) markReachable(s int32) {
	nw.growScratch()
	for i := range nw.level {
		nw.level[i] = -1
	}
	nw.level[s] = 0
	nw.queue = append(nw.queue[:0], s)
	for qi := 0; qi < len(nw.queue); qi++ {
		u := nw.queue[qi]
		for _, ai := range nw.adj[u] {
			a := nw.arcs[ai]
			if a.cap > 0 && nw.level[a.to] < 0 {
				nw.level[a.to] = 0
				nw.queue = append(nw.queue, a.to)
			}
		}
	}
}

// CutCrossing reports, as bit i for handles[i], the edges that cross the
// residual cut from the source side (nodes reachable from s) to the sink
// side; an arc direction counts only when its base capacity is nonzero,
// and disabled edges count too. Called right after an Augment that
// stopped short of its limit, the current flow is maximum, so the cut is
// a minimum cut: its live crossing arcs are saturated, and their base
// capacities, plus those of crossing arcs outside handles, sum to the
// flow value. A configuration that switches on no disabled edge whose
// bit is set therefore keeps the cut's capacity at or below that value,
// and can carry no more flow. It does not allocate once the network has
// solved a flow.
func (nw *Network) CutCrossing(s int32, handles []Handle) uint64 {
	nw.markReachable(s)
	var out uint64
	for i, h := range handles {
		u, v := nw.arcs[h^1].to, nw.arcs[h].to
		fwd := nw.base[h] > 0 && nw.level[u] >= 0 && nw.level[v] < 0
		rev := nw.base[h^1] > 0 && nw.level[v] >= 0 && nw.level[u] < 0
		if fwd || rev {
			out |= uint64(1) << uint(i)
		}
	}
	return out
}

// DisableIncremental switches the edge off while preserving a feasible flow:
// any flow currently crossing the edge is first rerouted through the
// residual graph or, where rerouting is impossible, returned along the
// source and sink sides (reducing the flow value). It returns the number of
// flow units lost. s and t are the terminals of the flow being maintained.
func (nw *Network) DisableIncremental(h Handle, s, t int32) int {
	if !nw.enabled[h/2] {
		return 0
	}
	f := int32(nw.FlowOn(h))
	var u, v int32 // orient so flow of |f| runs u→v through the edge
	if f >= 0 {
		u, v = nw.arcs[h^1].to, nw.arcs[h].to
	} else {
		f = -f
		u, v = nw.arcs[h].to, nw.arcs[h^1].to
	}
	var value int32
	if f != 0 {
		value = nw.netOut(s)
	}
	nw.enabled[h/2] = false
	nw.arcs[h].cap = 0
	nw.arcs[h^1].cap = 0
	if f == 0 {
		return 0
	}
	return nw.repair(u, v, f, s, t, value)
}

// repair restores conservation after f units of flow stopped crossing an
// edge u→v: u now has f units of excess and v an f-unit deficit. value is
// the s→t flow value before the edge lost its flow. It returns the units
// of flow value lost.
//
// The flow decomposes into value s→t paths plus cycles (some through s or
// t). A cycle unit through the edge always has a detour: the rest of its
// cycle, reversed in the residual graph. A path unit may have none; it is
// cancelled instead, its s⇝u prefix and v⇝t suffix reversed through a
// virtual s→t arc. So the repair reroutes first, as far as the residual
// graph allows, and sends only the remainder through a virtual arc of
// exactly that capacity. Both pushes succeed whenever value ≥ 0, and the
// loss is at most the path units through the edge, so the flow value
// never goes negative. A flow outside that precondition (a caller that
// pushed t→s) cannot always be repaired; it is reset to zero instead.
func (nw *Network) repair(u, v, f, s, t, value int32) int {
	nw.Stats.MaxFlowCalls++
	rest := f - nw.augment(u, v, f)
	if rest == 0 {
		return 0
	}
	vh := nw.addPair(s, t, rest, 0)
	pushed := nw.augment(u, v, rest)
	nw.removeLastPair(vh)
	if pushed != rest {
		nw.ResetFlow()
		return int(value)
	}
	return int(rest)
}

// netOut returns the net flow leaving s over the enabled edges.
func (nw *Network) netOut(s int32) int32 {
	var out int32
	for _, ai := range nw.adj[s] {
		if nw.enabled[ai/2] {
			out += nw.base[ai] - nw.arcs[ai].cap
		}
	}
	return out
}

// EnableIncremental switches the edge back on (carrying zero flow); the
// caller typically follows with Augment to exploit the new capacity.
func (nw *Network) EnableIncremental(h Handle) {
	if nw.enabled[h/2] {
		return
	}
	nw.enabled[h/2] = true
	nw.arcs[h].cap = nw.base[h]
	nw.arcs[h^1].cap = nw.base[h^1]
}

// SetBaseCapDirectedIncremental changes the base capacity of a directed
// arc while preserving a feasible s→t flow: growing the capacity keeps
// the current flow and widens the residual; shrinking it below the flow
// currently crossing the arc first reroutes the excess through the
// residual graph or, where rerouting is impossible, returns it along the
// source and sink sides (reducing the flow value, exactly like
// DisableIncremental). It returns the number of flow units lost. On a
// disabled edge it only records the new base capacity.
func (nw *Network) SetBaseCapDirectedIncremental(h Handle, c int, s, t int32) int {
	if c < 0 {
		panic("maxflow: negative capacity")
	}
	return nw.setBaseCapIncremental(h, int32(c), 0, s, t)
}

// SetBaseCapUndirectedIncremental is SetBaseCapDirectedIncremental for an
// undirected link created with AddUndirected.
func (nw *Network) SetBaseCapUndirectedIncremental(h Handle, c int, s, t int32) int {
	if c < 0 {
		panic("maxflow: negative capacity")
	}
	return nw.setBaseCapIncremental(h, int32(c), int32(c), s, t)
}

// setBaseCapIncremental installs new base capacities (fwd forward, rev
// backward), clamping the flow currently crossing the edge into the new
// window and repairing conservation for any excess as DisableIncremental
// does. Returns the flow units lost.
func (nw *Network) setBaseCapIncremental(h Handle, fwd, rev int32, s, t int32) int {
	if !nw.enabled[h/2] {
		nw.base[h], nw.base[h^1] = fwd, rev
		return 0
	}
	f := nw.base[h] - nw.arcs[h].cap // signed flow in the forward direction
	var value int32
	if f > fwd || -f > rev {
		value = nw.netOut(s)
	}
	nw.base[h], nw.base[h^1] = fwd, rev
	var excess, u, v int32 // excess runs u→v through the edge
	switch {
	case f > fwd:
		excess, u, v = f-fwd, nw.arcs[h^1].to, nw.arcs[h].to
		f = fwd
	case -f > rev:
		excess, u, v = -f-rev, nw.arcs[h].to, nw.arcs[h^1].to
		f = -rev
	}
	nw.arcs[h].cap = fwd - f
	nw.arcs[h^1].cap = rev + f
	if excess == 0 {
		return 0
	}
	return nw.repair(u, v, excess, s, t, value)
}

// RetargetIncremental transitions the enabled states of the edges in
// handles from the configuration `prev` (bit i set = handles[i] enabled)
// to `target`, preserving a feasible s→t flow of the given value across
// the change, and returns the flow value that survives. Edges leaving the
// configuration are removed with DisableIncremental (rerouting or
// returning their flow); edges entering come back carrying zero flow,
// ready for a follow-up Augment. When the configurations differ in more
// than half the edges — or there is no flow worth preserving — the repair
// work would rival a fresh solve, so it applies the states directly and
// resets all flow, returning 0.
func (nw *Network) RetargetIncremental(handles []Handle, prev, target uint64, s, t int32, value int) int {
	diff := prev ^ target
	if diff == 0 {
		return value
	}
	if value <= 0 || 2*bits.OnesCount64(diff) > len(handles) {
		for d := diff; d != 0; d &= d - 1 {
			i := bits.TrailingZeros64(d)
			nw.SetEnabled(handles[i], target&(1<<uint(i)) != 0)
		}
		nw.ResetFlow()
		return 0
	}
	for d := prev &^ target; d != 0; d &= d - 1 {
		value -= nw.DisableIncremental(handles[bits.TrailingZeros64(d)], s, t)
	}
	for e := target &^ prev; e != 0; e &= e - 1 {
		nw.EnableIncremental(handles[bits.TrailingZeros64(e)])
	}
	return value
}

// removeLastPair removes the most recently added arc pair (used for the
// virtual repair arc). h must be that pair's handle.
func (nw *Network) removeLastPair(h Handle) {
	if int(h) != len(nw.arcs)-2 {
		panic("maxflow: removeLastPair on non-last pair")
	}
	u := nw.arcs[h^1].to
	v := nw.arcs[h].to
	nw.arcs = nw.arcs[:h]
	nw.base = nw.base[:h]
	nw.enabled = nw.enabled[:h/2]
	nw.adj[u] = nw.adj[u][:len(nw.adj[u])-1]
	nw.adj[v] = nw.adj[v][:len(nw.adj[v])-1]
}

// CheckConservation verifies flow conservation at every node except s and t
// and that no residual capacity is negative; it returns the flow value (net
// out of s). For tests.
func (nw *Network) CheckConservation(s, t int32) (int, error) {
	net := make([]int32, nw.n)
	for h := Handle(0); int(h) < len(nw.arcs); h += 2 {
		if nw.arcs[h].cap < 0 || nw.arcs[h^1].cap < 0 {
			return 0, fmt.Errorf("maxflow: negative residual on pair %d", h)
		}
		if !nw.enabled[h/2] {
			if nw.arcs[h].cap != 0 || nw.arcs[h^1].cap != 0 {
				return 0, fmt.Errorf("maxflow: disabled pair %d has residual capacity", h)
			}
			continue
		}
		if got, want := nw.arcs[h].cap+nw.arcs[h^1].cap, nw.base[h]+nw.base[h^1]; got != want {
			return 0, fmt.Errorf("maxflow: pair %d residual sum %d, want %d", h, got, want)
		}
		f := nw.base[h] - nw.arcs[h].cap
		u := nw.arcs[h^1].to
		v := nw.arcs[h].to
		net[u] -= f
		net[v] += f
	}
	for i, x := range net {
		if int32(i) != s && int32(i) != t && x != 0 {
			return 0, fmt.Errorf("maxflow: conservation violated at node %d (net %d)", i, x)
		}
	}
	if net[s] != -net[t] {
		return 0, fmt.Errorf("maxflow: source/sink imbalance: %d vs %d", net[s], net[t])
	}
	return int(-net[s]), nil
}

// FromGraph builds a network with one directed arc per graph link and
// returns the per-link handles (indexed by graph.EdgeID).
func FromGraph(g *graph.Graph) (*Network, []Handle) {
	nw := New(g.NumNodes())
	handles := make([]Handle, g.NumEdges())
	for _, e := range g.Edges() {
		handles[e.ID] = nw.AddDirected(int32(e.U), int32(e.V), e.Cap)
	}
	return nw, handles
}
