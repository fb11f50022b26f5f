// Package mincut finds and enumerates minimal s–t disconnecting link sets
// and selects α-bottleneck links (§III-A of the paper): a minimal s–t cut
// E' of constant size whose removal leaves exactly two connected
// components, each containing at most α|E| links.
package mincut

import (
	"fmt"
	"slices"
	"sort"

	"flowrel/internal/bitset"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// Cardinality returns the minimum number of links whose removal disconnects
// s from t (0 if they are already disconnected), via unit-capacity max
// flow.
func Cardinality(g *graph.Graph, s, t graph.NodeID) int {
	nw := maxflow.New(g.NumNodes())
	for _, e := range g.Edges() {
		nw.AddDirected(int32(e.U), int32(e.V), 1)
	}
	return nw.MaxFlow(int32(s), int32(t), -1)
}

// IsCut reports whether removing the links disconnects s from t.
func IsCut(g *graph.Graph, s, t graph.NodeID, cut []graph.EdgeID) bool {
	alive := bitset.New(g.NumEdges())
	alive.SetAll()
	for _, e := range cut {
		alive.Clear(int(e))
	}
	return !g.Reaches(s, t, alive)
}

// IsMinimalCut reports whether cut is an s–t cut none of whose proper
// subsets is one (equivalently: every link of the cut, restored alone,
// reconnects s and t). Out-of-range nodes or links make it false.
func IsMinimalCut(g *graph.Graph, s, t graph.NodeID, cut []graph.EdgeID) bool {
	if checkTerminals(g, s, t) != nil || checkLinks(g, cut) != nil {
		return false
	}
	return newSearch(g, s, t).isMinimal(cut)
}

// EnumerateMinimal returns every minimal s–t cut with at most maxSize
// links, as sorted edge-ID slices ordered by size, then lexicographically.
// It branches on the links of an s–t path (every cut must hit every path),
// so the work is output-sensitive rather than Θ(|E| choose maxSize). It
// returns nil when s or t is not a node of g.
func EnumerateMinimal(g *graph.Graph, s, t graph.NodeID, maxSize int) [][]graph.EdgeID {
	if checkTerminals(g, s, t) != nil {
		return nil
	}
	return newSearch(g, s, t).enumerate(maxSize)
}

// Bridges returns the IDs of all links e whose sole removal makes e.V
// unreachable from e.U — the directed analogue of a bridge. Such links are
// single-link bottleneck candidates for any demand routed across them.
func Bridges(g *graph.Graph) []graph.EdgeID {
	var bridges []graph.EdgeID
	for _, e := range g.Edges() {
		if IsCut(g, e.U, e.V, []graph.EdgeID{e.ID}) {
			bridges = append(bridges, e.ID)
		}
	}
	sort.Slice(bridges, func(i, j int) bool { return bridges[i] < bridges[j] })
	return bridges
}

// Bottleneck is a validated α-bottleneck split of a graph.
type Bottleneck struct {
	Cut   []graph.EdgeID // the bottleneck links e₁,…,e_k (sorted)
	Gs    *graph.Subgraph
	Gt    *graph.Subgraph
	XS    []graph.NodeID // per cut link: its endpoint inside Gs.G (sub ID)
	YT    []graph.NodeID // per cut link: its endpoint inside Gt.G (sub ID)
	Alpha float64        // max(|E_s|, |E_t|) / |E|
}

// K returns the number of bottleneck links.
func (b *Bottleneck) K() int { return len(b.Cut) }

// Split validates that cut is a minimal s–t cut splitting g into exactly
// two components and returns the bottleneck structure (side containing s
// first). Out-of-range nodes or links and repeated links are errors.
func Split(g *graph.Graph, s, t graph.NodeID, cut []graph.EdgeID) (*Bottleneck, error) {
	if len(cut) == 0 {
		return nil, fmt.Errorf("mincut: empty cut")
	}
	if err := checkTerminals(g, s, t); err != nil {
		return nil, err
	}
	if err := checkLinks(g, cut); err != nil {
		return nil, err
	}
	sorted := append([]graph.EdgeID(nil), cut...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("mincut: duplicate link %d in cut", sorted[i])
		}
	}
	sc := newSearch(g, s, t)
	if !sc.isMinimal(sorted) {
		return nil, fmt.Errorf("mincut: %v is not a minimal s–t cut", sorted)
	}
	return sc.split(sorted)
}

// Find searches for the α-bottleneck split with the smallest maximum side
// (ties: fewer bottleneck links, then lexicographically smallest cut),
// among all minimal s–t cuts of at most maxSize links. It returns an error
// if no such cut exists. Candidates are scored on g itself; only the
// winner's two sides are built.
func Find(g *graph.Graph, s, t graph.NodeID, maxSize int) (*Bottleneck, error) {
	if maxSize < 1 {
		return nil, fmt.Errorf("mincut: maxSize %d must be ≥ 1", maxSize)
	}
	if err := checkTerminals(g, s, t); err != nil {
		return nil, err
	}
	sc := newSearch(g, s, t)
	var best []graph.EdgeID
	var bestAlpha float64
	// The enumeration comes in (size, lexicographic) order, so keeping
	// the first of equal α is the tie-break.
	for _, cut := range sc.enumerate(maxSize) {
		ms, mt, f := sc.label(cut)
		if f.check != splits {
			continue // e.g. s and t joined through a backward link
		}
		if a := alpha(ms, mt, g.NumEdges()); best == nil || a < bestAlpha {
			best, bestAlpha = cut, a
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mincut: no minimal s–t cut with at most %d links", maxSize)
	}
	return sc.split(append([]graph.EdgeID(nil), best...))
}

// alpha is max(ms, mt)/m, or 0 on a linkless graph.
func alpha(ms, mt, m int) float64 {
	if m == 0 {
		return 0
	}
	return float64(max(ms, mt)) / float64(m)
}

func checkTerminals(g *graph.Graph, s, t graph.NodeID) error {
	if err := g.CheckNode(s); err != nil {
		return fmt.Errorf("mincut: source: %w", err)
	}
	if err := g.CheckNode(t); err != nil {
		return fmt.Errorf("mincut: sink: %w", err)
	}
	return nil
}

func checkLinks(g *graph.Graph, cut []graph.EdgeID) error {
	for _, e := range cut {
		if e < 0 || int(e) >= g.NumEdges() {
			return fmt.Errorf("mincut: cut link %d out of range [0,%d)", e, g.NumEdges())
		}
	}
	return nil
}

// compareCuts orders cuts by size, then lexicographically.
func compareCuts(a, b []graph.EdgeID) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return slices.Compare(a, b)
}

// arc is one end of a link in a search's adjacency: the link and the
// node at its other end.
type arc struct {
	link graph.EdgeID
	node graph.NodeID
}

// search is the scratch of one cut search on one graph and terminal pair.
// Node u's out-arcs are out[outAt[u]:outAt[u+1]] and its in-arcs
// in[inAt[u]:inAt[u+1]], each in g's incidence order. Every search skips
// the links marked dead.
type search struct {
	g          *graph.Graph
	s, t       graph.NodeID
	outAt      []int32
	inAt       []int32
	out, in    []arc
	dead       []bool         // per link: removed (the branch's links, or the cut under test)
	fwd, bwd   []bool         // per node: reached from s / reaches t
	via        []graph.EdgeID // per node: the link a path search entered it by
	comp       []int32        // per node: weak component of G − cut
	queue      []graph.NodeID
	keep       []bool           // per link: excluded from branching (enumerate)
	removed    []graph.EdgeID   // the branch's links, in branching order
	paths      [][]graph.EdgeID // per branching depth: that level's path
	flat       []graph.EdgeID   // backing store of the minimal cuts found
	cuts       [][]graph.EdgeID
	maxRemoved int
}

func newSearch(g *graph.Graph, s, t graph.NodeID) *search {
	n, m := g.NumNodes(), g.NumEdges()
	sc := &search{
		g: g, s: s, t: t,
		outAt: make([]int32, n+1),
		inAt:  make([]int32, n+1),
		out:   make([]arc, 0, m),
		in:    make([]arc, 0, m),
		dead:  make([]bool, m),
		fwd:   make([]bool, n),
		bwd:   make([]bool, n),
		via:   make([]graph.EdgeID, n),
		comp:  make([]int32, n),
		queue: make([]graph.NodeID, 0, n),
	}
	for u := range n {
		for _, id := range g.Incident(graph.NodeID(u)) {
			switch e := g.Edge(id); graph.NodeID(u) {
			case e.U:
				sc.out = append(sc.out, arc{id, e.V})
			case e.V:
				sc.in = append(sc.in, arc{id, e.U})
			}
		}
		sc.outAt[u+1] = int32(len(sc.out))
		sc.inAt[u+1] = int32(len(sc.in))
	}
	return sc
}

// reach marks in mark every node reachable from src along live arcs of
// the given adjacency (out-arcs search forward, in-arcs backward),
// breadth-first, and records in sc.via the link each node was reached
// by. It stops as soon as it marks stop and reports whether it did.
func (sc *search) reach(src, stop graph.NodeID, at []int32, arcs []arc, mark []bool) bool {
	clear(mark)
	mark[src] = true
	q := append(sc.queue[:0], src)
	found := false
	for qi := 0; qi < len(q) && !found; qi++ {
		u := q[qi]
		for _, a := range arcs[at[u]:at[u+1]] {
			if sc.dead[a.link] || mark[a.node] {
				continue
			}
			mark[a.node] = true
			sc.via[a.node] = a.link
			if found = a.node == stop; found {
				break
			}
			q = append(q, a.node)
		}
	}
	sc.queue = q
	return found
}

// findPath searches breadth-first from s over live links. If it reaches t
// it appends the links of that s–t path, from t back to s, to dst and
// reports true. Otherwise sc.fwd holds every node s reaches.
func (sc *search) findPath(dst []graph.EdgeID) ([]graph.EdgeID, bool) {
	if !sc.reach(sc.s, sc.t, sc.outAt, sc.out, sc.fwd) {
		return dst, false
	}
	for x := sc.t; x != sc.s; x = sc.g.Edge(sc.via[x]).U {
		dst = append(dst, sc.via[x])
	}
	return dst, true
}

// isMinimal reports whether cut is a minimal s–t cut. It takes two
// searches over G − cut, one from s and one back from t.
func (sc *search) isMinimal(cut []graph.EdgeID) bool {
	for _, e := range cut {
		sc.dead[e] = true
	}
	sc.reach(sc.s, sc.t, sc.outAt, sc.out, sc.fwd)
	ok := !sc.fwd[sc.t] && sc.restorable(cut)
	for _, e := range cut {
		sc.dead[e] = false
	}
	return ok
}

// restorable reports whether every link of cut, restored alone,
// reconnects s and t, given that the links of cut are dead, sc.fwd marks
// what s reaches and t is not among it. A restored link (u, v) opens an
// s–t path exactly when s reaches u and v reaches t in G − cut, since a
// simple path crosses the link once; so one backward search from t
// settles every link.
func (sc *search) restorable(cut []graph.EdgeID) bool {
	for _, e := range cut {
		if !sc.fwd[sc.g.Edge(e).U] {
			return false
		}
	}
	sc.reach(sc.t, -1, sc.inAt, sc.in, sc.bwd)
	for _, e := range cut {
		if !sc.bwd[sc.g.Edge(e).V] {
			return false
		}
	}
	return true
}

// enumerate returns every minimal s–t cut with at most maxSize links,
// sorted as EnumerateMinimal documents.
func (sc *search) enumerate(maxSize int) [][]graph.EdgeID {
	sc.cuts, sc.flat = nil, nil
	sc.keep = make([]bool, sc.g.NumEdges())
	sc.maxRemoved = min(maxSize, sc.g.NumEdges())
	sc.removed = make([]graph.EdgeID, 0, max(sc.maxRemoved, 0))
	sc.branch(0)
	slices.SortFunc(sc.cuts, compareCuts)
	return sc.cuts
}

// branch explores the link sets that extend sc.removed. An s–t path left
// in G − removed must lose one of its links, so each path link not yet
// kept is a child; a child also keeps the path links of the children
// before it. A minimal cut C ⊇ removed that avoids the kept links is then
// reached through the first of its links on the path, and no link set is
// reached twice, so each leaf is tested once.
func (sc *search) branch(depth int) {
	if depth == len(sc.paths) {
		sc.paths = append(sc.paths, nil)
	}
	path, found := sc.findPath(sc.paths[depth][:0])
	sc.paths[depth] = path
	if !found {
		if depth > 0 && sc.restorable(sc.removed) {
			start := len(sc.flat)
			sc.flat = append(sc.flat, sc.removed...)
			cut := sc.flat[start:len(sc.flat):len(sc.flat)]
			slices.Sort(cut)
			sc.cuts = append(sc.cuts, cut)
		}
		return
	}
	if depth >= sc.maxRemoved {
		return
	}
	cand := path[:0]
	for _, e := range path {
		if !sc.keep[e] {
			cand = append(cand, e)
		}
	}
	for _, e := range cand {
		sc.dead[e] = true
		sc.removed = append(sc.removed, e)
		sc.branch(depth + 1)
		sc.removed = sc.removed[:depth]
		sc.dead[e] = false
		sc.keep[e] = true
	}
	for _, e := range cand {
		sc.keep[e] = false
	}
}

// A fault says which of Split's checks G − C fails, with its detail n:
// the component count, or the offending cut link.
type fault struct {
	check int
	n     int
}

const (
	splits           = iota // every check holds
	notTwoComponents        // G − C has n components
	notSeparated            // s and t share a component
	backward                // cut link n runs from t's side to s's
	detached                // cut link n does not join the two sides
)

func (f fault) err(s, t graph.NodeID) error {
	switch f.check {
	case notTwoComponents:
		return fmt.Errorf("mincut: removing the cut yields %d connected components, want exactly 2", f.n)
	case notSeparated:
		return fmt.Errorf("mincut: cut does not separate nodes %d and %d", s, t)
	case backward:
		// A backward-oriented link can never carry s→t flow, so it cannot
		// belong to a minimal directed cut; rejected defensively.
		return fmt.Errorf("mincut: cut link %d is oriented from the sink side to the source side", f.n)
	case detached:
		return fmt.Errorf("mincut: cut link %d does not join the two components", f.n)
	}
	return nil
}

// label assigns every node its weak component of G − cut in sc.comp and
// runs Split's checks: exactly two components, s and t apart, and every
// cut link running from s's side to t's. When they hold it returns the
// link counts of the two induced sides.
func (sc *search) label(cut []graph.EdgeID) (ms, mt int, f fault) {
	for _, e := range cut {
		sc.dead[e] = true
	}
	for i := range sc.comp {
		sc.comp[i] = -1
	}
	var count int32
	var links [2]int // live links of the first two components, each counted at its tail
	for v := range sc.comp {
		if sc.comp[v] >= 0 {
			continue
		}
		sc.comp[v] = count
		stack := append(sc.queue[:0], graph.NodeID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range sc.out[sc.outAt[u]:sc.outAt[u+1]] {
				if sc.dead[a.link] {
					continue
				}
				if count < 2 {
					links[count]++
				}
				if sc.comp[a.node] < 0 {
					sc.comp[a.node] = count
					stack = append(stack, a.node)
				}
			}
			for _, a := range sc.in[sc.inAt[u]:sc.inAt[u+1]] {
				if !sc.dead[a.link] && sc.comp[a.node] < 0 {
					sc.comp[a.node] = count
					stack = append(stack, a.node)
				}
			}
		}
		sc.queue = stack
		count++
	}
	for _, e := range cut {
		sc.dead[e] = false
	}

	if count != 2 {
		return 0, 0, fault{notTwoComponents, int(count)}
	}
	cs := sc.comp[sc.s]
	if cs == sc.comp[sc.t] {
		return 0, 0, fault{check: notSeparated}
	}
	for _, id := range cut {
		e := sc.g.Edge(id)
		switch {
		case sc.comp[e.U] == cs && sc.comp[e.V] != cs:
		case sc.comp[e.V] == cs && sc.comp[e.U] != cs:
			return 0, 0, fault{backward, int(id)}
		default:
			return 0, 0, fault{detached, int(id)}
		}
	}
	return links[cs], links[1-cs], fault{}
}

// split labels G − cut and, if it splits as Split requires, builds the
// two sides. cut must be sorted and is kept as the Bottleneck's Cut.
func (sc *search) split(cut []graph.EdgeID) (*Bottleneck, error) {
	ms, mt, f := sc.label(cut)
	if f.check != splits {
		return nil, f.err(sc.s, sc.t)
	}
	inside := make([]bool, len(sc.comp))
	cs := sc.comp[sc.s]
	for v, c := range sc.comp {
		inside[v] = c == cs
	}
	gs := sc.g.Induced(inside)
	for v := range inside {
		inside[v] = !inside[v]
	}
	gt := sc.g.Induced(inside)
	b := &Bottleneck{
		Cut: cut, Gs: gs, Gt: gt,
		XS:    make([]graph.NodeID, len(cut)),
		YT:    make([]graph.NodeID, len(cut)),
		Alpha: alpha(ms, mt, sc.g.NumEdges()),
	}
	for i, id := range cut {
		e := sc.g.Edge(id)
		b.XS[i] = gs.NodeOf[e.U]
		b.YT[i] = gt.NodeOf[e.V]
	}
	return b, nil
}
