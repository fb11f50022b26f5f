// Package graph defines the capacitated probabilistic multigraph model used
// throughout flowrel.
//
// A Graph is a directed multigraph: each link e = (U → V) carries a
// capacity c(e) ∈ ℕ (the number of unit-bit-rate sub-streams it can
// transport from U to V) and an independent failure probability
// p(e) ∈ [0, 1). This matches the model of Fujita (IPDPSW 2017): "each
// link e can carry a stream of bit rate c(e) while it is out of use with
// probability p(e)" — with delivery directed from the media source toward
// the subscriber, as in P2P streaming overlays. Directedness is also what
// makes the paper's bottleneck decomposition exact: every unit of an s→t
// flow crosses a bottleneck link set in the forward direction, so the
// per-link loads are the non-negative assignments of §III-B. A full-duplex
// connection is modelled as two anti-parallel links with independent
// failures. Parallel links and arbitrary node labels are supported.
package graph

import (
	"errors"
	"fmt"

	"flowrel/internal/bitset"
)

// NodeID identifies a node; node IDs are dense indices [0, NumNodes).
type NodeID int32

// EdgeID identifies a link; edge IDs are dense indices [0, NumEdges).
type EdgeID int32

// Edge is one directed link U → V of the network.
type Edge struct {
	ID    EdgeID
	U, V  NodeID  // tail and head: the link carries flow from U to V
	Cap   int     // capacity in sub-stream units, ≥ 0
	PFail float64 // independent failure probability, in [0, 1)
}

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint of e.
func (e Edge) Other(n NodeID) NodeID {
	switch n {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d (%d-%d)", n, e.ID, e.U, e.V))
}

// Graph is an immutable-after-build directed capacitated multigraph.
// Build one with a Builder; the zero value is an empty graph.
type Graph struct {
	edges []Edge
	adj   [][]EdgeID // incident (in- and out-) edge lists per node
	names []string   // optional node names ("" if unnamed)
}

// Builder incrementally constructs a Graph.
type Builder struct {
	g       Graph
	nameIdx map[string]NodeID
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{nameIdx: make(map[string]NodeID)}
}

// AddNode appends a new unnamed node and returns its ID.
func (b *Builder) AddNode() NodeID {
	return b.AddNamedNode("")
}

// AddNamedNode appends a new node with the given name and returns its ID.
// Non-empty names must be unique; a duplicate records an error surfaced by
// Build.
func (b *Builder) AddNamedNode(name string) NodeID {
	id := NodeID(len(b.g.adj))
	b.g.adj = append(b.g.adj, nil)
	b.g.names = append(b.g.names, name)
	if name != "" {
		if _, dup := b.nameIdx[name]; dup && b.err == nil {
			b.err = fmt.Errorf("graph: duplicate node name %q", name)
		}
		b.nameIdx[name] = id
	}
	return id
}

// AddNodes appends n unnamed nodes and returns the ID of the first.
func (b *Builder) AddNodes(n int) NodeID {
	first := NodeID(len(b.g.adj))
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	return first
}

// Node returns the ID of the node with the given name.
func (b *Builder) Node(name string) (NodeID, bool) {
	id, ok := b.nameIdx[name]
	return id, ok
}

// AddEdge appends a directed link u → v with the given capacity and
// failure probability and returns its ID. Invalid arguments record an
// error surfaced by Build.
func (b *Builder) AddEdge(u, v NodeID, cap int, pFail float64) EdgeID {
	id := EdgeID(len(b.g.edges))
	if u < 0 || int(u) >= len(b.g.adj) || v < 0 || int(v) >= len(b.g.adj) {
		if b.err == nil {
			b.err = fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range [0,%d)", id, u, v, len(b.g.adj))
		}
		return id
	}
	if b.err == nil {
		switch {
		case u == v:
			b.err = fmt.Errorf("graph: edge %d is a self-loop at node %d", id, u)
		case cap < 0:
			b.err = fmt.Errorf("graph: edge %d has negative capacity %d", id, cap)
		case pFail < 0 || pFail >= 1:
			b.err = fmt.Errorf("graph: edge %d has failure probability %g outside [0,1)", id, pFail)
		}
	}
	b.g.edges = append(b.g.edges, Edge{ID: id, U: u, V: v, Cap: cap, PFail: pFail})
	b.g.adj[u] = append(b.g.adj[u], id)
	b.g.adj[v] = append(b.g.adj[v], id)
	return id
}

// Build returns a deep copy of the graph built so far, or the first
// construction error. The Builder remains usable afterwards; graphs
// returned earlier are unaffected by later additions.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.g.Clone(), nil
}

// MustBuild is Build that panics on error; for tests and literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of links.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the link with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns all links. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Incident returns the IDs of links incident to n, both incoming and
// outgoing. The returned slice must not be modified.
func (g *Graph) Incident(n NodeID) []EdgeID { return g.adj[n] }

// Out returns the IDs of links leaving n (n is the tail).
func (g *Graph) Out(n NodeID) []EdgeID {
	var out []EdgeID
	for _, eid := range g.adj[n] {
		if g.edges[eid].U == n {
			out = append(out, eid)
		}
	}
	return out
}

// In returns the IDs of links entering n (n is the head).
func (g *Graph) In(n NodeID) []EdgeID {
	var in []EdgeID
	for _, eid := range g.adj[n] {
		if g.edges[eid].V == n {
			in = append(in, eid)
		}
	}
	return in
}

// NodeName returns the name of node n ("" if unnamed).
func (g *Graph) NodeName(n NodeID) string { return g.names[n] }

// NodeByName returns the node with the given non-empty name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	if name == "" {
		return 0, false
	}
	for i, nm := range g.names {
		if nm == name {
			return NodeID(i), true
		}
	}
	return 0, false
}

// TotalCapacity returns the sum of all link capacities.
func (g *Graph) TotalCapacity() int {
	tot := 0
	for _, e := range g.edges {
		tot += e.Cap
	}
	return tot
}

// ErrNodeOutOfRange reports a node ID outside [0, NumNodes).
var ErrNodeOutOfRange = errors.New("graph: node out of range")

// CheckNode validates that n is a node of g.
func (g *Graph) CheckNode(n NodeID) error {
	if n < 0 || int(n) >= len(g.adj) {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrNodeOutOfRange, n, len(g.adj))
	}
	return nil
}

// Reaches reports whether t is reachable from s along directed links for
// which alive.Test(edgeID) is true. A nil alive means all links are alive.
func (g *Graph) Reaches(s, t NodeID, alive *bitset.Set) bool {
	if s == t {
		return true
	}
	seen := make([]bool, len(g.adj))
	stack := []NodeID{s}
	seen[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.adj[u] {
			if g.edges[eid].U != u {
				continue // incoming link; not traversable forward
			}
			if alive != nil && !alive.Test(int(eid)) {
				continue
			}
			v := g.edges[eid].V
			if seen[v] {
				continue
			}
			if v == t {
				return true
			}
			seen[v] = true
			stack = append(stack, v)
		}
	}
	return false
}

// WeakComponents returns, for every node, the index of its weakly
// connected component (link direction ignored) when only links with
// alive.Test(edgeID) true are present (nil alive means all links), along
// with the number of components. Component indices are assigned in
// increasing order of their lowest-numbered node.
func (g *Graph) WeakComponents(alive *bitset.Set) (comp []int, count int) {
	comp = make([]int, len(g.adj))
	for i := range comp {
		comp[i] = -1
	}
	var stack []NodeID
	for start := range g.adj {
		if comp[start] != -1 {
			continue
		}
		comp[start] = count
		stack = append(stack[:0], NodeID(start))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, eid := range g.adj[u] {
				if alive != nil && !alive.Test(int(eid)) {
					continue
				}
				v := g.edges[eid].Other(u)
				if comp[v] == -1 {
					comp[v] = count
					stack = append(stack, v)
				}
			}
		}
		count++
	}
	return comp, count
}

// Subgraph describes one side of a bottleneck split: an induced standalone
// graph plus the mappings back to the parent.
type Subgraph struct {
	G *Graph
	// NodeOf maps parent node → subgraph node (-1 if absent).
	NodeOf []NodeID
	// ParentNode maps subgraph node → parent node.
	ParentNode []NodeID
	// ParentEdge maps subgraph edge → parent edge.
	ParentEdge []EdgeID
}

// HasNode reports whether parent node n is inside the subgraph.
func (sg *Subgraph) HasNode(n NodeID) bool {
	return int(n) < len(sg.NodeOf) && sg.NodeOf[n] >= 0
}

// Induced returns the subgraph induced by the nodes for which inside[n] is
// true, keeping every link whose two endpoints are inside. Nodes and
// links keep their parent order, so the result equals what a Builder
// adding them in that order would build; it is built in place instead,
// every slice sized exactly and the adjacency rows cut from one array.
func (g *Graph) Induced(inside []bool) *Subgraph {
	if len(inside) != len(g.adj) {
		panic("graph: Induced membership slice has wrong length")
	}
	nodes, links := 0, 0
	for _, in := range inside {
		if in {
			nodes++
		}
	}
	for _, e := range g.edges {
		if inside[e.U] && inside[e.V] {
			links++
		}
	}
	sg := &Subgraph{NodeOf: make([]NodeID, len(g.adj))}
	sub := &Graph{adj: make([][]EdgeID, nodes)}
	if nodes > 0 {
		sg.ParentNode = make([]NodeID, 0, nodes)
		sub.names = make([]string, 0, nodes)
	}
	if links > 0 {
		sg.ParentEdge = make([]EdgeID, 0, links)
		sub.edges = make([]Edge, 0, links)
	}
	rows := make([]EdgeID, 2*links)
	for i, in := range inside {
		if !in {
			sg.NodeOf[i] = -1
			continue
		}
		n := NodeID(len(sg.ParentNode))
		sg.NodeOf[i] = n
		sg.ParentNode = append(sg.ParentNode, NodeID(i))
		sub.names = append(sub.names, g.names[i])
		deg := 0
		for _, eid := range g.adj[i] {
			if e := g.edges[eid]; inside[e.U] && inside[e.V] {
				deg++
			}
		}
		if deg > 0 {
			sub.adj[n], rows = rows[:0:deg], rows[deg:]
		}
	}
	for _, e := range g.edges {
		if inside[e.U] && inside[e.V] {
			id, u, v := EdgeID(len(sub.edges)), sg.NodeOf[e.U], sg.NodeOf[e.V]
			sub.edges = append(sub.edges, Edge{ID: id, U: u, V: v, Cap: e.Cap, PFail: e.PFail})
			sub.adj[u] = append(sub.adj[u], id)
			sub.adj[v] = append(sub.adj[v], id)
			sg.ParentEdge = append(sg.ParentEdge, e.ID)
		}
	}
	sg.G = sub
	return sg
}

// WithCapacity returns a copy of g with link e's capacity set to c. Only
// the edge slice is copied; the adjacency lists and node names — which a
// capacity change cannot affect — are shared with g (both graphs are
// immutable after build, so sharing is safe). The capacity must be valid
// per the Builder's AddEdge rules.
func (g *Graph) WithCapacity(e EdgeID, c int) (*Graph, error) {
	if e < 0 || int(e) >= len(g.edges) {
		return nil, fmt.Errorf("graph: edge %d out of range [0,%d)", e, len(g.edges))
	}
	if c < 0 {
		return nil, fmt.Errorf("graph: edge %d has negative capacity %d", e, c)
	}
	edges := append([]Edge(nil), g.edges...)
	edges[e].Cap = c
	return &Graph{edges: edges, adj: g.adj, names: g.names}, nil
}

// WithEdgeAdded returns a copy of g with one new link u → v appended
// under the next dense ID. Validation matches the Builder's AddEdge
// rules. Only the edge slice, the outer adjacency slice and the two
// endpoint rows are copied; every other adjacency row and the node
// names are shared with g (both graphs are immutable after build, so
// sharing is safe).
func (g *Graph) WithEdgeAdded(u, v NodeID, c int, pFail float64) (*Graph, error) {
	id := EdgeID(len(g.edges))
	if u < 0 || int(u) >= len(g.adj) || v < 0 || int(v) >= len(g.adj) {
		return nil, fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range [0,%d)", id, u, v, len(g.adj))
	}
	switch {
	case u == v:
		return nil, fmt.Errorf("graph: edge %d is a self-loop at node %d", id, u)
	case c < 0:
		return nil, fmt.Errorf("graph: edge %d has negative capacity %d", id, c)
	case pFail < 0 || pFail >= 1:
		return nil, fmt.Errorf("graph: edge %d has failure probability %g outside [0,1)", id, pFail)
	}
	edges := make([]Edge, len(g.edges)+1)
	copy(edges, g.edges)
	edges[id] = Edge{ID: id, U: u, V: v, Cap: c, PFail: pFail}
	adj := append([][]EdgeID(nil), g.adj...)
	adj[u] = append(append(make([]EdgeID, 0, len(g.adj[u])+1), g.adj[u]...), id)
	adj[v] = append(append(make([]EdgeID, 0, len(g.adj[v])+1), g.adj[v]...), id)
	return &Graph{edges: edges, adj: adj, names: g.names}, nil
}

// WithEdgeRemoved returns a copy of g without link e. Links with IDs
// above e shift down by one so IDs stay dense — the same renumbering a
// Builder rebuild would produce. The adjacency lists are rebuilt (the
// shift touches nearly every row); node names are shared with g.
func (g *Graph) WithEdgeRemoved(e EdgeID) (*Graph, error) {
	if e < 0 || int(e) >= len(g.edges) {
		return nil, fmt.Errorf("graph: edge %d out of range [0,%d)", e, len(g.edges))
	}
	edges := make([]Edge, 0, len(g.edges)-1)
	for _, x := range g.edges {
		if x.ID == e {
			continue
		}
		if x.ID > e {
			x.ID--
		}
		edges = append(edges, x)
	}
	adj := make([][]EdgeID, len(g.adj))
	for _, x := range edges {
		adj[x.U] = append(adj[x.U], x.ID)
		adj[x.V] = append(adj[x.V], x.ID)
	}
	return &Graph{edges: edges, adj: adj, names: g.names}, nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		edges: append([]Edge(nil), g.edges...),
		adj:   make([][]EdgeID, len(g.adj)),
		names: append([]string(nil), g.names...),
	}
	for i, l := range g.adj {
		c.adj[i] = append([]EdgeID(nil), l...)
	}
	return c
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d nodes, %d links, total cap %d}", g.NumNodes(), g.NumEdges(), g.TotalCapacity())
}
