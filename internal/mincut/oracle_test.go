package mincut

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"flowrel/internal/bitset"
	"flowrel/internal/graph"
	"flowrel/internal/overlay"
)

// The reference cut search: path branching that tests every leaf it
// reaches (duplicates included) with 1 + k reachability searches, and a
// Find that builds both induced sides of every candidate through a
// Builder to score it. The production search must return the same cuts
// in the same order, the same minimality verdicts and the same
// Bottleneck.

func referenceIsMinimalCut(g *graph.Graph, s, t graph.NodeID, cut []graph.EdgeID) bool {
	alive := bitset.New(g.NumEdges())
	alive.SetAll()
	for _, e := range cut {
		alive.Clear(int(e))
	}
	if g.Reaches(s, t, alive) {
		return false
	}
	for _, e := range cut {
		alive.Set(int(e))
		reconnects := g.Reaches(s, t, alive)
		alive.Clear(int(e))
		if !reconnects {
			return false
		}
	}
	return true
}

func referenceEnumerateMinimal(g *graph.Graph, s, t graph.NodeID, maxSize int) [][]graph.EdgeID {
	alive := bitset.New(g.NumEdges())
	alive.SetAll()
	seen := make(map[string]bool)
	var out [][]graph.EdgeID
	var removed []graph.EdgeID

	var rec func()
	rec = func() {
		path := referenceFindPath(g, s, t, alive)
		if path == nil {
			if len(removed) == 0 {
				return // s and t are disconnected in g itself
			}
			cut := append([]graph.EdgeID(nil), removed...)
			sort.Slice(cut, func(i, j int) bool { return cut[i] < cut[j] })
			if !referenceIsMinimalCut(g, s, t, cut) {
				return
			}
			key := fmt.Sprint(cut)
			if !seen[key] {
				seen[key] = true
				out = append(out, cut)
			}
			return
		}
		if len(removed) >= maxSize {
			return
		}
		for _, e := range path {
			alive.Clear(int(e))
			removed = append(removed, e)
			rec()
			removed = removed[:len(removed)-1]
			alive.Set(int(e))
		}
	}
	rec()
	sort.Slice(out, func(i, j int) bool { return referenceLessCut(out[i], out[j]) })
	return out
}

func referenceLessCut(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func referenceFindPath(g *graph.Graph, s, t graph.NodeID, alive *bitset.Set) []graph.EdgeID {
	parent := make([]graph.EdgeID, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, g.NumNodes())
	visited[s] = true
	queue := []graph.NodeID{s}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, eid := range g.Incident(u) {
			e := g.Edge(eid)
			if e.U != u || !alive.Test(int(eid)) {
				continue
			}
			v := e.V
			if visited[v] {
				continue
			}
			visited[v] = true
			parent[v] = eid
			if v == t {
				var path []graph.EdgeID
				for x := t; x != s; {
					pe := parent[x]
					path = append(path, pe)
					x = g.Edge(pe).U
				}
				return path
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// referenceInduced builds a side through the public Builder, whose Build
// returns a deep copy.
func referenceInduced(g *graph.Graph, inside []bool) *graph.Subgraph {
	sg := &graph.Subgraph{NodeOf: make([]graph.NodeID, g.NumNodes())}
	b := graph.NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		if inside[i] {
			sg.NodeOf[i] = b.AddNamedNode(g.NodeName(graph.NodeID(i)))
			sg.ParentNode = append(sg.ParentNode, graph.NodeID(i))
		} else {
			sg.NodeOf[i] = -1
		}
	}
	for _, e := range g.Edges() {
		if inside[e.U] && inside[e.V] {
			b.AddEdge(sg.NodeOf[e.U], sg.NodeOf[e.V], e.Cap, e.PFail)
			sg.ParentEdge = append(sg.ParentEdge, e.ID)
		}
	}
	sg.G = b.MustBuild()
	return sg
}

func referenceSplitByCut(g *graph.Graph, s, t graph.NodeID, cut []graph.EdgeID) (gs, gt *graph.Subgraph, err error) {
	alive := bitset.New(g.NumEdges())
	alive.SetAll()
	for _, eid := range cut {
		alive.Clear(int(eid))
	}
	comp, count := g.WeakComponents(alive)
	if count != 2 {
		return nil, nil, fmt.Errorf("graph: removing the cut yields %d connected components, want exactly 2", count)
	}
	if comp[s] == comp[t] {
		return nil, nil, fmt.Errorf("graph: cut does not separate nodes %d and %d", s, t)
	}
	insideS := make([]bool, g.NumNodes())
	insideT := make([]bool, g.NumNodes())
	for n, c := range comp {
		if c == comp[s] {
			insideS[n] = true
		} else {
			insideT[n] = true
		}
	}
	return referenceInduced(g, insideS), referenceInduced(g, insideT), nil
}

// referenceSplit takes in-range links only: out of range, the reference
// panics.
func referenceSplit(g *graph.Graph, s, t graph.NodeID, cut []graph.EdgeID) (*Bottleneck, error) {
	if len(cut) == 0 {
		return nil, fmt.Errorf("mincut: empty cut")
	}
	sorted := append([]graph.EdgeID(nil), cut...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("mincut: duplicate link %d in cut", sorted[i])
		}
	}
	if !referenceIsMinimalCut(g, s, t, sorted) {
		return nil, fmt.Errorf("mincut: %v is not a minimal s–t cut", sorted)
	}
	gs, gt, err := referenceSplitByCut(g, s, t, sorted)
	if err != nil {
		return nil, err
	}
	b := &Bottleneck{
		Cut: sorted, Gs: gs, Gt: gt,
		XS: make([]graph.NodeID, len(sorted)),
		YT: make([]graph.NodeID, len(sorted)),
	}
	for i, eid := range sorted {
		e := g.Edge(eid)
		switch {
		case gs.HasNode(e.U) && gt.HasNode(e.V):
			b.XS[i] = gs.NodeOf[e.U]
			b.YT[i] = gt.NodeOf[e.V]
		case gs.HasNode(e.V) && gt.HasNode(e.U):
			return nil, fmt.Errorf("mincut: cut link %d is oriented from the sink side to the source side", eid)
		default:
			return nil, fmt.Errorf("mincut: cut link %d does not join the two components", eid)
		}
	}
	m := gs.G.NumEdges()
	if gt.G.NumEdges() > m {
		m = gt.G.NumEdges()
	}
	if g.NumEdges() > 0 {
		b.Alpha = float64(m) / float64(g.NumEdges())
	}
	return b, nil
}

func referenceFind(g *graph.Graph, s, t graph.NodeID, maxSize int) (*Bottleneck, error) {
	if maxSize < 1 {
		return nil, fmt.Errorf("mincut: maxSize %d must be ≥ 1", maxSize)
	}
	cuts := referenceEnumerateMinimal(g, s, t, maxSize)
	var best *Bottleneck
	for _, cut := range cuts {
		b, err := referenceSplit(g, s, t, cut)
		if err != nil {
			continue
		}
		if best == nil || referenceBetter(b, best) {
			best = b
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mincut: no minimal s–t cut with at most %d links", maxSize)
	}
	return best, nil
}

func referenceBetter(a, b *Bottleneck) bool {
	if a.Alpha != b.Alpha {
		return a.Alpha < b.Alpha
	}
	if len(a.Cut) != len(b.Cut) {
		return len(a.Cut) < len(b.Cut)
	}
	return referenceLessCut(a.Cut, b.Cut)
}

// TestFindMatchesReference runs the production and reference searches
// side by side on every testdata instance and on 10,000 clustered
// overlays drawn with the cold-compile benchmark stream's generator
// parameters, at maxSize 1–3.
func TestFindMatchesReference(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata instances (%v)", err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		file, err := graph.ParseText(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if file.Demand == nil {
			t.Fatalf("%s declares no demand", name)
		}
		for maxSize := 1; maxSize <= 3; maxSize++ {
			if msg := matchReference(file.Graph, file.Demand.S, file.Demand.T, maxSize, rng); msg != "" {
				t.Fatalf("%s, maxSize %d: %s", name, maxSize, msg)
			}
			if msg := matchReference(file.Graph, file.Demand.S, file.Demand.S, maxSize, rng); msg != "" {
				t.Fatalf("%s, maxSize %d, s = t: %s", name, maxSize, msg)
			}
		}
	}
	for i := 0; i < 10000; i++ {
		side := 6 + rng.Intn(5)
		o, err := overlay.Clustered(side, side+2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3), 0.1, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		dem := o.Demand(o.Peers[len(o.Peers)-1])
		for maxSize := 1; maxSize <= 3; maxSize++ {
			probe := rng
			if maxSize < 3 {
				probe = nil // maxSize 3 probes a superset of these cuts
			}
			if msg := matchReference(o.G, dem.S, dem.T, maxSize, probe); msg != "" {
				t.Fatalf("clustered draw %d, maxSize %d: %s", i, maxSize, msg)
			}
		}
	}
}

// FuzzFindMatchesReference decodes a digraph of at most 12 nodes and 30
// links (multi-links and anti-parallel pairs allowed), a terminal pair
// s ≠ t and a maxSize, and compares the production search with the
// reference. It also hands Split cuts with out-of-range and repeated
// links, which must be errors.
func FuzzFindMatchesReference(f *testing.F) {
	f.Add([]byte{6, 2, 0, 4, 0, 1, 0, 2, 1, 3, 2, 3, 3, 5, 5, 4, 3, 4})
	f.Add([]byte{5, 1, 0, 3, 0, 1, 1, 0, 1, 2, 2, 1, 2, 3, 3, 2})
	f.Add([]byte{4, 3, 0, 1, 0, 1, 0, 1, 0, 2, 2, 3, 3, 1})
	f.Add([]byte{3, 0, 2, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%11
		maxSize := 1 + int(data[1])%4
		s := graph.NodeID(int(data[2]) % n)
		tt := graph.NodeID((int(s) + 1 + int(data[3])%(n-1)) % n)
		b := graph.NewBuilder()
		b.AddNodes(n)
		seed := int64(len(data))
		for i, links := 4, 0; i+1 < len(data) && links < 30; i += 2 {
			seed = seed*31 + int64(data[i]) + int64(data[i+1])<<8
			u, v := graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n)
			if u != v {
				b.AddEdge(u, v, 1+int(data[i])%3, 0.1)
				links++
			}
		}
		g := b.MustBuild()
		if msg := matchReference(g, s, tt, maxSize, rand.New(rand.NewSource(seed))); msg != "" {
			t.Fatal(msg)
		}
		m := graph.EdgeID(g.NumEdges())
		bad := [][]graph.EdgeID{{m}, {-1}, {m + 5}}
		if m > 0 {
			bad = append(bad, []graph.EdgeID{0, 0}, []graph.EdgeID{m - 1, m + 5}, []graph.EdgeID{m - 1, -1, 0})
		}
		for _, cut := range bad {
			if _, err := Split(g, s, tt, cut); err == nil {
				t.Fatalf("Split accepted %v on %d links", cut, m)
			}
		}
	})
}

// matchReference compares the production search with the reference on
// one instance and returns what differs, or "". With a non-nil rng it
// also compares IsMinimalCut and Split on every enumerated cut, on a
// superset of each and on random link sets.
func matchReference(g *graph.Graph, s, t graph.NodeID, maxSize int, rng *rand.Rand) string {
	got, want := EnumerateMinimal(g, s, t, maxSize), referenceEnumerateMinimal(g, s, t, maxSize)
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("EnumerateMinimal = %v, reference %v", got, want)
	}

	m := g.NumEdges()
	var probes [][]graph.EdgeID
	if rng != nil && m > 0 {
		for _, c := range want {
			probes = append(probes, c, append(append([]graph.EdgeID(nil), c...), graph.EdgeID(rng.Intn(m))))
		}
		for i := 0; i < 8; i++ {
			c := make([]graph.EdgeID, 1+rng.Intn(3))
			for j := range c {
				c[j] = graph.EdgeID(rng.Intn(m))
			}
			probes = append(probes, c)
		}
	}
	for _, c := range probes {
		if got, want := IsMinimalCut(g, s, t, c), referenceIsMinimalCut(g, s, t, c); got != want {
			return fmt.Sprintf("IsMinimalCut(%v) = %v, reference %v", c, got, want)
		}
		gotB, gotErr := Split(g, s, t, c)
		wantB, wantErr := referenceSplit(g, s, t, c)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotB, wantB) {
			return fmt.Sprintf("Split(%v) = %+v, %v; reference %+v, %v", c, gotB, gotErr, wantB, wantErr)
		}
	}

	gotB, gotErr := Find(g, s, t, maxSize)
	wantB, wantErr := referenceFind(g, s, t, maxSize)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotB, wantB) {
		return fmt.Sprintf("Find = %+v, %v; reference %+v, %v", gotB, gotErr, wantB, wantErr)
	}
	return ""
}
