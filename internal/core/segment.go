package core

import (
	"flowrel/internal/assign"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// A chain segment (internal/chain) lies between two cuts: flow enters at
// the heads of the cut before it and leaves at the tails of the cut after
// it. Whether a configuration of its links carries an incoming assignment
// a to an outgoing assignment b is the same monotone max-flow question a
// plan side asks of one assignment, so the word walk decides it: the
// segment network has a super source with an arc of capacity aᵢ into
// head i and a super sink with an arc of capacity bⱼ from tail j, and
// there is one row per pair (a, b). The chain's end segments are
// segments too, with the one assignment (d) of the terminal.

// Segment is one chain segment's realization relation as the word walk
// decided it: the rows of the pairs (a, b), row a·|out| + b, each with
// one bit per configuration of the segment's links.
type Segment struct {
	rows  []uint64
	words uint64
	out   int
}

// BuildSegment walks segment sub for every pair of an in-assignment (a
// load per head) and an out-assignment (a load per tail), each moving
// demand d. It reads only opt.Ctl and opt.TestHook, charges the Ctl one
// configuration per (pair, configuration), as a plan side's walk does,
// and adds the walk's work to st. A stopped Ctl comes back as an error
// wrapping anytime.ErrInterrupted.
func BuildSegment(sub *graph.Subgraph, heads []graph.NodeID, in []assign.Assignment, tails []graph.NodeID, out []assign.Assignment, d int, opt *Options, st *Stats) (Segment, error) {
	rows, err := walkFrontier(newSegmentCtx(sub, heads, in, tails, out, d, opt), st)
	if err != nil {
		return Segment{}, err
	}
	words, _ := rowShape(sub.G.NumEdges())
	return Segment{rows: rows, words: words, out: len(out)}, nil
}

// Relation returns the out-assignments (a bit mask over out) to which
// configuration mask carries in-assignment a.
func (s Segment) Relation(a int, mask uint64) uint64 {
	block := uint64(s.out) * s.words
	return realizedAt(s.rows[uint64(a)*block:], s.words, s.out, mask)
}

// newSegmentCtx builds the walk context for one segment: one row per pair
// (a, b) of in × out, row a·|out| + b, whose loads are a on the head arcs
// and b on the tail arcs.
func newSegmentCtx(sub *graph.Subgraph, heads []graph.NodeID, in []assign.Assignment, tails []graph.NodeID, out []assign.Assignment, d int, opt *Options) *frontierCtx {
	f := &frontierCtx{d: d, opt: opt, caps: linkCaps(sub)}
	f.proto, f.handles, f.demandArcs, f.src, f.dst = segmentProto(sub, heads, tails)
	for _, a := range in {
		for _, b := range out {
			f.loads = append(f.loads, append(append(make([]int, 0, len(a)+len(b)), a...), b...))
			f.need = append(f.need, crossNeed(d, heads, a, tails, b))
		}
	}
	return f
}

// segmentProto builds the prototype network of one segment: its links,
// then a super source with one arc into each head and a super sink with
// one arc from each tail, those arcs' handles in that order. The walk and
// the dense walk the tests hold it to solve on it alike.
func segmentProto(sub *graph.Subgraph, heads, tails []graph.NodeID) (proto *maxflow.Network, handles, demandArcs []maxflow.Handle, src, dst int32) {
	proto = maxflow.New(sub.G.NumNodes())
	src, dst = proto.AddNode(), proto.AddNode()
	handles = make([]maxflow.Handle, sub.G.NumEdges())
	for _, e := range sub.G.Edges() {
		handles[e.ID] = proto.AddDirected(int32(e.U), int32(e.V), e.Cap)
	}
	for _, y := range heads {
		demandArcs = append(demandArcs, proto.AddDirected(src, int32(y), 0))
	}
	for _, x := range tails {
		demandArcs = append(demandArcs, proto.AddDirected(int32(x), dst, 0))
	}
	return proto, handles, demandArcs, src, dst
}
