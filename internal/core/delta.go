package core

import (
	"math/bits"

	"flowrel/internal/graph"
	"flowrel/internal/mincut"
)

// Delta-compile support: MutatePlan (plan.go) patches a compiled plan
// after a single-link mutation instead of recompiling from scratch. The
// helpers here classify how much of the parent survives and rebuild the
// touched side's realization array; they never write Plan fields — all
// assembly stays in plan.go, where the planimmut analyzer allows it.
//
// Why the parent transfers at all:
//
//   - The cut search (mincut.Find) is capacity-blind, so a capacity
//     mutation provably keeps the parent's winning cut; for add/remove
//     the search re-runs and the parent survives exactly when the winner
//     is the parent's cut under the link-ID remap.
//   - With the cut and its capacities unchanged, the assignment family 𝒟
//     and the bottleneck-subset classes are identical; both are shared
//     pointer-wise (they are immutable after compile).
//   - A mutation on one side cannot change the other side's max flows:
//     that side's rows transfer verbatim.
//   - A link on no directed path between the side's terminals carries no
//     flow in any configuration, so a capacity change on it changes no
//     max flow: the touched side's rows transfer verbatim too.
//   - Otherwise feasibility is monotone in both the link set and the
//     link capacities, so the parent's rows bracket the new ones:
//     removing a link is a pure bit extraction (zero max-flow calls),
//     adding a link copies the parent's rows into the low half of each
//     row, and a capacity change re-solves only configurations
//     containing the changed link whose bit the parent cannot already
//     decide.
//
// Budget parity: a cold compile charges its Ctl exactly
// (2^{|E_s|} + 2^{|E_t|})·|𝒟| configurations — one per (assignment,
// configuration) pair, pruned or solved. The delta path charges the same
// totals (bulk for transferred regions, per word for walked ones), so an
// anytime budget buys the same configuration count either way; only the
// max-flow call count differs, which is the point.

// deltaMode selects the touched-side walk variant.
type deltaMode int

const (
	// deltaAdd: the mutated link is new; it is the side's top bit, and
	// the half of the array without it transfers verbatim.
	deltaAdd deltaMode = iota
	// deltaGrow: the mutated link's capacity did not shrink; realized
	// bits transfer, unrealized ones are re-decided.
	deltaGrow
	// deltaShrink: the capacity shrank; unrealized bits transfer,
	// realized ones are re-decided (closure hits excepted).
	deltaShrink
)

// remapCutLinks maps a parent-graph cut through the mutation's link
// remap. ok is false when a cut link was removed — the parent's cut no
// longer exists in the mutated graph.
func remapCutLinks(cut []graph.EdgeID, remap []graph.EdgeID) ([]graph.EdgeID, bool) {
	out := make([]graph.EdgeID, len(cut))
	for i, id := range cut {
		nid := remap[id]
		if nid < 0 {
			return nil, false
		}
		out[i] = nid
	}
	return out, true
}

// equalCuts compares two sorted cut link-ID lists.
func equalCuts(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cutContains reports whether the sorted cut holds the link.
func cutContains(cut []graph.EdgeID, link graph.EdgeID) bool {
	for _, id := range cut {
		if id == link {
			return true
		}
	}
	return false
}

// locateSideLink finds a parent-graph link in the parent plan's side
// tables, returning the side index and the link's side-bit position.
func locateSideLink(parent *Plan, link graph.EdgeID) (side, j int, ok bool) {
	for s := 0; s < 2; s++ {
		for i, id := range parent.sideLinks[s] {
			if id == link {
				return s, i, true
			}
		}
	}
	return 0, 0, false
}

// sideAligned verifies that a side of the mutated split lists exactly the
// remap image of the parent's side links, in the parent's order (skip is
// the parent index of a removed link, or -1). graph.Induced preserves
// parent edge order, so this holds by construction whenever the cut
// survived; the check is the cheap O(m) certificate that lets the
// realization arrays transfer index-for-index, and any mismatch drops the
// mutation to a cold recompile instead of a silent corruption.
func sideAligned(parentLinks, remap, newLinks []graph.EdgeID, skip int) bool {
	k := 0
	for i, old := range parentLinks {
		if i == skip {
			continue
		}
		nid := remap[old]
		if nid < 0 || k >= len(newLinks) || newLinks[k] != nid {
			return false
		}
		k++
	}
	return k == len(newLinks)
}

// offPath reports whether side link j lies on no directed path through
// links of positive capacity from the side's sources to its sinks (G_s
// routes from the real terminal to the cut endpoints, G_t from the
// endpoints to the terminal): no source reaches its tail, or its head
// reaches no sink. internal/reduce applies the same rule to whole
// graphs. Such a link carries no flow in any configuration under any
// capacity of its own, so a capacity change on it leaves every row as it
// was.
func offPath(sub *graph.Subgraph, terminal graph.NodeID, ends []graph.NodeID, toSink bool, j int) bool {
	from, to := []graph.NodeID{terminal}, ends
	if !toSink {
		from, to = to, from
	}
	e := sub.G.Edge(graph.EdgeID(j))
	return !reaches(sub.G, from, e.U, false) || !reaches(sub.G, to, e.V, true)
}

// reaches reports whether target is reachable from one of starts along
// links of positive capacity, followed backward when reverse is set.
func reaches(g *graph.Graph, starts []graph.NodeID, target graph.NodeID, reverse bool) bool {
	seen := make([]bool, g.NumNodes())
	stack := append([]graph.NodeID(nil), starts...)
	for _, u := range starts {
		seen[u] = true
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == target {
			return true
		}
		for _, eid := range g.Incident(u) {
			e := g.Edge(eid)
			tail, head := e.U, e.V
			if reverse {
				tail, head = head, tail
			}
			if tail == u && e.Cap > 0 && !seen[head] {
				seen[head] = true
				stack = append(stack, head)
			}
		}
	}
	return false
}

// walkDelta re-decides the touched-side configurations that contain the
// mutated link (side bit j). ww holds the rows, set up from the parent
// side's by newWordWalk: the low half of each row for add, the parent's
// own rows for capacity modes. Capacity walks copy-on-first-write, so
// ww.rows IS the parent's slice when no word changed (the caller shares
// it pointer-wise) and a private copy otherwise. Each visited mask
// charges for itself and its j-less twin, keeping the side's total at
// 2^m·|𝒟| exactly as a cold build would charge, and is handed to
// opt.TestHook before its word, as in the cold walk. It stops early when
// the budget interrupts it, which the caller reads from opt.Ctl.
//
// The walk decides the cold walk's row words (frontier.go). A walked
// word is a whole word when j is a high link, else the half of every
// word whose bit j is set; the twin of a walked bit is then the word
// without link j, or the same word's bit 2^j lower. The scans rest on
// two consequences of the rows being exact and therefore monotone
// (S ⊆ S' implies realized(S) ⊆ realized(S')):
//
//   - Parent and twin rows bracket the new one. Grow keeps the parent's
//     realized bits and decides the rest; add keeps the twin's realized
//     bits and decides the rest; shrink keeps the parent's unrealized
//     bits and re-decides parent &^ closure, where the closure (which
//     contains the twin) is the cold walk's. Shrink ascends, so the
//     words its closure reads are final; grow and add descend, meeting
//     the large masks first, whose failed solves leave certificates
//     with the fewest links.
//   - Infeasibility certifies through the cut, as in the cold walk. The
//     certificates are made under the mutated capacities, so they live
//     for this walk only.
//
//flowrelvet:hotpath one or two array words per configuration replace the per-mask closure scan, and downward infeasibility certificates replace re-confirming solves; bit-exact by monotonicity (reviewed: PR-10)
func walkDelta(ww *wordWalk, j int, mode deltaMode, cur *uint64) {
	f, n := ww.f, ww.n
	walk, wordBit, twinShift := ww.valid, uint64(0), uint(0)
	if j >= lowLinks {
		wordBit = 1 << uint(j-lowLinks)
	} else {
		walk &^= clearLow[j]
		twinShift = 1 << uint(j)
	}
	per := uint64(bits.OnesCount64(walk))
	down := mode != deltaShrink
	st := &ww.w.stats
	for k := uint64(0); k < ww.words; k++ {
		wi := k
		if down {
			wi = ww.words - 1 - k
		}
		if wi&wordBit != wordBit {
			continue
		}
		base := wi << lowLinks
		*cur = base
		if f.opt.TestHook != nil {
			for r := walk; r != 0; {
				b := bits.TrailingZeros64(r)
				if down {
					b = 63 - bits.LeadingZeros64(r)
				}
				r &^= 1 << uint(b)
				*cur = base | uint64(b)
				f.opt.TestHook(*cur)
			}
		}
		// twin returns a row's twin bits at the walked positions.
		twin := func(row []uint64) uint64 {
			if wordBit != 0 {
				return row[wi&^wordBit]
			}
			return (row[wi] &^ walk) << twinShift
		}
		// Grow and add count, as pruned by closure, the twin's realized
		// bits of every mask with an assignment left to decide.
		var notFull uint64
		if down {
			for a := 0; a < n; a++ {
				row := ww.row(a)
				known := twin(row)
				if mode == deltaGrow {
					known = row[wi] & walk
				}
				notFull |= walk &^ known
			}
			if mode == deltaAdd {
				st.DeltaReused += int64(n) * int64(bits.OnesCount64(walk&^notFull))
			}
		}
		st.DeltaReused += int64(uint64(n) * per)
		for a := 0; a < n; a++ {
			row := ww.row(a)
			old := row[wi]
			p, tw := old&walk, twin(row)
			next := p
			switch mode {
			case deltaShrink:
				st.DeltaReused += int64(bits.OnesCount64(walk &^ p))
				if p&^tw == 0 {
					// The twin justifies every parent bit: nothing to
					// re-decide.
					st.PrunedClosure += int64(bits.OnesCount64(p))
					break
				}
				next = closure(row, wi, old&^walk) & walk
				st.PrunedClosure += int64(bits.OnesCount64(next))
				if open := p &^ next; open != 0 {
					next |= ww.decideWord(a, wi, open, false)
				}
			case deltaGrow:
				st.DeltaReused += int64(bits.OnesCount64(p))
				st.PrunedClosure += int64(bits.OnesCount64(tw & notFull))
				if open := walk &^ p; open != 0 {
					next |= ww.decideWord(a, wi, open, true)
				}
			case deltaAdd:
				st.PrunedClosure += int64(bits.OnesCount64(tw & notFull))
				next = tw
				if open := walk &^ tw; open != 0 {
					next |= ww.decideWord(a, wi, open, true)
				}
			}
			if next != p {
				ww.own()
				ww.row(a)[wi] = old&^walk | next
			}
		}
		if !ww.charge(2*uint64(n)*per, false) {
			return
		}
	}
	ww.charge(0, true)
}

// deltaSideState is the warm solver state one delta walk leaves behind for
// the next: the side's solver context (prototype network, handles,
// capacity and need vectors) and the worker whose per-assignment residual
// networks still hold the flows of the last walked configurations. A
// successor capacity mutation on the same side patches the changed link's
// capacity into the context and the warm networks (repairing their flows
// incrementally) and walks from there — no network clones, no from-scratch
// solves. The state is handed down the plan chain through an atomic
// pointer: exactly one successor consumes it, everyone else builds fresh,
// and either way the walk's results are bit-identical (max-flow values do
// not depend on the starting flow).
type deltaSideState struct {
	f *frontierCtx
	w *frontierWorker
	// dead counts permanently disabled arcs left behind by removed links.
	// Adoption stops (and the chain restarts fresh) once they would
	// outnumber the live side links, bounding the networks' growth under
	// sustained churn.
	dead int
}

// sameSideNodes certifies that two side subgraphs list the same parent
// nodes in the same order. graph.Induced numbers local nodes by ascending
// parent ID, so equal ParentNode slices mean identical local numbering —
// the condition for a warm prototype network built against prev to stay
// valid for sub.
func sameSideNodes(sub, prev *graph.Subgraph) bool {
	if prev == nil || len(sub.ParentNode) != len(prev.ParentNode) {
		return false
	}
	for i := range sub.ParentNode {
		if sub.ParentNode[i] != prev.ParentNode[i] {
			return false
		}
	}
	return true
}

// adoptAddedLink extends a warm side state with the side's newly added
// link (last in sub's edge list, the walk's new top bit): one arc appended
// to the prototype (enabled, like every prototype arc) and to each warm
// network (disabled, carrying zero flow — consistent with the warm
// configuration masks, which predate the link). The add walk then
// retargets from the parent's flows instead of solving every network from
// scratch. Returns false — with st untouched — when the state cannot be
// certified against the new subgraph.
func adoptAddedLink(st *deltaSideState, sub, prev *graph.Subgraph) bool {
	if !sameSideNodes(sub, prev) {
		return false
	}
	f := st.f
	e := sub.G.Edge(graph.EdgeID(sub.G.NumEdges() - 1))
	h := f.proto.AddDirected(int32(e.U), int32(e.V), e.Cap)
	for _, nw := range st.w.nets {
		if nw == nil {
			continue
		}
		// Clones stay in arc-lockstep with the prototype, so the appended
		// arc receives the same handle value everywhere.
		nw.SetEnabled(nw.AddDirected(int32(e.U), int32(e.V), e.Cap), false)
	}
	f.handles = append(f.handles, h)
	f.caps = append(f.caps, e.Cap)
	return true
}

// adoptRemovedLink retires side bit j from a warm side state: the arc is
// permanently disabled in the prototype and every warm network (repairing
// each warm flow incrementally), the handle and capacity vectors contract,
// and the warm configuration masks shift down past the vacated bit. The
// removal itself never walks — the transform only keeps the chain warm for
// the next mutation on this side. Returns false — with st untouched — when
// the state cannot be certified or the dead-arc bound is hit.
func adoptRemovedLink(st *deltaSideState, sub, prev *graph.Subgraph, j int) bool {
	if st.dead+1 > len(st.f.handles) || !sameSideNodes(sub, prev) {
		return false
	}
	f, w := st.f, st.w
	dead := f.handles[j]
	jBit := uint64(1) << uint(j)
	lowMask := jBit - 1
	for j2, nw := range w.nets {
		if nw == nil {
			continue
		}
		if c := w.cur[j2]; c&jBit != 0 {
			w.val[j2] -= nw.DisableIncremental(dead, f.src, f.dst)
		}
		c := w.cur[j2]
		w.cur[j2] = (c & lowMask) | (c>>(uint(j)+1))<<uint(j)
	}
	f.proto.SetEnabled(dead, false)
	f.handles = append(f.handles[:j], f.handles[j+1:]...)
	f.caps = append(f.caps[:j], f.caps[j+1:]...)
	st.dead++
	return true
}

// netStats is a snapshot of the cumulative solver counters across a
// worker's warm networks. Warm states outlive a single walk, so each walk
// folds only the difference against its starting snapshot.
type netStats struct {
	calls, units, paths int64
}

// setCapacity patches side link j's new capacity into the state: the
// capacity-bound vector, the prototype (future clones) and every warm
// network, repairing the flows it carries.
func (st *deltaSideState) setCapacity(j, c int) {
	f, w := st.f, st.w
	f.caps[j] = c
	f.proto.SetBaseCapDirected(f.handles[j], c)
	for j2, nw := range w.nets {
		if nw != nil {
			w.val[j2] -= nw.SetBaseCapDirectedIncremental(f.handles[j], c, f.src, f.dst)
		}
	}
}

// snapshotNets sums the worker's networks' cumulative solver stats.
func snapshotNets(w *frontierWorker) netStats {
	var s netStats
	for _, nw := range w.nets {
		if nw != nil {
			s.calls += nw.Stats.MaxFlowCalls
			s.units += nw.Stats.AugmentUnits
			s.paths += nw.Stats.AugmentingPaths
		}
	}
	return s
}

// foldWorker folds a walk's counters and its networks' solver stats into
// st, counting network work only past the base snapshot — exactly this
// walk's share when a delta worker was inherited warm.
func foldWorker(st *Stats, w *frontierWorker, base netStats) {
	st.add(&w.stats)
	foldNets(st, w, base)
}

// foldNets folds the solver work of w's networks past base into st: the
// flow repairs a warm state pays when a mutation patches it without a
// walk.
func foldNets(st *Stats, w *frontierWorker, base netStats) {
	now := snapshotNets(w)
	st.MaxFlowCalls += now.calls - base.calls
	st.AugmentUnits += now.units - base.units
	st.AugmentingPaths += now.paths - base.paths
}

// patchSplitCapacity rebuilds the parent's bottleneck split after a
// capacity change on a non-cut link without re-running mincut.Split: every
// validation Split performs (minimal cut, two components, link
// orientation) is topology-only, so the parent's split stays valid
// verbatim and only the touched side's subgraph needs the new capacity.
// Returns nil when the link is not on a side (the caller then falls back
// to the full Split).
func patchSplitCapacity(pb *mincut.Bottleneck, parent *Plan, mut graph.Mutation) *mincut.Bottleneck {
	side, j, ok := locateSideLink(parent, mut.Link)
	if !ok {
		return nil
	}
	subs := [2]*graph.Subgraph{pb.Gs, pb.Gt}
	old := subs[side]
	g2, err := old.G.WithCapacity(graph.EdgeID(j), mut.Cap)
	if err != nil {
		return nil
	}
	subs[side] = &graph.Subgraph{
		G:          g2,
		NodeOf:     old.NodeOf,
		ParentNode: old.ParentNode,
		ParentEdge: old.ParentEdge,
	}
	return &mincut.Bottleneck{
		Cut: pb.Cut, Gs: subs[0], Gt: subs[1],
		XS: pb.XS, YT: pb.YT, Alpha: pb.Alpha,
	}
}
