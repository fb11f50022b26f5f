package core

import (
	"flowrel/internal/assign"
	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/subset"
)

// The paper-literal forms of the two exponential phases. Production runs
// one path per phase — the word walk (frontier.go), for plan sides and
// chain segments alike, and the zeta accumulation (EvalScalar and the
// kernels) — and the corpora hold those paths to these oracles.

// denseRealized rebuilds both realization arrays of a compiled plan the
// way §III-C states it: one max-flow solve from scratch for every
// (assignment, configuration) pair, configurations in plain binary
// order, on the split and assignment set the plan retained. dem must be
// the demand the plan was compiled for, and the plan must not be
// trivially zero.
func denseRealized(plan *Plan, dem graph.Demand) [2][]uint64 {
	bt := plan.bt
	subs := [2]*graph.Subgraph{bt.Gs, bt.Gt}
	terminals := [2]graph.NodeID{bt.Gs.NodeOf[dem.S], bt.Gt.NodeOf[dem.T]}
	ends := [2][]graph.NodeID{bt.XS, bt.YT}
	d := plan.ds.D
	var out [2][]uint64
	for side := range out {
		proto, handles, demandArcs, src, dst := sideProto(subs[side], terminals[side], ends[side], side == 0)
		realized := make([]uint64, uint64(1)<<uint(len(handles)))
		for j, a := range plan.ds.Assignments {
			nw := proto.Clone()
			for i, h := range demandArcs {
				nw.SetBaseCapDirected(h, a[i])
			}
			for mask := range realized {
				for i, h := range handles {
					nw.SetEnabled(h, uint64(mask)&(uint64(1)<<uint(i)) != 0)
				}
				if nw.MaxFlow(src, dst, d) >= d {
					realized[mask] |= uint64(1) << uint(j)
				}
			}
		}
		out[side] = realized
	}
	return out
}

// denseSegment rebuilds a segment's rows (BuildSegment) the same way:
// one max-flow solve from scratch for every (pair, configuration), pairs
// in row order a·|out| + b, configurations in plain binary order, on the
// network the word walk solves on.
func denseSegment(sub *graph.Subgraph, heads []graph.NodeID, in []assign.Assignment, tails []graph.NodeID, out []assign.Assignment, d int) []uint64 {
	proto, handles, demandArcs, src, dst := segmentProto(sub, heads, tails)
	words, _ := rowShape(len(handles))
	rows := make([]uint64, uint64(len(in)*len(out))*words)
	row := uint64(0)
	for _, a := range in {
		for _, b := range out {
			nw := proto.Clone()
			for i, load := range append(append([]int(nil), a...), b...) {
				nw.SetBaseCapDirected(demandArcs[i], load)
			}
			for mask := uint64(0); mask < uint64(1)<<uint(len(handles)); mask++ {
				for i, h := range handles {
					nw.SetEnabled(h, mask&(uint64(1)<<uint(i)) != 0)
				}
				if nw.MaxFlow(src, dst, d) >= d {
					rows[row*words+mask>>lowLinks] |= uint64(1) << (mask & (1<<lowLinks - 1))
				}
			}
			row++
		}
	}
	return rows
}

// accumulateLiteral evaluates a compiled plan by procedure ACCUMULATION
// as §IV-B states it: for every bottleneck configuration E″ and every
// non-empty X ⊆ 𝒟_{E″}, scan both side arrays for
// p_X = P_s(realizes ⊇ X)·P_t(realizes ⊇ X), combine by
// inclusion–exclusion and weight by p_{E″} (Eq. 3). It sums in another
// order than the zeta path, so the two agree to rounding, not bit for
// bit. pfail is indexed by original link ID.
func accumulateLiteral(plan *Plan, pfail []float64) float64 {
	if plan.ds == nil {
		return 0
	}
	var probs [2][]float64
	var realized [2][]uint64
	for side := range probs {
		realized[side] = planRealized(plan, side)
		probs[side] = denseProbs(pfail, plan.sideLinks[side])
	}
	pCut := make([]float64, len(plan.Cut))
	for i, eid := range plan.Cut {
		pCut[i] = pfail[eid]
	}
	total := 0.0
	for e := uint64(0); e < uint64(1)<<uint(len(pCut)); e++ {
		dMask := plan.classes[e]
		if dMask == 0 {
			continue
		}
		r := 0.0
		subset.Submasks(dMask, func(x uint64) {
			if x == 0 {
				return
			}
			pX := scanSuperset(realized[0], probs[0], x) * scanSuperset(realized[1], probs[1], x)
			r -= subset.PopcountParity(x) * pX
		})
		total += conf.Prob(pCut, e) * r
	}
	return total
}

// scanSuperset returns the probability that a side configuration
// realizes every assignment in x.
func scanSuperset(realized []uint64, probs []float64, x uint64) float64 {
	p := 0.0
	for mask, rm := range realized {
		if rm&x == x {
			p += probs[mask]
		}
	}
	return p
}
