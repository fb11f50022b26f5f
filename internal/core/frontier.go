package core

import (
	"math/bits"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// The frontier walk builds a side's realization array (§III-C) while
// paying max-flow only where no exact argument decides a pair. It rests
// on one fact: realization is monotone in the link set. Adding a live
// link never removes an s–t flow, so if configuration S realizes
// assignment a then every superset of S does, and if S cannot carry a's
// load then no subset of S can. The walk visits
// the masks in increasing numeric order, on the calling goroutine, and
// decides each (assignment, mask) pair by the first of these that
// applies:
//
//   - upward (closure): every immediate submask of a mask is numerically
//     smaller and therefore final, so OR-ing their words
//     (immediateClosure — one uint64 OR decides all ≤64 assignments at
//     once) marks exactly the pairs with a realized submask; they are
//     realized with zero max-flow calls.
//   - capacity bound: Σ capacities of the live links, plus any demand
//     that enters the super terminal directly at the real terminal,
//     upper-bounds the max flow; assignments whose load exceeds it are
//     unrealizable with zero max-flow calls.
//   - cut certificate: a failed solve leaves a minimum cut whose capacity
//     is the max flow, below the load. The links crossing it that the
//     solved mask lacks form a certificate A: any mask with mask&A == 0
//     enables no crossing link the solved mask lacked, so the same cut
//     holds it below the load. Such pairs are unrealizable with zero
//     max-flow calls.
//   - otherwise one warm-started max-flow solve, which on failure records
//     its certificate.
//
// None of these guesses: each is an exact implication of max-flow
// feasibility, so the resulting array is bit-identical to a dense walk
// that solves every pair from scratch (the tests' oracle). Budget
// accounting matches that walk too: every (assignment, configuration)
// pair is charged whether it was pruned or solved, so anytime budgets
// and certified partial bounds see |𝒟|·2^m configurations per side. A
// certificate holds only under the capacities it was made with, so
// every walk — cold or delta — starts with empty lists.

// certCap bounds each assignment's certificate list, and with it the
// containment scan per open pair; past it the least recently used
// certificate makes room, so the scan never grows past a fixed cost.
const certCap = 32

// frontierCtx carries the per-side inputs of one walk.
type frontierCtx struct {
	proto      *maxflow.Network
	handles    []maxflow.Handle
	demandArcs []maxflow.Handle
	src, dst   int32
	d          int
	ds         *assign.Set
	opt        *Options
	caps       []int  // per side link, for the capacity bound
	need       []int  // per assignment: d minus its direct-at-terminal demand
	allBits    uint64 // low ds.Len() bits set
}

// newFrontierCtx builds the solver context for one side, for the cold
// walk and the delta walks alike.
func newFrontierCtx(sub *graph.Subgraph, terminal graph.NodeID, ends []graph.NodeID, toSink bool, ds *assign.Set, opt *Options) *frontierCtx {
	proto, handles, demandArcs, src, dst := sideProto(sub, terminal, ends, toSink)
	f := &frontierCtx{
		proto:      proto,
		handles:    handles,
		demandArcs: demandArcs,
		src:        src,
		dst:        dst,
		d:          ds.D,
		ds:         ds,
		opt:        opt,
		caps:       make([]int, len(handles)),
		need:       sideNeeds(ds, ends, terminal),
		allBits:    (uint64(1) << uint(ds.Len())) - 1,
	}
	for _, e := range sub.G.Edges() {
		f.caps[e.ID] = e.Cap
	}
	return f
}

// frontierWorker is the walk's solver state: a lazily cloned residual
// network per assignment, each remembering the configuration and flow
// value it last solved, so the next mask repairs instead of recomputing.
type frontierWorker struct {
	nets  []*maxflow.Network
	cur   []uint64
	val   []int
	stats Stats
}

func newFrontierWorker(n int) *frontierWorker {
	return &frontierWorker{
		nets: make([]*maxflow.Network, n),
		cur:  make([]uint64, n),
		val:  make([]int, n),
	}
}

// certTable holds one walk's cut certificates per assignment, most
// recently used first. The lists share one backing array of certCap
// slots each, so recording never allocates.
type certTable [][]uint64

func newCertTable(n int) certTable {
	buf := make([]uint64, n*certCap)
	t := make(certTable, n)
	for j := range t {
		t[j] = buf[j*certCap : j*certCap : (j+1)*certCap]
	}
	return t
}

// covers reports whether a certificate of assignment j rules out mask,
// moving the hit to the front of the list.
func (t certTable) covers(j int, mask uint64) bool {
	l := t[j]
	for i, a := range l {
		if mask&a == 0 {
			copy(l[1:i+1], l[:i])
			l[0] = a
			return true
		}
	}
	return false
}

// record puts a fresh certificate at the front of assignment j's list,
// dropping the least recently used one when the list is full.
func (t certTable) record(j int, a uint64) {
	l := t[j]
	if len(l) < certCap {
		l = l[:len(l)+1]
	}
	copy(l[1:], l)
	l[0] = a
	t[j] = l
}

// walkFrontier runs the ascending walk for one side, filling
// realized. A panic on the walk (a TestHook fault, say) comes back as
// the error; interruption is left for the caller to detect via
// opt.Ctl.Stopped.
func walkFrontier(f *frontierCtx, realized []uint64, st *Stats) (err error) {
	n := f.ds.Len()
	w := newFrontierWorker(n)
	defer foldWorker(st, w, netStats{})
	cur := uint64(0)
	defer anytime.RecoverInto(&err, f.opt.Ctl, "core frontier walk", &cur)
	certs := newCertTable(n)
	var sinceCheck uint64
	callsMark := w.stats.FrontierMaxFlowCalls
	for mask := uint64(0); mask < uint64(len(realized)); mask++ {
		cur = mask
		if f.opt.TestHook != nil {
			f.opt.TestHook(mask)
		}
		sinceCheck += uint64(n)
		w.stats.RealizationChecks += int64(n)
		word := immediateClosure(realized, mask, f.allBits)
		w.stats.PrunedClosure += int64(bits.OnesCount64(word))
		if cand := f.allBits &^ word; cand != 0 {
			word |= w.decide(f, certs, mask, cand)
		}
		realized[mask] = word
		if sinceCheck >= anytime.CheckEvery {
			if !f.opt.Ctl.Charge(sinceCheck, w.stats.FrontierMaxFlowCalls-callsMark) {
				return nil
			}
			sinceCheck, callsMark = 0, w.stats.FrontierMaxFlowCalls
		}
	}
	f.opt.Ctl.Charge(sinceCheck, w.stats.FrontierMaxFlowCalls-callsMark)
	return nil
}

// decide settles the open candidate assignments of one mask — the pairs
// neither closure nor parent transfer decided — and returns those the
// mask realizes. Each candidate goes through the capacity bound, then
// the walk's certificates, then a solve whose failure records a new
// certificate. Both skips count as PrunedCapacity: each is a cut whose
// capacity is below the load.
func (w *frontierWorker) decide(f *frontierCtx, certs certTable, mask, cand uint64) uint64 {
	capSum := 0
	for mm := mask; mm != 0; mm &= mm - 1 {
		capSum += f.caps[bits.TrailingZeros64(mm)]
	}
	var got uint64
	for r := cand; r != 0; r &= r - 1 {
		j := bits.TrailingZeros64(r)
		if capSum < f.need[j] || certs.covers(j, mask) {
			w.stats.PrunedCapacity++
			continue
		}
		if ok, cut := w.solve(f, j, mask); ok {
			got |= uint64(1) << uint(j)
		} else {
			certs.record(j, cut&^mask)
		}
	}
	return got
}

// solve pays a max-flow call for one surviving (assignment, mask) pair,
// warm-starting from wherever the assignment's network last stood, and
// reports whether the mask realizes the assignment. On failure it also
// returns the side links crossing the solve's minimum cut.
func (w *frontierWorker) solve(f *frontierCtx, j int, mask uint64) (bool, uint64) {
	nw := w.nets[j]
	if nw == nil {
		nw = f.proto.Clone()
		a := f.ds.Assignments[j]
		for i := range f.demandArcs {
			nw.SetBaseCapDirected(f.demandArcs[i], a[i])
		}
		for i := range f.handles {
			nw.SetEnabled(f.handles[i], false)
		}
		nw.ResetFlow()
		w.nets[j] = nw
	}
	before := nw.Stats.MaxFlowCalls
	value := nw.RetargetIncremental(f.handles, w.cur[j], mask, f.src, f.dst, w.val[j])
	if value < f.d {
		value += nw.Augment(f.src, f.dst, f.d-value)
	}
	w.stats.FrontierMaxFlowCalls += nw.Stats.MaxFlowCalls - before
	w.cur[j] = mask
	w.val[j] = value
	if value >= f.d {
		return true, 0
	}
	return false, nw.CutCrossing(f.src, f.handles)
}
