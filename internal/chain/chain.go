// Package chain generalizes the paper's decomposition from one bottleneck
// cut to a *sequence* of them — the natural extension for P2P delivery
// chains (cluster → backbone → cluster → … → subscriber).
//
// Given disjoint minimal s–t cuts C₁,…,C_r whose joint removal splits G
// into segments G₀ ∋ s, G₁, …, G_r ∋ t (cut Cᵢ joining G_{i-1} to Gᵢ),
// a failure configuration admits the demand iff there is a *sequence* of
// assignments a¹ ∈ 𝒟₁, …, aʳ ∈ 𝒟_r such that every aⁱ is supported by
// Cᵢ's surviving links, G₀ realizes a¹, G_r absorbs aʳ, and every middle
// segment Gᵢ forwards aⁱ to a^{i+1}. The segments and cuts fail
// independently, so the reliability is computed by dynamic programming
// over the distribution of the *reachable assignment set*: the random
// subset S ⊆ 𝒟ᵢ of assignments the prefix can deliver across cut Cᵢ.
// Each segment maps S through its (random) realization relation; each cut
// intersects S with its supported class. The two end segments are each
// the side of one cut, so core.BuildSide — the §III-C side walk of the
// single-cut algorithm — builds them; the middle segments are enumerated
// configuration by configuration.
//
// With r cuts the work is Σᵢ 2^{|Eᵢ|} segment enumerations instead of the
// single-cut 2^{α|E|} — on a chain of b equal blocks, 2^{|E|/b}·b instead
// of 2^{|E|/2}·2. The paper's algorithm is the r = 1 special case (and
// the two implementations are cross-checked against each other and
// against naive enumeration).
package chain

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/bitset"
	"flowrel/internal/conf"
	"flowrel/internal/core"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
	"flowrel/internal/mincut"
	"flowrel/internal/stats"
)

// Process-wide registry metrics, charged once per Solve (see
// docs/OBSERVABILITY.md for the catalogue).
var (
	mSolves       = stats.Default.Counter("chain.solves")
	mSolveTime    = stats.Default.Timer("chain.solve_time")
	mMaxFlowCalls = stats.Default.Counter("chain.max_flow_calls")
)

// tracePhase fires one segment-transition phase event when a tracer is
// installed on the controller (the nil fast path is a single branch).
func tracePhase(ctl *anytime.Ctl, phase string, start time.Time, calls int64) {
	if tr := ctl.Tracer(); tr != nil {
		tr.OnPhase(stats.PhaseEvent{
			Engine:       "chain",
			Phase:        phase,
			Duration:     time.Since(start),
			MaxFlowCalls: calls,
		})
	}
}

// Options tunes the solver.
type Options struct {
	// MaxSegmentEdges bounds each segment's enumerated link count
	// (default 20).
	MaxSegmentEdges int
	// MaxAssignmentSet bounds each cut's |𝒟ᵢ| (default 16; the DP state
	// space is 2^{|𝒟ᵢ|}).
	MaxAssignmentSet int
	// Parallelism is the worker count for the middle segments'
	// enumeration (≤ 0 = GOMAXPROCS); the end segments run core's
	// single-threaded frontier walk.
	Parallelism int
	// Ctl optionally makes the run cancellable. The assignment-set DP is
	// all-or-nothing (a half-built segment distribution certifies no mass),
	// so an interrupted run returns an error wrapping
	// anytime.ErrInterrupted; callers fall back to an engine that can
	// certify partial answers.
	Ctl *anytime.Ctl
	// TestHook, when set, is called with each segment configuration mask
	// before its feasibility checks. Tests use it to inject faults.
	TestHook func(configIndex uint64)
}

func (o *Options) setDefaults() {
	if o.MaxSegmentEdges <= 0 {
		o.MaxSegmentEdges = 20
	}
	if o.MaxAssignmentSet <= 0 {
		o.MaxAssignmentSet = 16
	}
}

// Result is the solver's answer plus the decomposition structure.
type Result struct {
	Reliability  float64
	Cuts         [][]graph.EdgeID // the cut sequence, source side first
	SegmentEdges []int            // |E₀|, …, |E_r|
	AssignSizes  []int            // |𝒟₁|, …, |𝒟_r|
	MaxFlowCalls int64
}

// chainStructure is the validated decomposition.
type chainStructure struct {
	cuts  [][]graph.EdgeID  // ordered source→sink
	segs  []*graph.Subgraph // r+1 segments, source side first
	heads [][]graph.NodeID  // per cut i: head endpoints inside segs[i+1]
	tails [][]graph.NodeID  // per cut i: tail endpoints inside segs[i]
	ds    []*assign.Set     // per cut i: assignment family 𝒟_{i+1}... index aligned with cuts
}

// Solve computes the exact reliability using the given cut sequence. The
// cuts may be passed in any order; they are validated and sorted along
// the chain.
func Solve(g *graph.Graph, dem graph.Demand, cuts [][]graph.EdgeID, opt Options) (Result, error) {
	if g == nil {
		return Result{}, fmt.Errorf("chain: nil graph")
	}
	if err := dem.Validate(g); err != nil {
		return Result{}, err
	}
	opt.setDefaults()
	st, err := validateChain(g, dem, cuts)
	if err != nil {
		return Result{}, err
	}

	res := Result{Cuts: st.cuts}
	for _, seg := range st.segs {
		m := seg.G.NumEdges()
		if m > opt.MaxSegmentEdges {
			return Result{}, fmt.Errorf("chain: segment has %d links, exceeding MaxSegmentEdges %d", m, opt.MaxSegmentEdges)
		}
		if m > conf.MaxEnumEdges {
			return Result{}, &conf.ErrTooManyEdges{N: m, Where: "chain segment"}
		}
		res.SegmentEdges = append(res.SegmentEdges, m)
	}

	// Assignment families per cut.
	for ci, cut := range st.cuts {
		caps := make([]int, len(cut))
		for j, eid := range cut {
			caps[j] = g.Edge(eid).Cap
		}
		ds, err := assign.NewSet(caps, dem.D)
		if err != nil {
			return Result{}, err
		}
		if ds.Len() == 0 {
			res.AssignSizes = append(res.AssignSizes, 0)
			return res, nil // some cut cannot carry d at all: reliability 0
		}
		if ds.Len() > opt.MaxAssignmentSet {
			return Result{}, fmt.Errorf("chain: |𝒟_%d| = %d exceeds MaxAssignmentSet %d", ci+1, ds.Len(), opt.MaxAssignmentSet)
		}
		st.ds = append(st.ds, ds)
		res.AssignSizes = append(res.AssignSizes, ds.Len())
	}

	// dist[m] = P(reachable assignment set across the current cut = m).
	// Start with segment 0 feeding cut 1.
	solveStart := time.Now()
	segStart := solveStart
	first, calls, err := endLaw(st.segs[0], st.segs[0].NodeOf[dem.S], st.tails[0], true, st.ds[0], opt)
	if err != nil {
		return Result{}, err
	}
	res.MaxFlowCalls += calls
	tracePhase(opt.Ctl, "segment/0", segStart, calls)
	dist := applyCut(first, g, st.cuts[0], st.ds[0])

	// Middle segments.
	for i := 1; i < len(st.cuts); i++ {
		segStart = time.Now()
		next, calls, err := middleTransition(dist, st.segs[i],
			st.heads[i-1], st.ds[i-1], st.tails[i], st.ds[i], dem.D, opt)
		if err != nil {
			return Result{}, err
		}
		res.MaxFlowCalls += calls
		tracePhase(opt.Ctl, fmt.Sprintf("segment/%d", i), segStart, calls)
		dist = applyCut(next, g, st.cuts[i], st.ds[i])
	}

	// Final segment absorbs.
	last := len(st.cuts)
	segStart = time.Now()
	r, calls, err := sinkProbability(dist, st.segs[last], st.segs[last].NodeOf[dem.T], st.heads[last-1], st.ds[last-1], opt)
	if err != nil {
		return Result{}, err
	}
	res.MaxFlowCalls += calls
	tracePhase(opt.Ctl, fmt.Sprintf("segment/%d", last), segStart, calls)
	res.Reliability = r
	mSolves.Inc()
	mSolveTime.Observe(time.Since(solveStart))
	mMaxFlowCalls.Add(res.MaxFlowCalls)
	return res, nil
}

// validateChain checks the cuts are disjoint minimal s–t cuts whose joint
// removal yields exactly len(cuts)+1 weak components arranged in a chain,
// and extracts the ordered structure.
func validateChain(g *graph.Graph, dem graph.Demand, cuts [][]graph.EdgeID) (*chainStructure, error) {
	if len(cuts) == 0 {
		return nil, fmt.Errorf("chain: no cuts given")
	}
	seen := make(map[graph.EdgeID]bool)
	alive := bitset.New(g.NumEdges())
	alive.SetAll()
	for _, cut := range cuts {
		if len(cut) == 0 {
			return nil, fmt.Errorf("chain: empty cut")
		}
		for _, eid := range cut {
			if eid < 0 || int(eid) >= g.NumEdges() {
				return nil, fmt.Errorf("chain: link %d out of range", eid)
			}
			if seen[eid] {
				return nil, fmt.Errorf("chain: link %d appears in two cuts", eid)
			}
			seen[eid] = true
			alive.Clear(int(eid))
		}
		if !mincut.IsMinimalCut(g, dem.S, dem.T, cut) {
			return nil, fmt.Errorf("chain: %v is not a minimal s–t cut", cut)
		}
	}
	comp, count := g.WeakComponents(alive)
	if count != len(cuts)+1 {
		return nil, fmt.Errorf("chain: removing all cuts yields %d components, want %d", count, len(cuts)+1)
	}

	// Order components along the chain: each cut joins exactly two
	// components; build the component adjacency and walk from s's side.
	type link struct{ from, to int }
	cutBetween := make(map[[2]int]int) // component pair → cut index
	for ci, cut := range cuts {
		cu, cv := -1, -1
		for _, eid := range cut {
			e := g.Edge(eid)
			u, v := comp[e.U], comp[e.V]
			if u == v {
				return nil, fmt.Errorf("chain: cut link %d lies inside one component", eid)
			}
			if cu == -1 {
				cu, cv = u, v
			} else if cu != u || cv != v {
				return nil, fmt.Errorf("chain: cut %d joins more than two components or mixes orientations", ci)
			}
		}
		key := [2]int{cu, cv}
		if _, dup := cutBetween[key]; dup {
			return nil, fmt.Errorf("chain: two cuts join the same component pair")
		}
		cutBetween[key] = ci
	}
	// Walk from s's component following forward cuts.
	order := []int{comp[dem.S]}
	cutOrder := make([]int, 0, len(cuts))
	for len(order) <= len(cuts) {
		cur := order[len(order)-1]
		next := -1
		ci := -1
		for key, idx := range cutBetween {
			if key[0] == cur {
				if next != -1 {
					return nil, fmt.Errorf("chain: component %d has two outgoing cuts; not a chain", cur)
				}
				next = key[1]
				ci = idx
			}
		}
		if next == -1 {
			return nil, fmt.Errorf("chain: chain broken after %d segments", len(order))
		}
		order = append(order, next)
		cutOrder = append(cutOrder, ci)
	}
	if order[len(order)-1] != comp[dem.T] {
		return nil, fmt.Errorf("chain: the chain does not end at the sink component")
	}

	st := &chainStructure{}
	segOf := make(map[int]int, len(order)) // component id → chain position
	for pos, c := range order {
		segOf[c] = pos
		inside := make([]bool, g.NumNodes())
		for n, cn := range comp {
			inside[n] = cn == c
		}
		st.segs = append(st.segs, g.Induced(inside))
	}
	for _, ci := range cutOrder {
		cut := append([]graph.EdgeID(nil), cuts[ci]...)
		sort.Slice(cut, func(i, j int) bool { return cut[i] < cut[j] })
		st.cuts = append(st.cuts, cut)
		pos := segOf[comp[g.Edge(cut[0]).U]]
		tails := make([]graph.NodeID, len(cut))
		heads := make([]graph.NodeID, len(cut))
		for j, eid := range cut {
			e := g.Edge(eid)
			tails[j] = st.segs[pos].NodeOf[e.U]
			heads[j] = st.segs[pos+1].NodeOf[e.V]
			if tails[j] < 0 || heads[j] < 0 {
				return nil, fmt.Errorf("chain: cut link %d endpoints not in adjacent segments", eid)
			}
		}
		st.tails = append(st.tails, tails)
		st.heads = append(st.heads, heads)
	}
	return st, nil
}

// applyCut folds a cut's failure states into the distribution: each
// surviving subset E” keeps only the assignments it supports.
func applyCut(dist []float64, g *graph.Graph, cut []graph.EdgeID, ds *assign.Set) []float64 {
	pCut := make([]float64, len(cut))
	for i, eid := range cut {
		pCut[i] = g.Edge(eid).PFail
	}
	classes := ds.Classify()
	out := make([]float64, len(dist))
	//flowrelvet:unbounded single O(2^k)·|dist| fold over one cut; the segment enumerations that drive it charge the budget (reviewed: PR-3)
	for e := uint64(0); e < uint64(1)<<uint(len(cut)); e++ {
		pe := conf.Prob(pCut, e)
		if pe == 0 {
			continue
		}
		cls := classes[e]
		for m, p := range dist {
			if p != 0 {
				out[uint64(m)&cls] += p * pe
			}
		}
	}
	return out
}

// sinkProbability folds the last segment: the answer is the probability
// that the final segment absorbs at least one assignment in the reachable
// set.
func sinkProbability(dist []float64, seg *graph.Subgraph, t graph.NodeID, heads []graph.NodeID, ds *assign.Set, opt Options) (float64, int64, error) {
	agg, calls, err := endLaw(seg, t, heads, false, ds, opt)
	if err != nil {
		return 0, 0, err
	}
	total := 0.0
	for m, p := range dist {
		if p == 0 {
			continue
		}
		for rm, q := range agg {
			if q != 0 && uint64(m)&uint64(rm) != 0 {
				total += p * q
			}
		}
	}
	return total, calls, nil
}

// endLaw builds an end segment's §III-C side array with core's frontier
// walk — an end segment is the side of its one cut — and returns the law
// of its realized-assignment mask: law[r] is the probability that the
// segment realizes exactly the assignments r of ds. toSink=true for the
// source segment (route from the terminal to the cut tails), false for
// the sink segment (from the cut heads to the terminal). The law is
// summed densely in mask order, reading each mask's realized set from the
// walk's rows (a map would sum in random iteration order and break
// bit-determinism).
func endLaw(seg *graph.Subgraph, terminal graph.NodeID, ends []graph.NodeID, toSink bool, ds *assign.Set, opt Options) ([]float64, int64, error) {
	var st core.Stats
	rows, err := core.BuildSide(seg, terminal, ends, toSink, ds, &core.Options{Ctl: opt.Ctl, TestHook: opt.TestHook}, &st)
	if err != nil {
		return nil, 0, err
	}
	pFail := make([]float64, seg.G.NumEdges())
	for i, e := range seg.G.Edges() {
		pFail[i] = e.PFail
	}
	return core.SideLaw(rows, ds.Len(), pFail), st.MaxFlowCalls, nil
}

// middleTransition pushes the reachable-set distribution through one
// middle segment: for each failure configuration of the segment, the
// relation rows[a] ⊆ 𝒟_{next} (which outgoing assignments the
// configuration can forward incoming assignment a to) maps every
// reachable set S to its image ∪_{a∈S} rows[a].
func middleTransition(dist []float64, seg *graph.Subgraph, heads []graph.NodeID, dsIn *assign.Set, tails []graph.NodeID, dsOut *assign.Set, d int, opt Options) ([]float64, int64, error) {
	m := seg.G.NumEdges()
	// Collect the active states once; the image computation is linear in
	// the number of live masks rather than 2^{|𝒟in|}.
	type state struct {
		mask uint64
		p    float64
	}
	var active []state
	for mk, p := range dist {
		if p != 0 {
			active = append(active, state{uint64(mk), p})
		}
	}
	out := make([]float64, uint64(1)<<uint(dsOut.Len()))
	if len(active) == 0 {
		return out, 0, nil
	}

	proto := maxflow.New(seg.G.NumNodes())
	superIn := proto.AddNode()
	superOut := proto.AddNode()
	handles := make([]maxflow.Handle, m)
	for _, e := range seg.G.Edges() {
		handles[e.ID] = proto.AddDirected(int32(e.U), int32(e.V), e.Cap)
	}
	inArcs := make([]maxflow.Handle, len(heads))
	for i, y := range heads {
		inArcs[i] = proto.AddDirected(superIn, int32(y), 0)
	}
	outArcs := make([]maxflow.Handle, len(tails))
	for i, x := range tails {
		outArcs[i] = proto.AddDirected(int32(x), superOut, 0)
	}

	pFail := make([]float64, m)
	for i, e := range seg.G.Edges() {
		pFail[i] = e.PFail
	}
	table := conf.NewTable(pFail)

	chunks := conf.SplitEnum(m)
	partial := make([][]float64, len(chunks))
	callsPer := make([]int64, len(chunks))
	err := anytime.Run(opt.Ctl, opt.Parallelism, len(chunks), "chain middle-segment worker", func(ci int, cur *uint64) {
		nw := proto.Clone()
		local := make([]float64, len(out))
		rows := make([]uint64, dsIn.Len())
		anytime.Walk(opt.Ctl, opt.TestHook, nw, handles, chunks[ci][0], chunks[ci][1], cur, func(mask uint64) {
			// The relation of this configuration.
			for ai, a := range dsIn.Assignments {
				rows[ai] = 0
				for i := range inArcs {
					nw.SetBaseCapDirected(inArcs[i], a[i])
				}
				for bi, b := range dsOut.Assignments {
					for i := range outArcs {
						nw.SetBaseCapDirected(outArcs[i], b[i])
					}
					if nw.MaxFlow(superIn, superOut, d) >= d {
						rows[ai] |= 1 << uint(bi)
					}
				}
			}
			pc := table.Prob(mask)
			for _, st := range active {
				var img uint64
				rem := st.mask
				for rem != 0 {
					ai := bits.TrailingZeros64(rem)
					rem &= rem - 1
					img |= rows[ai]
				}
				local[img] += st.p * pc
			}
		})
		partial[ci] = local
		callsPer[ci] = nw.Stats.MaxFlowCalls
	})

	var calls int64
	for ci := range callsPer {
		calls += callsPer[ci]
	}
	if err != nil {
		return nil, calls, err
	}
	if opt.Ctl.Stopped() {
		return nil, calls, fmt.Errorf("chain: segment enumeration interrupted: %w", opt.Ctl.Err())
	}
	for ci := range partial {
		for mk, p := range partial[ci] {
			out[mk] += p
		}
	}
	return out, calls, nil
}
