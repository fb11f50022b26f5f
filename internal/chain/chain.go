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
// intersects S with its supported class. Whether a segment configuration
// carries an incoming assignment a to an outgoing one b is monotone in
// the configuration, as a side's realization is, so core's word walk —
// the §III-C side walk of the single-cut algorithm — builds every
// segment's relation (core.BuildSegment); the end segments take the
// terminal's one assignment (d) at s or t. What is left here is the DP:
// one loop that folds each segment's per-configuration relation into the
// law of S and applies the next cut.
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
	"slices"
	"sort"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/bitset"
	"flowrel/internal/conf"
	"flowrel/internal/core"
	"flowrel/internal/graph"
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

// Options tunes the solver.
type Options struct {
	// MaxSegmentEdges bounds each segment's link count (default 20). It
	// can only lower core's bound of 26 (core.MaxSideLinks).
	MaxSegmentEdges int
	// MaxAssignmentSet bounds each cut's |𝒟ᵢ| (default 16; the DP state
	// space is 2^{|𝒟ᵢ|}). It can only lower core's bound of 20
	// (core.MaxAssignments).
	MaxAssignmentSet int
	// Ctl optionally makes the run cancellable. The assignment-set DP is
	// all-or-nothing (a half-built segment distribution certifies no mass),
	// so an interrupted run returns an error wrapping
	// anytime.ErrInterrupted; callers fall back to an engine that can
	// certify partial answers.
	Ctl *anytime.Ctl
	// TestHook, when set, is called with each segment configuration mask
	// before the feasibility checks of its word of 64 masks. Tests use it
	// to inject faults.
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
	// Configs counts the (pair, configuration) decisions of the segments
	// walked, Σ pairsᵢ·2^{|Eᵢ|}: exactly what the walks charge opt.Ctl.
	Configs         uint64
	MaxFlowCalls    int64
	AugmentingPaths int64
}

// chainStructure is the validated decomposition.
type chainStructure struct {
	cuts [][]graph.EdgeID  // ordered source→sink
	segs []*graph.Subgraph // r+1 segments, source side first
	// in and out are segment i's entry and exit nodes: the heads of cut
	// i−1 and the tails of cut i, or the terminal at either end.
	in, out [][]graph.NodeID
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
		res.SegmentEdges = append(res.SegmentEdges, seg.G.NumEdges())
	}
	// fams[i] is the assignment family entering segment i: the single
	// assignment (d) at s, then 𝒟ᵢ behind cut i, and (d) at t last.
	whole := []assign.Assignment{{dem.D}}
	fams := [][]assign.Assignment{whole}
	var sets []*assign.Set
	for _, cut := range st.cuts {
		caps := make([]int, len(cut))
		for j, eid := range cut {
			caps[j] = g.Edge(eid).Cap
		}
		ds, err := assign.NewSet(caps, dem.D)
		if err != nil {
			return Result{}, err
		}
		res.AssignSizes = append(res.AssignSizes, ds.Len())
		if ds.Len() == 0 {
			return res, nil // some cut cannot carry d at all: reliability 0
		}
		sets = append(sets, ds)
		fams = append(fams, ds.Assignments)
	}
	fams = append(fams, whole)
	if err := checkLimits(st, sets, fams, opt); err != nil {
		return Result{}, err
	}

	// law[S] is the probability that exactly the assignments S of fams[i]
	// reach segment i; at s that is its one assignment, surely.
	solveStart := time.Now()
	law := []float64{0, 1}
	for i, seg := range st.segs {
		start := time.Now()
		var cs core.Stats
		rel, err := core.BuildSegment(seg, st.in[i], fams[i], st.out[i], fams[i+1], dem.D,
			&core.Options{Ctl: opt.Ctl, TestHook: opt.TestHook}, &cs)
		if err == nil {
			law, err = fold(law, rel, len(fams[i+1]), seg, opt.Ctl)
		}
		if err != nil {
			return Result{}, fmt.Errorf("chain: segment/%d: %w", i, err)
		}
		configs := uint64(len(fams[i])*len(fams[i+1])) << uint(seg.G.NumEdges())
		res.Configs += configs
		res.MaxFlowCalls += cs.MaxFlowCalls
		res.AugmentingPaths += cs.AugmentingPaths
		if tr := opt.Ctl.Tracer(); tr != nil {
			tr.OnPhase(stats.PhaseEvent{Engine: "chain", Phase: fmt.Sprintf("segment/%d", i),
				Duration: time.Since(start), Configs: configs, MaxFlowCalls: cs.MaxFlowCalls})
		}
		if i < len(st.cuts) {
			law = applyCut(law, g, st.cuts[i], sets[i])
		}
		if !slices.ContainsFunc(law[1:], func(p float64) bool { return p != 0 }) {
			break // nothing reaches the next segment: the answer is 0
		}
	}
	// After the sink segment law[1] is the probability that t receives d;
	// after an early stop it is 0.
	res.Reliability = law[1]
	mSolves.Inc()
	mSolveTime.Observe(time.Since(solveStart))
	mMaxFlowCalls.Add(res.MaxFlowCalls)
	return res, nil
}

// checkLimits refuses, before any walk, a chain whose DP lattices or
// segment rows would outgrow core's bounds, with an error wrapping
// core.ErrLimit: each |𝒟ᵢ| (a lattice of 2^{|𝒟ᵢ|} floats), each cut's
// class table of 2^{|Cᵢ|} entries, each segment's links, and each
// segment's rows, one per pair of fams[i] × fams[i+1], of 2^{|Eᵢ|} bits.
func checkLimits(st *chainStructure, sets []*assign.Set, fams [][]assign.Assignment, opt Options) error {
	lim := min(opt.MaxAssignmentSet, core.MaxAssignments)
	for i, ds := range sets {
		if n := ds.Len(); n > lim {
			return fmt.Errorf("%w: |𝒟_%d| = %d exceeds %s (reduce d·k)", core.ErrLimit, i+1, n, core.LimitName("MaxAssignmentSet", lim, core.MaxAssignments))
		}
		if ds.K > core.MaxCutLinks {
			return fmt.Errorf("%w: cut %d has %d links, exceeding the evaluate kernel's %d", core.ErrLimit, i+1, ds.K, core.MaxCutLinks)
		}
	}
	lim = min(opt.MaxSegmentEdges, core.MaxSideLinks)
	for i, seg := range st.segs {
		m := seg.G.NumEdges()
		if m > lim {
			return fmt.Errorf("%w: segment/%d has %d links, exceeding %s", core.ErrLimit, i, m, core.LimitName("MaxSegmentEdges", lim, core.MaxSideLinks))
		}
		if pairs := len(fams[i]) * len(fams[i+1]); uint64(pairs)<<uint(m) > core.MaxRowBits {
			return fmt.Errorf("%w: segment/%d's %d assignment pairs over %d links exceed the %d row bits a plan side may hold", core.ErrLimit, i, pairs, m, core.MaxRowBits)
		}
	}
	return nil
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
		st.out = append(st.out, tails)
		st.in = append(st.in, heads)
	}
	st.in = append([][]graph.NodeID{{st.segs[0].NodeOf[dem.S]}}, st.in...)
	st.out = append(st.out, []graph.NodeID{st.segs[len(cuts)].NodeOf[dem.T]})
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

// fold pushes law through one segment: configuration mask, as likely as
// its links' states, carries each reachable set S of in-assignments to
// the out-assignments its members reach, ∪_{a∈S} rel.Relation(a, mask),
// of which there are nOut. The empty set reaches nothing further, so its
// mass stays behind. The configurations are summed in ascending order.
func fold(law []float64, rel core.Segment, nOut int, seg *graph.Subgraph, ctl *anytime.Ctl) ([]float64, error) {
	type state struct {
		set uint64
		p   float64
	}
	var live []state
	var in uint64 // the in-assignments some live set holds
	for set := 1; set < len(law); set++ {
		if law[set] != 0 {
			live = append(live, state{uint64(set), law[set]})
			in |= uint64(set)
		}
	}
	pFail := make([]float64, seg.G.NumEdges())
	for i, e := range seg.G.Edges() {
		pFail[i] = e.PFail
	}
	table := conf.NewTable(pFail)
	reach := make([]uint64, bits.Len64(in)) // per in-assignment, under mask
	out := make([]float64, uint64(1)<<uint(nOut))
	for mask := uint64(0); mask < uint64(1)<<uint(len(pFail)); mask++ {
		if ctl.Stopped() {
			return nil, fmt.Errorf("fold interrupted: %w", ctl.Err())
		}
		for r := in; r != 0; r &= r - 1 {
			a := bits.TrailingZeros64(r)
			reach[a] = rel.Relation(a, mask)
		}
		pc := table.Prob(mask)
		for _, s := range live {
			var img uint64
			for r := s.set; r != 0; r &= r - 1 {
				img |= reach[bits.TrailingZeros64(r)]
			}
			out[img] += s.p * pc
		}
	}
	return out, nil
}
