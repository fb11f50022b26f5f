// Package core implements the paper's contribution: exact flow-reliability
// calculation in O(2^{α|E|}·|V|·|E|) time for graphs with a constant-size
// set of α-bottleneck links (Fujita, IPDPSW 2017).
//
// The algorithm (§III–IV of the paper):
//
//  1. Split G by a minimal s–t cut E' = {e₁,…,e_k} into sides G_s and G_t.
//  2. Enumerate the assignment set 𝒟 of the d sub-streams to the k
//     bottleneck links (§III-B).
//  3. For each side, build an array indexed by the side's 2^{|E_side|}
//     failure configurations whose entries record, as a |𝒟|-bit vector,
//     which assignments the configuration realizes (§III-C); one max-flow
//     computation per (assignment, configuration) pair decides each bit.
//  4. For every bottleneck-link configuration E” ⊆ E', combine the two
//     arrays by the inclusion–exclusion principle over the supported
//     assignment class 𝒟_{E”} (procedure ACCUMULATION, §IV-B) and weight
//     by the probability p_{E”} of that configuration (Eq. 2–3).
//
// Two ablation axes mirror design choices the paper leaves implicit:
// side-array construction may recompute each max flow from scratch or walk
// the configurations in Gray-code order repairing the previous flow, and
// the accumulation may follow the paper's literal subset scan or aggregate
// once with a superset-zeta transform.
package core

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
	"flowrel/internal/mincut"
	"flowrel/internal/stats"
)

// SideEngine selects how the per-side realization arrays are built.
type SideEngine int

const (
	// SideFrontier (the default) walks the configurations once in
	// ascending order on the calling goroutine and exploits the
	// monotonicity of flow feasibility: a bit-parallel superset closure
	// marks every configuration above an already-realized one, and a
	// capacity bound and the minimum cuts of earlier failed solves
	// discard configurations that cannot carry an assignment's load — so
	// max-flow is paid only where none of these decides. It produces
	// bit-identical realization arrays to SideBinary (frontier.go).
	SideFrontier SideEngine = iota
	// SideBinary solves every (assignment, configuration) max-flow
	// problem from scratch, in plain binary counting order.
	SideBinary
	// SideGrayCode walks configurations in Gray-code order and repairs
	// the previous flow after the single link flip.
	SideGrayCode
)

// SideRecompute is the former name of SideBinary.
//
// Deprecated: use SideBinary.
const SideRecompute = SideBinary

// Accumulation selects how per-class probabilities are combined.
type Accumulation int

const (
	// AccumZeta aggregates configuration probabilities by realized
	// assignment mask and applies a superset-zeta transform once; each
	// inclusion–exclusion term is then a table lookup.
	AccumZeta Accumulation = iota
	// AccumDirect follows procedure ACCUMULATION literally: for every
	// subset X of the supported class, scan the side arrays to compute
	// p_X, then apply inclusion–exclusion.
	AccumDirect
)

// Options tunes the solver.
type Options struct {
	// Bottleneck optionally fixes the bottleneck link set E'. When nil the
	// solver searches for the minimal cut with the most balanced split
	// among cuts of at most MaxBottleneck links.
	Bottleneck []graph.EdgeID
	// MaxBottleneck bounds the bottleneck search (default 3).
	MaxBottleneck int
	// MaxSideEdges bounds the enumerated side size |E_side| (default 20;
	// side-array time and memory grow as 2^{|E_side|}).
	MaxSideEdges int
	// MaxAssignmentSet bounds |𝒟| (default 20; the accumulation lattice
	// takes O(2^{|𝒟|}) memory). The paper assumes d and k constant, which
	// is exactly this bound.
	MaxAssignmentSet int
	// Parallelism is the number of worker goroutines for the dense side
	// engines (SideBinary, SideGrayCode); ≤ 0 means GOMAXPROCS. The
	// default SideFrontier walk runs on the calling goroutine.
	Parallelism int
	Side        SideEngine
	Accum       Accumulation
	// Ctl optionally makes the run cancellable. The decomposition cannot
	// certify a partial answer (the side arrays are all-or-nothing), so an
	// interrupted run returns an error wrapping anytime.ErrInterrupted;
	// callers fall back to an engine that can certify partial mass.
	Ctl *anytime.Ctl
	// TestHook, when set, is called with each side configuration mask just
	// before its feasibility checks. Tests use it to inject faults.
	TestHook func(configIndex uint64)
}

func (o *Options) setDefaults() {
	if o.MaxBottleneck <= 0 {
		o.MaxBottleneck = 3
	}
	if o.MaxSideEdges <= 0 {
		o.MaxSideEdges = 20
	}
	if o.MaxAssignmentSet <= 0 {
		o.MaxAssignmentSet = 20
	}
	if o.Parallelism <= 0 {
		o.Parallelism = defaultParallelism()
	}
}

// Stats reports the work performed.
type Stats struct {
	MaxFlowCalls int64
	AugmentUnits int64
	// AugmentingPaths counts individual augmenting paths found across all
	// max-flow solves — the inner-loop cost the call count hides.
	AugmentingPaths int64
	// SideConfigs is the number of failure configurations enumerated per
	// side (2^{|E_s|} and 2^{|E_t|}).
	SideConfigs [2]uint64
	// RealizationChecks counts (assignment, configuration) feasibility
	// decisions — the paper's |𝒟|·2^{|E_side|} cost term.
	RealizationChecks int64
	// PrunedCapacity counts (assignment, configuration) pairs the frontier
	// and delta walks decided unrealizable without a max-flow call
	// because a cut below the assignment's load separates them: the live
	// links' capacity sum, or the minimum cut of an earlier failed solve
	// of the same walk (a cut certificate).
	PrunedCapacity int64
	// PrunedClosure counts pairs decided realizable by superset closure:
	// a submask of the configuration already realizes the assignment.
	PrunedClosure int64
	// FrontierMaxFlowCalls counts the max-flow invocations the frontier
	// engine actually paid (the pairs no closure, capacity bound or
	// certificate decided, including incremental repair solves); the
	// pruned pairs above are the calls a dense enumeration would have
	// made instead.
	FrontierMaxFlowCalls int64
	// DeltaReused counts (assignment, configuration) decisions a delta
	// compile (MutatePlan) inherited from the parent plan — copied or
	// index-remapped instead of re-decided. Zero for cold compiles.
	DeltaReused int64
	// KernelTerms is the size of the flattened inclusion–exclusion term
	// table the compile built for the evaluate phase (zero when the
	// instance is outside the kernel guards and evaluation stays scalar).
	KernelTerms int64
	// KernelSegments counts the realized-mask segments across both sides
	// — the contiguous runs the segmented aggregation sums per Eval.
	KernelSegments int64
	// KernelLanes is the batch kernel's block width (8, or 1 when the
	// eight-lane scratch would exceed the memory budget; 0 without a
	// kernel). Like every field here it is fixed at compile time.
	KernelLanes int64
}

// Result is the solver's answer plus the decomposition it used.
type Result struct {
	Reliability float64
	Cut         []graph.EdgeID // the bottleneck links E'
	K           int            // |E'|
	Alpha       float64        // max(|E_s|,|E_t|)/|E|
	Assignments []assign.Assignment
	SideEdges   [2]int // |E_s|, |E_t|
	Stats       Stats
}

// Reliability computes the exact reliability of g with respect to dem
// using the bottleneck decomposition. It is exactly Compile followed by
// one Eval of the graph's own probabilities; callers with repeated
// probability-only questions should hold on to the Plan instead.
func Reliability(g *graph.Graph, dem graph.Demand, opt Options) (Result, error) {
	plan, err := Compile(g, dem, opt)
	if err != nil {
		return Result{}, err
	}
	return planResult(plan)
}

// ReliabilityWithBottleneck runs the decomposition on a pre-validated
// bottleneck split.
func ReliabilityWithBottleneck(g *graph.Graph, dem graph.Demand, bt *mincut.Bottleneck, opt Options) (Result, error) {
	plan, err := CompileWithBottleneck(g, dem, bt, opt)
	if err != nil {
		return Result{}, err
	}
	return planResult(plan)
}

// planResult evaluates a freshly compiled plan at its own base
// probabilities and packages the decomposition description.
func planResult(plan *Plan) (Result, error) {
	r, err := plan.Eval(nil)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Reliability: r,
		Cut:         plan.Cut,
		K:           plan.K(),
		Alpha:       plan.Alpha,
		Assignments: plan.Assignments,
		SideEdges:   plan.SideEdges,
		Stats:       plan.Stats,
	}, nil
}

// sideArray is the §III-C data structure for one component: for every
// failure configuration of the component's links, the set of assignments
// it realizes (as a bit mask over 𝒟). Occurrence probabilities are *not*
// part of it — they belong to the evaluate phase (Plan.Eval), which is
// what makes a compiled Plan reusable across probability vectors.
type sideArray struct {
	m        int      // number of component links
	realized []uint64 // indexed by configuration mask
}

// buildSide constructs the realization array for one component. terminal
// is the component's real terminal (s or t, in component node IDs); ends
// are the component-side endpoints of the bottleneck links (x_i or y_i);
// toSink selects the G_s orientation (route from terminal to the
// bottleneck endpoints) versus G_t (from the endpoints to the terminal).
func buildSide(sub *graph.Subgraph, terminal graph.NodeID, ends []graph.NodeID, toSink bool, ds *assign.Set, opt *Options, st *Stats, sideIdx int) (*sideArray, error) {
	m := sub.G.NumEdges()
	if m > opt.MaxSideEdges {
		return nil, fmt.Errorf("core: component has %d links, exceeding MaxSideEdges %d", m, opt.MaxSideEdges)
	}
	buildStart := time.Now()
	callsBefore := st.MaxFlowCalls

	sa := &sideArray{
		m:        m,
		realized: make([]uint64, uint64(1)<<uint(m)),
	}
	st.SideConfigs[sideIdx] = uint64(1) << uint(m)

	var err error
	if opt.Side == SideFrontier {
		err = buildSideFrontier(newFrontierCtx(sub, terminal, ends, toSink, ds, opt), sa.realized, st)
	} else {
		proto, handles, demandArcs, src, dst := sideProto(sub, terminal, ends, toSink)
		err = buildSideWave(proto, handles, demandArcs, src, dst, ds, opt, st, sa, opt.Side)
	}
	if err != nil {
		return nil, err
	}
	if opt.Ctl.Stopped() {
		return nil, fmt.Errorf("core: side-array construction interrupted: %w", opt.Ctl.Err())
	}
	if tr := opt.Ctl.Tracer(); tr != nil {
		tr.OnPhase(stats.PhaseEvent{
			Engine:       "core",
			Phase:        fmt.Sprintf("side/%d", sideIdx),
			Duration:     time.Since(buildStart),
			Configs:      st.SideConfigs[sideIdx],
			MaxFlowCalls: st.MaxFlowCalls - callsBefore,
		})
	}
	return sa, nil
}

// sideProto builds the prototype max-flow network for one component: the
// component links plus one super terminal carrying the per-assignment
// demand arcs. Shared by every side engine, cold or delta, so all of
// them solve on byte-identical networks.
func sideProto(sub *graph.Subgraph, terminal graph.NodeID, ends []graph.NodeID, toSink bool) (proto *maxflow.Network, handles, demandArcs []maxflow.Handle, src, dst int32) {
	proto = maxflow.New(sub.G.NumNodes())
	super := proto.AddNode()
	handles = make([]maxflow.Handle, sub.G.NumEdges())
	for _, e := range sub.G.Edges() {
		handles[e.ID] = proto.AddDirected(int32(e.U), int32(e.V), e.Cap)
	}
	demandArcs = make([]maxflow.Handle, len(ends))
	for i, x := range ends {
		if toSink {
			demandArcs[i] = proto.AddDirected(int32(x), super, 0)
		} else {
			demandArcs[i] = proto.AddDirected(super, int32(x), 0)
		}
	}
	if toSink {
		src, dst = int32(terminal), super
	} else {
		src, dst = super, int32(terminal)
	}
	return proto, handles, demandArcs, src, dst
}

// sideNeeds computes the per-assignment net demand that must cross the
// side links. Flow that enters the super terminal straight from the real
// terminal (a bottleneck endpoint on the terminal itself) never crosses a
// side link; only the remainder bounds the live-capacity sum, so the
// capacity filter must use need = d − direct.
func sideNeeds(ds *assign.Set, ends []graph.NodeID, terminal graph.NodeID) []int {
	need := make([]int, ds.Len())
	for j, a := range ds.Assignments {
		direct := 0
		for i, x := range ends {
			if x == terminal {
				direct += a[i]
			}
		}
		need[j] = ds.D - direct
	}
	return need
}

// buildSideWave runs the dense enumeration engines (binary, Gray code):
// one worker wave where each chunk worker owns a private network clone and
// loops over all assignments itself (setting the demand-arc loads on its
// own copy), so the clone and spawn cost is paid once rather than once per
// assignment. Each chunk accumulates into its own Stats slot; the slots
// are summed after the wave completes, so the hot path takes no lock.
func buildSideWave(proto *maxflow.Network, handles []maxflow.Handle, demandArcs []maxflow.Handle, src, dst int32, ds *assign.Set, opt *Options, st *Stats, sa *sideArray, engine SideEngine) error {
	m := sa.m
	chunks := conf.SplitEnum(m)
	errs := make([]error, len(chunks))
	chunkStats := make([]Stats, len(chunks))
	var wg sync.WaitGroup
	sem := make(chan struct{}, opt.Parallelism)
	for ci, r := range chunks {
		wg.Add(1)
		go func(ci int, lo, hi uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cur := lo
			defer anytime.RecoverInto(&errs[ci], opt.Ctl, "core side-array worker", &cur)
			if opt.Ctl.Stopped() {
				return
			}
			nw := proto.Clone()
			cst := &chunkStats[ci]
			for j, a := range ds.Assignments {
				if opt.Ctl.Stopped() {
					break
				}
				for i := range demandArcs {
					nw.SetBaseCapDirected(demandArcs[i], a[i])
				}
				bit := uint64(1) << uint(j)
				var n uint64
				if engine == SideGrayCode {
					n = sideGrayChunk(nw, handles, src, dst, ds.D, bit, sa, lo, hi, opt, &cur)
				} else {
					n = sideBinaryChunk(nw, handles, src, dst, ds.D, bit, sa, lo, hi, opt, &cur)
				}
				cst.RealizationChecks += int64(n)
			}
			cst.MaxFlowCalls = nw.Stats.MaxFlowCalls
			cst.AugmentUnits = nw.Stats.AugmentUnits
			cst.AugmentingPaths = nw.Stats.AugmentingPaths
		}(ci, r[0], r[1])
	}
	wg.Wait()
	for ci := range chunkStats {
		st.add(&chunkStats[ci])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// add accumulates the per-worker counters of o into st (SideConfigs is
// set once by buildSide, not summed).
func (st *Stats) add(o *Stats) {
	st.MaxFlowCalls += o.MaxFlowCalls
	st.AugmentUnits += o.AugmentUnits
	st.AugmentingPaths += o.AugmentingPaths
	st.RealizationChecks += o.RealizationChecks
	st.PrunedCapacity += o.PrunedCapacity
	st.PrunedClosure += o.PrunedClosure
	st.FrontierMaxFlowCalls += o.FrontierMaxFlowCalls
	st.DeltaReused += o.DeltaReused
}

// sideBinaryChunk solves each configuration in [lo,hi) from scratch,
// setting the given assignment bit where realized. It returns the number
// of configurations actually decided (fewer than hi−lo when interrupted).
func sideBinaryChunk(nw *maxflow.Network, handles []maxflow.Handle, src, dst int32, d int, bit uint64, sa *sideArray, lo, hi uint64, opt *Options, cur *uint64) uint64 {
	prev := ^uint64(0)
	width := uint64(1)<<uint(len(handles)) - 1
	var sinceCheck, n uint64
	callsMark := nw.Stats.MaxFlowCalls
	for mask := lo; mask < hi; mask++ {
		if sinceCheck >= anytime.CheckEvery {
			if !opt.Ctl.Charge(sinceCheck, nw.Stats.MaxFlowCalls-callsMark) {
				return n
			}
			sinceCheck, callsMark = 0, nw.Stats.MaxFlowCalls
		}
		sinceCheck++
		*cur = mask
		if opt.TestHook != nil {
			opt.TestHook(mask)
		}
		diff := (mask ^ prev) & width
		for diff != 0 {
			i := trailingZeros(diff)
			diff &= diff - 1
			nw.SetEnabled(handles[i], mask&(1<<uint(i)) != 0)
		}
		prev = mask
		if nw.MaxFlow(src, dst, d) >= d {
			sa.realized[mask] |= bit
		}
		n++
	}
	opt.Ctl.Charge(sinceCheck, nw.Stats.MaxFlowCalls-callsMark)
	return n
}

// sideGrayChunk walks Gray masks for indices [lo,hi), repairing the flow
// across single-link flips. Returns the number of configurations decided.
func sideGrayChunk(nw *maxflow.Network, handles []maxflow.Handle, src, dst int32, d int, bit uint64, sa *sideArray, lo, hi uint64, opt *Options, cur *uint64) uint64 {
	mask := conf.GrayMask(lo)
	for i := range handles {
		nw.SetEnabled(handles[i], mask&(1<<uint(i)) != 0)
	}
	*cur = mask
	if opt.TestHook != nil {
		opt.TestHook(mask)
	}
	nw.ResetFlow()
	value := nw.Augment(src, dst, d)
	if value >= d {
		sa.realized[mask] |= bit
	}
	var n uint64 = 1
	sinceCheck := uint64(1)
	callsMark := nw.Stats.MaxFlowCalls
	for i := lo + 1; i < hi; i++ {
		if sinceCheck >= anytime.CheckEvery {
			if !opt.Ctl.Charge(sinceCheck, nw.Stats.MaxFlowCalls-callsMark) {
				return n
			}
			sinceCheck, callsMark = 0, nw.Stats.MaxFlowCalls
		}
		sinceCheck++
		flip := conf.GrayFlip(i)
		b := uint64(1) << uint(flip)
		mask ^= b
		*cur = mask
		if opt.TestHook != nil {
			opt.TestHook(mask)
		}
		if mask&b != 0 {
			nw.EnableIncremental(handles[flip])
		} else {
			value -= nw.DisableIncremental(handles[flip], src, dst)
		}
		value += nw.Augment(src, dst, d-value)
		if value >= d {
			sa.realized[mask] |= bit
		}
		n++
	}
	opt.Ctl.Charge(sinceCheck, nw.Stats.MaxFlowCalls-callsMark)
	return n
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
