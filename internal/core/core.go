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
// Each phase has one production path. Step 3 is an ascending walk that
// decides 64 configurations per machine word, most of them without a
// max-flow call (frontier.go), and step 4 aggregates each side once and
// applies a superset-zeta transform, so every inclusion–exclusion term
// is a table lookup. The paper-literal forms — a dense walk that solves
// every pair from scratch and the subset-scan ACCUMULATION — are the
// test oracles these paths are held to (oracle_test.go).
package core

import (
	"errors"
	"fmt"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
	"flowrel/internal/stats"
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
	// side-array time and memory grow as 2^{|E_side|}). It can only lower
	// the evaluate kernel's bound of 26 (see ErrLimit).
	MaxSideEdges int
	// MaxAssignmentSet bounds |𝒟| (default 20; the accumulation lattice
	// takes O(2^{|𝒟|}) memory). The paper assumes d and k constant, which
	// is exactly this bound. It can only lower the evaluate kernel's
	// bound of 20.
	MaxAssignmentSet int
	// Ctl optionally makes the run cancellable. The decomposition cannot
	// certify a partial answer (the side arrays are all-or-nothing), so an
	// interrupted run returns an error wrapping anytime.ErrInterrupted;
	// callers fall back to an engine that can certify partial mass.
	Ctl *anytime.Ctl
	// TestHook, when set, is called with each side configuration mask just
	// before the feasibility checks of its word of 64 masks. Tests use it
	// to inject faults.
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
}

// ErrLimit is wrapped by every compile error that rejects a plan for its
// size. Each size is checked once, against the smaller of the caller's
// option and the evaluate kernel's fixed bound: |𝒟| against
// MaxAssignmentSet and 20, each side against MaxSideEdges and 26 links.
// The kernel also bounds the bottleneck cut at 22 links (its class table
// has 2^k entries) and the inclusion–exclusion term table at 2^22
// entries. The check runs before any side walk, so a rejected compile or
// mutation pays no max-flow call and charges its Ctl nothing.
var ErrLimit = errors.New("core: compile limit")

// checkLimits is the one size check of every compile, cold or delta, so
// both refuse the same plans with the same error. sides are the two side
// link counts. The cheap bounds come first; only then is the 2^k class
// table built for the term bound, unless the caller passes it in classes
// (a delta compile shares its parent's). It returns the class table.
func checkLimits(ds *assign.Set, classes []uint64, sides [2]int, opt *Options) ([]uint64, error) {
	if n, lim := ds.Len(), min(opt.MaxAssignmentSet, MaxAssignments); n > lim {
		return nil, fmt.Errorf("%w: |𝒟| = %d exceeds %s (reduce d·k)", ErrLimit, n, LimitName("MaxAssignmentSet", lim, MaxAssignments))
	}
	lim := min(opt.MaxSideEdges, MaxSideLinks)
	for _, m := range sides {
		if m > lim {
			return nil, fmt.Errorf("%w: component has %d links, exceeding %s", ErrLimit, m, LimitName("MaxSideEdges", lim, MaxSideLinks))
		}
	}
	if ds.K > MaxCutLinks {
		return nil, fmt.Errorf("%w: bottleneck has %d links, exceeding the evaluate kernel's %d", ErrLimit, ds.K, MaxCutLinks)
	}
	if classes == nil {
		classes = ds.Classify()
	}
	if terms := termCount(classes); terms > maxKernelTerms {
		return nil, fmt.Errorf("%w: %d inclusion–exclusion terms exceed the evaluate kernel's %d", ErrLimit, terms, maxKernelTerms)
	}
	return classes, nil
}

// LimitName names the effective bound lim = min(option, kernel): the
// option while the caller set it below the kernel's bound, else the
// kernel's bound, which no option raises. The chain solver names its
// bounds with it too.
func LimitName(option string, lim, kernel int) string {
	if lim < kernel {
		return fmt.Sprintf("%s %d (raise it, up to %d)", option, lim, kernel)
	}
	return fmt.Sprintf("the evaluate kernel's %d", kernel)
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
	// table the compile built for the evaluate phase (zero only for a
	// trivial plan, whose cut cannot carry the demand).
	KernelTerms int64
	// KernelSegments counts the (row word, realized set) runs across
	// both sides: the set sums one Eval adds, one per realized set present
	// in each 64-mask word of a side's rows.
	KernelSegments int64
	// KernelLanes is the batch kernel's block width (8, or 1 when the
	// eight-lane scratch would exceed the memory budget; 0 only for a
	// trivial plan). Like every field here it is fixed at compile time.
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

// buildSide constructs the §III-C realization array for one side of a
// compile: for every failure configuration of the side's links, the set
// of assignments it realizes, kept as the walk decides it: one bit row
// per assignment (frontier.go, rows.go). Occurrence probabilities are
// *not* part of it — they belong to the evaluate phase (Plan.Eval),
// which is what makes a compiled Plan reusable across probability
// vectors. terminal is the side's real terminal (s or t, in side node
// IDs); ends are the side's endpoints of the bottleneck links (x_i or
// y_i); toSink selects the G_s orientation (route from terminal to the
// bottleneck endpoints) versus G_t (from the endpoints to the terminal).
// It records the side's configuration count and reports the side's
// phase to the tracer.
func buildSide(sub *graph.Subgraph, terminal graph.NodeID, ends []graph.NodeID, toSink bool, ds *assign.Set, opt *Options, st *Stats, sideIdx int) ([]uint64, error) {
	buildStart := time.Now()
	callsBefore := st.MaxFlowCalls
	rows, err := walkFrontier(newFrontierCtx(sub, terminal, ends, toSink, ds, opt), st)
	if err != nil {
		return nil, err
	}
	st.SideConfigs[sideIdx] = uint64(1) << uint(sub.G.NumEdges())
	if tr := opt.Ctl.Tracer(); tr != nil {
		tr.OnPhase(stats.PhaseEvent{
			Engine:       "core",
			Phase:        fmt.Sprintf("side/%d", sideIdx),
			Duration:     time.Since(buildStart),
			Configs:      st.SideConfigs[sideIdx],
			MaxFlowCalls: st.MaxFlowCalls - callsBefore,
		})
	}
	return rows, nil
}

// sideProto builds the prototype max-flow network for one component: the
// component links plus one super terminal carrying the per-assignment
// demand arcs. Shared by the cold and delta walks and by the dense
// reference walk the tests hold them to, so all of them solve on
// byte-identical networks.
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
