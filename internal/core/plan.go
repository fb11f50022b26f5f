package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/mincut"
	"flowrel/internal/stats"
	"flowrel/internal/subset"
)

// Plan is the compiled form of a bottleneck decomposition: everything the
// solver learns about the *structure* of the instance — the cut, the
// assignment family 𝒟, and the two sides' realization arrays, kept as the
// walk's bit rows, which the evaluate kernel reads one word at a time —
// none of which depends on the links' failure probabilities. Building a
// Plan costs the full O(2^{α|E|}·|V|·|E|) side-array phase (every max-flow
// call the solver will ever make); evaluating it against a probability
// vector costs only the aggregation O(2^{|E_s|} + 2^{|E_t|} + |𝒟|·2^{|𝒟|}
// + 3^k) — microseconds, no max-flow calls. One compile therefore answers every
// probability-only question about the instance: sweep curves, Birnbaum
// conditionals (p(e) ∈ {0,1}), shared-risk scenarios, what-if re-weightings.
//
// A Plan is immutable after Compile and safe for concurrent Eval calls.
type Plan struct {
	// Cut is the bottleneck link set E' (original-graph link IDs).
	Cut []graph.EdgeID
	// Alpha is the balance max(|E_s|, |E_t|)/|E| of the split.
	Alpha float64
	// Assignments is the enumerated family 𝒟 (empty when the cut cannot
	// carry the demand even fully operational — the plan then evaluates to
	// zero for every probability vector).
	Assignments []assign.Assignment
	// SideEdges is (|E_s|, |E_t|).
	SideEdges [2]int
	// Stats is the work of the compile phase; Eval adds nothing to it.
	Stats Stats

	numEdges  int                // links in the original graph
	version   int                // 0 for a cold compile; parent version + 1 after MutatePlan
	bt        *mincut.Bottleneck // the validated split, retained so MutatePlan can patch it
	ds        *assign.Set
	classes   []uint64          // ds.Classify(), indexed by bottleneck subset mask
	sideLinks [2][]graph.EdgeID // per side: side link index → original link ID
	basePFail []float64         // the graph's probabilities at compile time

	// rows holds each side's realization array, the only encoding a plan
	// keeps: one bit row per assignment (frontier.go, rows.go).
	rows [2][]uint64

	// kern is the evaluate phase's term table (kernel.go), flattened at
	// compile time and shared down a mutation chain; the side sums read
	// rows directly. The compile limits (checkLimits) guarantee one for
	// every plan with |𝒟| > 0; only a trivial plan has none. lanes is the
	// batch block width (kernelLanes).
	kern  *evalKernel
	lanes int
	// blockHook, when non-nil, runs once per work item inside the batch
	// worker loops — a test seam for asserting bounded concurrency.
	blockHook func()

	// deltaState hands each side's warm delta-solver state down the
	// mutation chain (delta.go). It is solver scratch, not observable plan
	// state: consuming or storing it never changes what the plan computes,
	// and the atomic pointer keeps concurrent MutatePlan calls on the same
	// parent race-free — exactly one consumes the warm state, the rest
	// build fresh, with bit-identical results either way.
	deltaState [2]atomic.Pointer[deltaSideState]
}

// Compile runs the structure phase once: cut search (unless fixed by
// opt.Bottleneck), assignment enumeration and parallel side-array
// construction. It honours opt.Ctl for cooperative cancellation; an
// interrupted compile returns an error wrapping anytime.ErrInterrupted
// (a half-built side array certifies nothing).
func Compile(g *graph.Graph, dem graph.Demand, opt Options) (*Plan, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := dem.Validate(g); err != nil {
		return nil, err
	}
	opt.setDefaults()

	var bt *mincut.Bottleneck
	var err error
	searchStart := time.Now()
	if opt.Bottleneck != nil {
		bt, err = mincut.Split(g, dem.S, dem.T, opt.Bottleneck)
	} else {
		bt, err = mincut.Find(g, dem.S, dem.T, opt.MaxBottleneck)
	}
	if err != nil {
		return nil, err
	}
	observePhase(opt.Ctl, mCutSearchTime, "cut-search", time.Since(searchStart))
	return CompileWithBottleneck(g, dem, bt, opt)
}

// observePhase charges one timed compile layer — the cut search (or the
// split that stands in for it) or the kernel build — to its registry
// timer and to the tracer's phase of that name.
func observePhase(ctl *anytime.Ctl, t *stats.Timer, phase string, d time.Duration) {
	t.Observe(d)
	if tr := ctl.Tracer(); tr != nil {
		tr.OnPhase(stats.PhaseEvent{Engine: "core", Phase: phase, Duration: d})
	}
}

// CompileWithBottleneck compiles on a pre-validated bottleneck split.
func CompileWithBottleneck(g *graph.Graph, dem graph.Demand, bt *mincut.Bottleneck, opt Options) (*Plan, error) {
	if err := dem.Validate(g); err != nil {
		return nil, err
	}
	opt.setDefaults()
	compileStart := time.Now()

	p := &Plan{
		Cut:       append([]graph.EdgeID(nil), bt.Cut...),
		Alpha:     bt.Alpha,
		SideEdges: [2]int{bt.Gs.G.NumEdges(), bt.Gt.G.NumEdges()},
		numEdges:  g.NumEdges(),
		bt:        bt,
	}
	p.basePFail = make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		p.basePFail[i] = e.PFail
	}

	// §III-B: the assignment set 𝒟.
	caps := make([]int, bt.K())
	for i, eid := range bt.Cut {
		caps[i] = g.Edge(eid).Cap
	}
	ds, err := assign.NewSet(caps, dem.D)
	if err != nil {
		return nil, err
	}
	p.Assignments = ds.Assignments
	if ds.Len() == 0 {
		// The cut cannot carry d even with every link alive: the plan is
		// trivially zero for any probability vector (paper, §III-A).
		return p, nil
	}
	classes, err := checkLimits(ds, nil, p.SideEdges, &opt)
	if err != nil {
		return nil, err
	}
	p.ds = ds
	p.classes = classes

	// §III-C: per-side realization arrays (all the max-flow work).
	p.rows[0], err = buildSide(bt.Gs, bt.Gs.NodeOf[dem.S], bt.XS, true, ds, &opt, &p.Stats, 0)
	if err != nil {
		return nil, err
	}
	p.rows[1], err = buildSide(bt.Gt, bt.Gt.NodeOf[dem.T], bt.YT, false, ds, &opt, &p.Stats, 1)
	if err != nil {
		return nil, err
	}
	p.sideLinks[0] = append([]graph.EdgeID(nil), bt.Gs.ParentEdge...)
	p.sideLinks[1] = append([]graph.EdgeID(nil), bt.Gt.ParentEdge...)

	mCompiles.Inc()
	mCompileTime.Observe(time.Since(compileStart))
	mSideConfigs.Add(int64(p.Stats.SideConfigs[0] + p.Stats.SideConfigs[1]))
	mMaxFlowCalls.Add(p.Stats.MaxFlowCalls)
	mAugmentingPaths.Add(p.Stats.AugmentingPaths)
	mRealizationChecks.Add(p.Stats.RealizationChecks)
	mPrunedCapacity.Add(p.Stats.PrunedCapacity)
	mPrunedClosure.Add(p.Stats.PrunedClosure)
	mFrontierMaxFlow.Add(p.Stats.FrontierMaxFlowCalls)

	kernStart := time.Now()
	p.installEvalPhase(p.compileKernel(), p.countRuns())
	observePhase(opt.Ctl, mKernelBuildTime, "kernel", time.Since(kernStart))
	return p, nil
}

// installEvalPhase wires the evaluate phase onto a structurally complete
// plan: the term table, the batch block width and the Stats describing
// them, runs being the (word, set) runs of both sides' rows.
func (p *Plan) installEvalPhase(k *evalKernel, runs int64) {
	p.kern = k
	p.lanes = p.kernelLanes()
	p.Stats.KernelTerms = int64(len(k.termX))
	p.Stats.KernelSegments = runs
	p.Stats.KernelLanes = int64(p.lanes)
}

// countRuns counts the set sums one evaluation makes over both sides.
func (p *Plan) countRuns() int64 {
	n := p.ds.Len()
	return wordRuns(p.rows[0], n, p.SideEdges[0]) + wordRuns(p.rows[1], n, p.SideEdges[1])
}

// MutatePlan compiles the successor of parent after the single-link
// mutation mut. gOld is the graph parent was compiled from; g and remap
// must be mut.Apply's results on it. When the mutation leaves the
// bottleneck cut (and its capacities) intact, the unaffected side's
// rows and the shared assignment structures transfer from
// the parent and only the touched side is patched — re-running max-flow
// solely for configurations whose feasibility the mutation could change;
// otherwise it falls back to a cold compile on the re-searched cut. The
// result is always bit-identical to CompileWithBottleneck on the mutated
// graph, charges opt.Ctl the same configuration totals, and is a new
// immutable Plan — the parent is never written.
func MutatePlan(parent *Plan, gOld, g *graph.Graph, dem graph.Demand, mut graph.Mutation, remap []graph.EdgeID, opt Options) (*Plan, error) {
	if parent == nil {
		return nil, fmt.Errorf("core: MutatePlan requires a parent plan")
	}
	if gOld == nil || g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	switch mut.Kind {
	case graph.MutateCapacity, graph.MutateAdd, graph.MutateRemove:
	default:
		return nil, fmt.Errorf("core: unknown mutation kind %d", int(mut.Kind))
	}
	if len(remap) != gOld.NumEdges() {
		return nil, fmt.Errorf("core: MutatePlan remap has %d entries for %d parent links", len(remap), gOld.NumEdges())
	}
	if err := dem.Validate(g); err != nil {
		return nil, err
	}
	opt.setDefaults()
	start := time.Now()
	child, err := mutateCompile(parent, gOld, g, dem, mut, remap, opt)
	if err != nil {
		return nil, err
	}
	child.version = parent.version + 1
	mDeltaTime.Observe(time.Since(start))
	return child, nil
}

// mutateCompile is MutatePlan after validation: classify how much of the
// parent survives, then patch or fall back.
func mutateCompile(parent *Plan, gOld, g *graph.Graph, dem graph.Demand, mut graph.Mutation, remap []graph.EdgeID, opt Options) (*Plan, error) {
	if parent.ds == nil {
		// Trivial parent (its cut cannot carry the demand): there are no
		// rows to transfer, so compile the child cold.
		mDeltaFallbacks.Inc()
		return Compile(g, dem, opt)
	}

	// Re-establish the bottleneck on the mutated graph. The cut search is
	// capacity-blind, so a capacity mutation provably keeps the parent's
	// winning cut and the search is skipped (mincut never charges the
	// budget, so skipping it preserves cold-compile charge parity); a
	// topology mutation re-runs the search and the parent survives only
	// if the winner is its own cut under the link-ID remap.
	searchStart := time.Now()
	var bt *mincut.Bottleneck
	var err error
	switch {
	case opt.Bottleneck != nil:
		bt, err = mincut.Split(g, dem.S, dem.T, opt.Bottleneck)
	case mut.Kind == graph.MutateCapacity:
		// Split's validation is topology-only, so when the parent kept its
		// split the capacity change patches it in place of re-deriving it.
		if pb := parent.bt; pb != nil && !cutContains(parent.Cut, mut.Link) {
			bt = patchSplitCapacity(pb, parent, mut)
		}
		if bt == nil {
			bt, err = mincut.Split(g, dem.S, dem.T, parent.Cut)
		}
	default:
		bt, err = mincut.Find(g, dem.S, dem.T, opt.MaxBottleneck)
	}
	if err != nil {
		return nil, err
	}
	observePhase(opt.Ctl, mCutSearchTime, "cut-search", time.Since(searchStart))

	cut2, ok := remapCutLinks(parent.Cut, remap)
	if !ok || !equalCuts(bt.Cut, cut2) {
		// The bottleneck moved or a cut link vanished: nothing below the
		// cut survives.
		mDeltaFallbacks.Inc()
		return CompileWithBottleneck(g, dem, bt, opt)
	}
	if mut.Kind == graph.MutateCapacity && cutContains(parent.Cut, mut.Link) {
		// Same cut, new capacity on it: the assignment family 𝒟 changes
		// wholesale and both sides' rows are indexed by it.
		mDeltaFallbacks.Inc()
		return CompileWithBottleneck(g, dem, bt, opt)
	}

	// Locate the touched side and the mutated link's side-bit position.
	var touched, j int
	switch mut.Kind {
	case graph.MutateAdd:
		// The new link has the highest parent ID, and Induced preserves
		// parent order, so it must sit last in its side's link list.
		newID := graph.EdgeID(g.NumEdges() - 1)
		if idx := len(bt.Gs.ParentEdge) - 1; idx >= 0 && bt.Gs.ParentEdge[idx] == newID {
			touched, j = 0, idx
		} else if idx := len(bt.Gt.ParentEdge) - 1; idx >= 0 && bt.Gt.ParentEdge[idx] == newID {
			touched, j = 1, idx
		} else {
			mDeltaFallbacks.Inc()
			return CompileWithBottleneck(g, dem, bt, opt)
		}
	default:
		var onSide bool
		touched, j, onSide = locateSideLink(parent, mut.Link)
		if !onSide {
			mDeltaFallbacks.Inc()
			return CompileWithBottleneck(g, dem, bt, opt)
		}
	}
	sideNew := [2][]graph.EdgeID{bt.Gs.ParentEdge, bt.Gt.ParentEdge}
	other := 1 - touched
	skip, tail := -1, 0
	if mut.Kind == graph.MutateRemove {
		skip = j
	}
	if mut.Kind == graph.MutateAdd {
		tail = 1
	}
	touchedNew := sideNew[touched]
	if !sideAligned(parent.sideLinks[other], remap, sideNew[other], -1) ||
		!sideAligned(parent.sideLinks[touched], remap, touchedNew[:len(touchedNew)-tail], skip) {
		mDeltaFallbacks.Inc()
		return CompileWithBottleneck(g, dem, bt, opt)
	}

	// The same limit check as a cold compile, before any side work.
	ds := parent.ds
	if _, err := checkLimits(ds, parent.classes, [2]int{bt.Gs.G.NumEdges(), bt.Gt.G.NumEdges()}, &opt); err != nil {
		return nil, err
	}

	p := &Plan{
		Cut:         append([]graph.EdgeID(nil), bt.Cut...),
		Alpha:       bt.Alpha,
		Assignments: ds.Assignments,
		SideEdges:   [2]int{bt.Gs.G.NumEdges(), bt.Gt.G.NumEdges()},
		numEdges:    g.NumEdges(),
		bt:          bt,
	}
	if mut.Kind == graph.MutateCapacity {
		// A capacity change keeps every failure probability; share the
		// parent's vector (immutable after compile, like the rows below).
		p.basePFail = parent.basePFail
	} else {
		p.basePFail = make([]float64, g.NumEdges())
		for i, e := range g.Edges() {
			p.basePFail[i] = e.PFail
		}
	}
	p.ds = ds
	p.classes = parent.classes
	n := uint64(ds.Len())

	// Untouched side: the rows transfer verbatim (shared — both plans are
	// immutable after compile). Charge exactly what a cold enumeration of
	// this side would have charged.
	p.rows[other] = parent.rows[other]
	p.sideLinks[other] = sideNew[other]
	otherConfigs := uint64(1) << uint(len(sideNew[other]))
	p.Stats.SideConfigs[other] = otherConfigs
	p.Stats.RealizationChecks += int64(otherConfigs * n)
	p.Stats.DeltaReused += int64(otherConfigs * n)
	if !opt.Ctl.Charge(otherConfigs*n, 0) {
		return nil, fmt.Errorf("core: delta compile interrupted: %w", opt.Ctl.Err())
	}

	// Touched side: patch against the parent's rows.
	buildStart := time.Now()
	mTouched := len(touchedNew)
	configs := uint64(1) << uint(mTouched)
	p.Stats.SideConfigs[touched] = configs
	sub, terminal, ends, toSink := bt.Gs, bt.Gs.NodeOf[dem.S], bt.XS, true
	if touched == 1 {
		sub, terminal, ends, toSink = bt.Gt, bt.Gt.NodeOf[dem.T], bt.YT, false
	}
	var prevSub *graph.Subgraph
	if pb := parent.bt; pb != nil {
		prevSub = [2]*graph.Subgraph{pb.Gs, pb.Gt}[touched]
	}
	var rows []uint64
	var st *deltaSideState
	switch {
	case mut.Kind == graph.MutateRemove:
		// Pure bit extraction — no solving for the rows themselves: charge
		// the child side's full enumeration up front, then fill.
		if !opt.Ctl.Charge(configs*n, 0) {
			return nil, fmt.Errorf("core: delta compile interrupted: %w", opt.Ctl.Err())
		}
		rows = removeRows(parent.rows[touched], int(n), mTouched+1, j)
		p.Stats.RealizationChecks += int64(configs * n)
		p.Stats.DeltaReused += int64(configs * n)
		// The warm solver state survives the removal when the dead arc can
		// be retired in place; the incremental flow repairs it pays for are
		// the state's only max-flow work, counted against this plan.
		if st0 := parent.deltaState[touched].Swap(nil); st0 != nil {
			netBase := snapshotNets(st0.w)
			if adoptRemovedLink(st0, sub, prevSub, j) {
				st = st0
			}
			foldNets(&p.Stats, st0.w, netBase)
		}
	case mut.Kind == graph.MutateCapacity && (mut.Cap == gOld.Edge(mut.Link).Cap || offPath(sub, terminal, ends, toSink, j)):
		// The capacity did not change, or the link carries no flow under
		// either capacity: the whole side transfers, shared pointer-wise
		// like the untouched side, charged in bulk. The warm solver state
		// still takes the new capacity, since a later add can put the link
		// on a path.
		if !opt.Ctl.Charge(configs*n, 0) {
			return nil, fmt.Errorf("core: delta compile interrupted: %w", opt.Ctl.Err())
		}
		rows = parent.rows[touched]
		p.Stats.RealizationChecks += int64(configs * n)
		p.Stats.DeltaReused += int64(configs * n)
		if st = parent.deltaState[touched].Swap(nil); st != nil {
			netBase := snapshotNets(st.w)
			st.setCapacity(j, mut.Cap)
			foldNets(&p.Stats, st.w, netBase)
		}
	default:
		// The parent's warm solver state (if no other successor claimed it)
		// carries over: a capacity mutation leaves the side's topology
		// intact, and an added link is appended to the warm networks as the
		// side's new top bit. When neither applies the state is rebuilt and
		// seeds the new chain.
		st = parent.deltaState[touched].Swap(nil)
		if st != nil && mut.Kind == graph.MutateAdd && !adoptAddedLink(st, sub, prevSub) {
			st = nil
		}
		if st != nil {
			st.f.opt = &opt
			st.w.stats = Stats{}
		} else {
			st = &deltaSideState{f: newFrontierCtx(sub, terminal, ends, toSink, ds, &opt), w: newFrontierWorker(ds.Len())}
		}
		netBase := snapshotNets(st.w)
		mode := deltaAdd
		walkBit := mTouched - 1
		if mut.Kind == graph.MutateCapacity {
			walkBit = j
			if mut.Cap >= gOld.Edge(mut.Link).Cap {
				mode = deltaGrow
			} else {
				mode = deltaShrink
			}
			st.setCapacity(j, mut.Cap)
		}
		var wErr error
		func() {
			cur := uint64(0)
			defer anytime.RecoverInto(&wErr, opt.Ctl, "core delta walk", &cur)
			// The walk copies-on-first-write: a toggle that changes no
			// word hands the parent's rows back untouched.
			ww := newWordWalk(st.f, st.w, parent.rows[touched])
			walkDelta(ww, walkBit, mode, &cur)
			rows = ww.rows
		}()
		foldWorker(&p.Stats, st.w, netBase)
		if wErr != nil {
			return nil, wErr
		}
	}
	if opt.Ctl.Stopped() {
		return nil, fmt.Errorf("core: delta compile interrupted: %w", opt.Ctl.Err())
	}
	p.rows[touched] = rows
	p.sideLinks[touched] = touchedNew
	p.deltaState[touched].Store(st)
	p.deltaState[other].Store(parent.deltaState[other].Swap(nil))
	if tr := opt.Ctl.Tracer(); tr != nil {
		tr.OnPhase(stats.PhaseEvent{
			Engine:       "core",
			Phase:        fmt.Sprintf("mutate/side/%d", touched),
			Duration:     time.Since(buildStart),
			Configs:      p.Stats.SideConfigs[touched],
			MaxFlowCalls: p.Stats.MaxFlowCalls,
		})
	}

	mDeltaCompiles.Inc()
	mSideConfigs.Add(int64(p.Stats.SideConfigs[0] + p.Stats.SideConfigs[1]))
	mMaxFlowCalls.Add(p.Stats.MaxFlowCalls)
	mAugmentingPaths.Add(p.Stats.AugmentingPaths)
	mRealizationChecks.Add(p.Stats.RealizationChecks)
	mPrunedCapacity.Add(p.Stats.PrunedCapacity)
	mPrunedClosure.Add(p.Stats.PrunedClosure)
	mFrontierMaxFlow.Add(p.Stats.FrontierMaxFlowCalls)
	mDeltaReused.Add(p.Stats.DeltaReused)

	// The term table depends only on the bottleneck classes, which the
	// child shares, so the parent's transfers. When the touched side also
	// kept the parent's rows and width, both sides are the parent's own
	// and so is the run count. (An add to a side of under six links can
	// keep the parent's row words: the new top bit's half of each word
	// stays clear.) Otherwise the kernel phase recounts the runs.
	if p.SideEdges == parent.SideEdges && sameWords(p.rows[touched], parent.rows[touched]) {
		p.installEvalPhase(parent.kern, parent.Stats.KernelSegments)
	} else {
		kernStart := time.Now()
		p.installEvalPhase(parent.kern, p.countRuns())
		observePhase(opt.Ctl, mKernelBuildTime, "kernel", time.Since(kernStart))
	}
	return p, nil
}

// sameWords reports whether two slices share the same backing array (the
// pointer-wise transfer the delta path uses for unchanged sides).
func sameWords(a, b []uint64) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// setBlockHook installs the bounded-concurrency test seam: the hook runs
// once per work item inside the batch worker loops. Test-only; must be
// called before any concurrent use of the plan.
func (p *Plan) setBlockHook(h func()) { p.blockHook = h }

// Version returns the plan's mutation depth: 0 for a cold compile,
// parent version + 1 for each MutatePlan successor.
func (p *Plan) Version() int { return p.version }

// K returns the number of bottleneck links.
func (p *Plan) K() int { return len(p.Cut) }

// NumEdges returns the link count of the compiled graph; Eval probability
// vectors must have exactly this length.
func (p *Plan) NumEdges() int { return p.numEdges }

// BasePFail returns a copy of the per-link failure probabilities the graph
// carried at compile time — the natural starting point for building
// what-if vectors.
func (p *Plan) BasePFail() []float64 {
	return append([]float64(nil), p.basePFail...)
}

// Eval computes the exact reliability for the given per-link failure
// probabilities (indexed by original link ID; nil means the compile-time
// probabilities). Only the probability aggregation and accumulation run —
// no max-flow calls — so an Eval costs microseconds where a fresh solve
// costs the full side-array construction. Conditioning a link up or down
// is pfail[e] = 0 or 1; capacities cannot change without recompiling.
//
//flowrelvet:hotpath the public evaluate entry point: after validation, one pooled scratch and zero heap allocations in steady state (reviewed: PR-8)
func (p *Plan) Eval(pfail []float64) (float64, error) {
	if pfail == nil {
		pfail = p.basePFail
	}
	if len(pfail) != p.numEdges {
		return 0, fmt.Errorf("core: Eval probability vector has %d entries, plan was compiled for %d links", len(pfail), p.numEdges)
	}
	for i, v := range pfail {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return 0, fmt.Errorf("core: Eval probability %g for link %d outside [0, 1]", v, i)
		}
	}
	mEvals.Inc()
	if p.ds == nil {
		return 0, nil
	}
	return p.evalOneKernel(pfail), nil
}

// EvalScalar is Eval on the scalar evaluate phase: the reference
// implementation the kernels are tested and benchmarked against. It
// shares the kernels' configuration probabilities but scatters each mask
// into the lattice entry of the set realizedAt reads for it; the one-lane
// kernel reproduces it bit for bit.
func (p *Plan) EvalScalar(pfail []float64) (float64, error) {
	if pfail == nil {
		pfail = p.basePFail
	}
	if len(pfail) != p.numEdges {
		return 0, fmt.Errorf("core: Eval probability vector has %d entries, plan was compiled for %d links", len(pfail), p.numEdges)
	}
	for i, v := range pfail {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return 0, fmt.Errorf("core: Eval probability %g for link %d outside [0, 1]", v, i)
		}
	}
	mEvals.Inc()
	if p.ds == nil {
		return 0, nil
	}
	sc := kpool1.Get().(*kscratch1)
	defer kpool1.Put(sc)
	sc.fit(p)
	return p.evalScalarUnchecked(sc, pfail), nil
}

// evalScalarUnchecked is the scalar evaluate phase on an already-
// validated vector and a caller-owned scratch.
//
//flowrelvet:hotpath scalar evaluate phase on caller-owned scratch (reviewed: PR-8)
func (p *Plan) evalScalarUnchecked(sc *kscratch1, pfail []float64) float64 {
	n := p.ds.Len()
	for side := 0; side < 2; side++ {
		aggregateInto(sc.q[side], sc, p.rows[side], n, pfail, p.sideLinks[side])
	}
	for i, eid := range p.Cut {
		sc.pCut[i] = pfail[eid]
	}
	return p.evalZeta(sc)
}

// EvalBatch evaluates many probability scenarios in parallel (parallelism
// ≤ 0 means GOMAXPROCS; nil scenarios mean the compile-time
// probabilities). Each scenario is independent and deterministic, so the
// result slice is identical for any worker count.
func (p *Plan) EvalBatch(scenarios [][]float64, parallelism int) ([]float64, error) {
	out := make([]float64, len(scenarios))
	if err := p.EvalBatchInto(out, scenarios, BatchOptions{Parallelism: parallelism}); err != nil {
		return nil, err
	}
	return out, nil
}

// sideSums1 writes one side's set sums for one scenario into q (2^n
// entries): q[rm] is the probability that the side's configuration
// realizes exactly the assignment set rm (Eq. 2 summed by realized set).
// Each realized set present in a row word adds the word's probabilities
// at its bits, ascending, so every q[rm] sums its masks in ascending
// order, as aggregateInto's scatter does.
//
//flowrelvet:hotpath O(2^m) doubling fill, the largest single loop of every evaluation (reviewed: PR-8)
func sideSums1(q []float64, sc *kscratch1, rows []uint64, n int, pfail []float64, links []graph.EdgeID) {
	clear(q)
	words, valid := rowShape(len(links))
	hi := sc.hi[:words]
	fillHigh(hi, pfail, links)
	low := links[:min(len(links), lowLinks)]
	for wi, top := range hi {
		fillWord(&sc.word, top, pfail, low)
		for rem := valid; rem != 0; {
			rm, set := rowClass(rows, words, n, uint64(wi), rem)
			rem &^= set
			s := q[rm]
			for ; set != 0; set &= set - 1 {
				s += sc.word[bits.TrailingZeros64(set)&(1<<lowLinks-1)]
			}
			q[rm] = s
		}
	}
}

// fillHigh writes into hi, one entry per row word wi, the product of the
// side's high-link factors (links 6…m−1) that word wi's masks share: a
// doubling fill from 1 in link order, so entry wi multiplies, link by
// link, 1−p(e) where wi has the link's bit and p(e) where it does not. A
// side of at most six links has the one word and the product 1.
func fillHigh(hi []float64, pfail []float64, links []graph.EdgeID) {
	hi[0] = 1
	for i := lowLinks; i < len(links); i++ {
		pf := pfail[links[i]]
		pl := 1 - pf
		half := 1 << uint(i-lowLinks)
		for w, v := range hi[:half] {
			hi[w+half] = v * pl
			hi[w] = v * pf
		}
	}
}

// fillWord writes one row word's configuration probabilities into word:
// entry b is the word's high-link product top times the low links'
// factors, a doubling in link order over bits 0…len(low)−1 (Eq. 2).
func fillWord(word *[1 << lowLinks]float64, top float64, pfail []float64, low []graph.EdgeID) {
	word[0] = top
	for i, eid := range low {
		pf := pfail[eid]
		pl := 1 - pf
		half := 1 << uint(i)
		for b, v := range word[:half] {
			word[b+half] = v * pl
			word[b] = v * pf
		}
	}
}

// aggregateInto is sideSums1 as a per-mask scatter: over the same word
// fills, each mask adds its probability to q[rm] for the set rm that
// realizedAt reads from the side's n rows, masks in ascending order.
//
//flowrelvet:hotpath per-evaluation scatter over the side array (reviewed: PR-8)
func aggregateInto(q []float64, sc *kscratch1, rows []uint64, n int, pfail []float64, links []graph.EdgeID) {
	clear(q)
	words, valid := rowShape(len(links))
	hi := sc.hi[:words]
	fillHigh(hi, pfail, links)
	low := links[:min(len(links), lowLinks)]
	for wi, top := range hi {
		fillWord(&sc.word, top, pfail, low)
		for b := uint64(0); b < 1<<lowLinks && valid>>b&1 != 0; b++ {
			q[realizedAt(rows, words, n, uint64(wi)<<lowLinks|b)] += sc.word[b]
		}
	}
}

// evalZeta computes Eq. 3 from the side sums in sc.q with the
// superset-zeta aggregation: Q[X] = P(side realizes every assignment in
// X) in one transform, then each r_{E”} is an inclusion–exclusion sum of
// lattice lookups.
//
//flowrelvet:hotpath zeta accumulation: the EvalScalar reference's inner phase (reviewed: PR-8)
func (p *Plan) evalZeta(sc *kscratch1) float64 {
	n := p.ds.Len()
	qs, qt := sc.q[0], sc.q[1]
	subset.SupersetZeta(qs, n)
	subset.SupersetZeta(qt, n)

	total := 0.0
	//flowrelvet:unbounded evaluate phase: Plan.Eval is budget-free by contract — the 3^k aggregation is bounded by the compiled plan's size and the full exponential cost was charged to the Ctl during Compile (reviewed: PR-3).
	for e := uint64(0); e < uint64(1)<<uint(len(sc.pCut)); e++ {
		dMask := p.classes[e]
		if dMask == 0 {
			continue
		}
		r := 0.0
		subset.Submasks(dMask, func(x uint64) {
			if x == 0 {
				return
			}
			r -= subset.PopcountParity(x) * qs[x] * qt[x]
		})
		total += conf.Prob(sc.pCut, e) * r
	}
	return total
}
