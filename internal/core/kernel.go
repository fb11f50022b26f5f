package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/subset"
)

// This file is the data-oriented evaluate phase. Compile flattens the two
// closure-driven walks of the scalar evaluator into immutable tables:
//
//   - the per-bottleneck-configuration submask walk (classes[e] →
//     subset.Submasks callbacks) becomes a term table — one (x, sign)
//     entry per inclusion–exclusion term, grouped per configuration — so
//     evaluation is a linear pass over two contiguous slices;
//   - each side's rows are grouped by realized-assignment mask into a
//     permutation plus segment table, so the scalar evaluator's random
//     scatter q[rm] += probs[mask] becomes independent segmented sums.
//
// Two kernels consume the tables. The one-lane kernel evaluates a single
// scenario over plain float64 arrays. The eight-lane kernel carries eight
// scenarios together in structure-of-arrays layout ([8]float64 lattice
// entries — one cache line each): the doubling construction, segmented
// aggregation, zeta transform and inclusion–exclusion all run stride-1
// over the lane dimension, turning the scalar evaluator's single serial
// floating-point dependency chain into eight independent ones.
//
// Every per-lane operation happens in exactly the one-lane kernel's
// order, so lane l of a block evaluation is bit-identical to evaluating
// scenario l alone — the contract TestEvalBatchIntoQuick and
// TestPlanEvalBatchDeterministic enforce. The one-lane kernel in turn
// reproduces the original scalar evaluator (EvalScalar) bit for bit, as
// TestKernelMatchesScalarCorpus checks: segment sums add in the
// scatter's ascending-mask order, the term signs fold the parity
// negation (r += (-parity)·qs·qt is exactly r -= parity·qs·qt), and the
// configuration walk keeps its ascending order.

// batchLanes is the wide kernel's block width.
const batchLanes = 8

// block8 is one lattice entry of the eight-lane kernel.
type block8 = [8]float64

// The kernel's table bounds. checkLimits (core.go) rejects any plan past
// them at compile time, so every plan with |𝒟| > 0 has a kernel. The
// chain solver holds its segments and lattices to the exported ones.
const (
	// MaxSideLinks bounds 2^m per side so the permutation fits
	// uint32 and the lane-block probs arrays stay addressable.
	MaxSideLinks = 26
	// MaxAssignments bounds the dense lattice 2^n (the grouping
	// counters and the zeta-path q arrays).
	MaxAssignments = 20
	// MaxCutLinks bounds the class table 2^k (one entry per
	// bottleneck configuration), which compile walks into the term table.
	MaxCutLinks = 22
	// MaxRowBits bounds one walk's rows: the most a plan side holds,
	// MaxAssignments rows of 2^MaxSideLinks bits.
	MaxRowBits = MaxAssignments << MaxSideLinks
	// maxKernelTerms bounds the flattened inclusion–exclusion table
	// (termCount entries).
	maxKernelTerms = 1 << 22
	// maxBlockScratchFloats bounds the eight-lane scratch (in float64s,
	// ≈32MB); past it the batch path falls back to one-lane evaluation.
	maxBlockScratchFloats = 4 << 20
)

// kernelCfg is one bottleneck configuration E″ with a non-empty
// assignment class: its cut mask and its term range in the term table.
type kernelCfg struct {
	cut      uint64
	off, end int32
}

// evalKernel is the compile-time table set. Immutable after Compile.
type evalKernel struct {
	lanes int // batch block width (batchLanes, or 1 when scratch is too big)

	// Inclusion–exclusion term table, grouped per configuration in
	// ascending cut-mask order; within a configuration the terms follow
	// the descending Submasks order of the scalar walk. termSign[t] is
	// -PopcountParity(termX[t]).
	cfgs     []kernelCfg
	termX    []uint32
	termSign []float64

	// Segmented aggregation, per side: perm lists the side configuration
	// masks grouped by realized mask (ascending mask within each group —
	// the scatter's addition order); segment s covers
	// perm[segOff[s]:segOff[s+1]] and has realized mask segRM[s].
	perm   [2][]uint32
	segRM  [2][]uint32
	segOff [2][]int32
}

// kscratch1 is the one-lane kernel's per-evaluation scratch, and
// EvalScalar's: per side, the configuration probabilities and the dense
// zeta lattice q, and the cut's probabilities. Both paths write every
// entry they read.
type kscratch1 struct {
	probs [2][]float64
	q     [2][]float64
	pCut  []float64
}

// kscratch8 is the eight-lane kernel's per-worker scratch (same roles,
// lane blocks).
type kscratch8 struct {
	probs [2][]block8
	q     [2][]block8
	pcF   []block8
	pcL   []block8
	rows  [8][]float64
}

// termCount is the size of the flattened inclusion–exclusion table:
// Σ_e (2^|classes[e]| − 1) over the bottleneck configurations e.
func termCount(classes []uint64) int {
	terms := 0
	for _, dMask := range classes {
		if dMask != 0 {
			terms += (1 << uint(popcount(dMask))) - 1
		}
	}
	return terms
}

// compileKernel flattens the compiled structure into the evaluate-phase
// tables and returns them; checkLimits has already bounded their size.
// It only reads the Plan; plan.go installs the result — Plan writes stay
// in the compile phase planimmut polices.
func (p *Plan) compileKernel() *evalKernel {
	n := p.ds.Len()
	terms := termCount(p.classes)
	k := &evalKernel{
		termX:    make([]uint32, 0, terms),
		termSign: make([]float64, 0, terms),
	}
	//flowrelvet:unbounded compile phase: the 2^k configuration walk is plan-sized, budget charged during Compile (reviewed: PR-7).
	for e := uint64(0); e < uint64(1)<<uint(len(p.Cut)); e++ {
		dMask := p.classes[e]
		if dMask == 0 {
			continue
		}
		off := int32(len(k.termX))
		subset.Submasks(dMask, func(x uint64) {
			if x == 0 {
				return
			}
			k.termX = append(k.termX, uint32(x))
			k.termSign = append(k.termSign, -subset.PopcountParity(x))
		})
		k.cfgs = append(k.cfgs, kernelCfg{cut: e, off: off, end: int32(len(k.termX))})
	}

	for side := 0; side < 2; side++ {
		k.perm[side], k.segRM[side], k.segOff[side] = groupRows(p.rows[side], n, p.SideEdges[side])
	}

	k.lanes = p.kernelLanes()
	mKernelBuilds.Inc()
	mKernelTermEntries.Add(int64(len(k.termX)))
	return k
}

// compileKernelDelta builds the evaluate-phase tables for a mutated plan,
// sharing every table the mutation cannot touch: the term tables depend
// only on the bottleneck classes (identical by construction — the delta
// path shares the parent's assignment set), and the untouched side's
// segment grouping depends only on its rows, which transferred verbatim.
// Only the touched side's grouping is recomputed, by the same groupRows a
// cold compile runs, so the resulting kernel is entry-for-entry identical
// to a cold build's. Like compileKernel it only reads the plans; plan.go
// installs the result.
func (p *Plan) compileKernelDelta(parent *Plan, touched int) *evalKernel {
	pk := parent.kern
	n := p.ds.Len()
	k := &evalKernel{
		lanes:    p.kernelLanes(),
		cfgs:     pk.cfgs,
		termX:    pk.termX,
		termSign: pk.termSign,
	}
	other := 1 - touched
	k.perm[other], k.segRM[other], k.segOff[other] = pk.perm[other], pk.segRM[other], pk.segOff[other]
	k.perm[touched], k.segRM[touched], k.segOff[touched] = groupRows(p.rows[touched], n, p.SideEdges[touched])
	mKernelBuilds.Inc()
	return k
}

// kernelLanes is the batch block width for the plan: batchLanes, or 1
// when the eight-lane scratch would exceed maxBlockScratchFloats. The
// per-lane footprint of one evaluation scratch is both sides'
// configuration probabilities, both zeta lattices and the cut factors.
func (p *Plan) kernelLanes() int {
	f := (1 << uint(p.SideEdges[0])) + (1 << uint(p.SideEdges[1])) + (2 << uint(p.ds.Len())) + 2*len(p.Cut)
	if f*batchLanes > maxBlockScratchFloats {
		return 1
	}
	return batchLanes
}

func popcount(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// kshape is the slice lengths of a one-lane kernel scratch. Plans of one
// shape share a process-wide pool of scratches (kpools), so a fresh plan's
// first Eval reuses a scratch another plan returned instead of
// allocating one as large as its side arrays. The compile limits bound
// every length, so the set of shapes is finite.
type kshape struct {
	probs, q [2]int
	cut      int
}

// kpools maps each kshape to its *sync.Pool of *kscratch1. The map lives
// as long as the process, so no pool's New may capture a *Plan: the
// first plan of each shape would stay reachable forever.
var kpools sync.Map

// kpool1For returns the shared one-lane scratch pool for the plan's
// shape, creating it on first use.
func kpool1For(p *Plan) *sync.Pool {
	sh := kshape{cut: len(p.Cut)}
	for side := 0; side < 2; side++ {
		sh.probs[side] = 1 << uint(p.SideEdges[side])
		sh.q[side] = 1 << uint(p.ds.Len())
	}
	if pool, ok := kpools.Load(sh); ok {
		return pool.(*sync.Pool)
	}
	pool, _ := kpools.LoadOrStore(sh, &sync.Pool{New: func() any { return newKScratch1(sh) }})
	return pool.(*sync.Pool)
}

func newKScratch1(sh kshape) *kscratch1 {
	sc := &kscratch1{pCut: make([]float64, sh.cut)}
	for side := 0; side < 2; side++ {
		sc.probs[side] = make([]float64, sh.probs[side])
		sc.q[side] = make([]float64, sh.q[side])
	}
	return sc
}

func newKScratch8(p *Plan) *kscratch8 {
	n := p.ds.Len()
	sc := &kscratch8{
		probs: [2][]block8{
			make([]block8, uint64(1)<<uint(p.SideEdges[0])),
			make([]block8, uint64(1)<<uint(p.SideEdges[1])),
		},
		q: [2][]block8{
			make([]block8, uint64(1)<<uint(n)),
			make([]block8, uint64(1)<<uint(n)),
		},
		pcF: make([]block8, len(p.Cut)),
		pcL: make([]block8, len(p.Cut)),
	}
	return sc
}

// evalKernel1 evaluates one already-validated scenario through the
// one-lane kernel: existing doubling fill, then segmented aggregation and
// the term table.
//
//flowrelvet:hotpath one-lane evaluate kernel: runs once per scenario on caller-owned scratch; any heap traffic here is paid per evaluation (reviewed: PR-8)
func (p *Plan) evalKernel1(sc *kscratch1, pfail []float64) float64 {
	k := p.kern
	for side := 0; side < 2; side++ {
		fillConfigProbs(sc.probs[side], pfail, p.sideLinks[side])
	}
	for i, eid := range p.Cut {
		sc.pCut[i] = pfail[eid]
	}

	n := p.ds.Len()
	qs, qt := sc.q[0], sc.q[1]
	for side := 0; side < 2; side++ {
		q := sc.q[side]
		for i := range q {
			q[i] = 0
		}
		probs := sc.probs[side]
		perm, segRM, segOff := k.perm[side], k.segRM[side], k.segOff[side]
		for s, rm := range segRM {
			sum := 0.0
			for _, mask := range perm[segOff[s]:segOff[s+1]] {
				sum += probs[mask]
			}
			q[rm] = sum
		}
	}
	subset.SupersetZeta(qs, n)
	subset.SupersetZeta(qt, n)

	total := 0.0
	for _, cfg := range k.cfgs {
		r := 0.0
		for t := cfg.off; t < cfg.end; t++ {
			x := k.termX[t]
			r += k.termSign[t] * qs[x] * qt[x]
		}
		total += conf.Prob(sc.pCut, cfg.cut) * r
	}
	return total
}

// fillConfigProbs8 is fillConfigProbs over eight lanes: probs[mask][l]
// becomes the occurrence probability of side configuration mask under
// scenario rows[l]. Same doubling construction, same per-lane multiply
// order.
//
//flowrelvet:hotpath doubling fill feeding the eight-lane kernel: O(2^m) inner loop per block (reviewed: PR-8)
func fillConfigProbs8(probs []block8, rows *[8][]float64, links []graph.EdgeID) {
	probs[0] = block8{1, 1, 1, 1, 1, 1, 1, 1}
	var pf, pl block8
	for i, eid := range links {
		for l, row := range rows {
			pf[l] = row[eid]
			pl[l] = 1 - pf[l]
		}
		half := 1 << uint(i)
		fillStep8(probs[:half], probs[half:2*half], &pf, &pl)
	}
}

// evalKernel8 runs the full evaluate phase for one block of eight
// already-validated scenarios (sc.rows) and returns the per-lane
// reliabilities.
//
//flowrelvet:hotpath eight-lane evaluate kernel: the batch throughput path, one call per lane block (reviewed: PR-8)
func (p *Plan) evalKernel8(sc *kscratch8) block8 {
	k := p.kern
	for side := 0; side < 2; side++ {
		fillConfigProbs8(sc.probs[side], &sc.rows, p.sideLinks[side])
	}
	for i, eid := range p.Cut {
		var fail, live block8
		for l, row := range sc.rows {
			fail[l] = row[eid]
			live[l] = 1 - row[eid]
		}
		sc.pcF[i] = fail
		sc.pcL[i] = live
	}

	n := p.ds.Len()
	qs, qt := sc.q[0], sc.q[1]
	for side := 0; side < 2; side++ {
		q := sc.q[side]
		for i := range q {
			q[i] = block8{}
		}
		probs := sc.probs[side]
		perm, segRM, segOff := k.perm[side], k.segRM[side], k.segOff[side]
		for s, rm := range segRM {
			segSum8(&q[rm], probs, perm[segOff[s]:segOff[s+1]])
		}
	}
	subset.SupersetZetaBlock(qs, n)
	subset.SupersetZetaBlock(qt, n)

	var total block8
	for _, cfg := range k.cfgs {
		var r block8
		for t := cfg.off; t < cfg.end; t++ {
			x := k.termX[t]
			sign := k.termSign[t]
			a := &qs[x]
			b := &qt[x]
			for l := 0; l < batchLanes; l++ {
				r[l] += sign * a[l] * b[l]
			}
		}
		pc := cutProb8(sc, cfg.cut)
		for l := 0; l < batchLanes; l++ {
			total[l] += pc[l] * r[l]
		}
	}
	return total
}

// cutProb8 is the lane-block twin of conf.Prob, multiplying the per-link
// factors in the same link order.
//
//flowrelvet:hotpath per-configuration cut probability, called 2^k times per lane block (reviewed: PR-8)
func cutProb8(sc *kscratch8, cut uint64) block8 {
	pc := block8{1, 1, 1, 1, 1, 1, 1, 1}
	for i := range sc.pcF {
		fac := &sc.pcF[i]
		if cut&(uint64(1)<<uint(i)) != 0 {
			fac = &sc.pcL[i]
		}
		for l := 0; l < batchLanes; l++ {
			pc[l] *= fac[l]
		}
	}
	return pc
}

// evalOneKernel evaluates a single already-validated scenario through the
// one-lane kernel with pooled scratch.
//
//flowrelvet:hotpath pooled-scratch helper behind Plan.Eval: Get/Put must be the only pool traffic, never a fresh scratch in steady state (reviewed: PR-8)
func (p *Plan) evalOneKernel(pfail []float64) float64 {
	sc := p.kpool1.Get().(*kscratch1)
	defer p.kpool1.Put(sc)
	return p.evalKernel1(sc, pfail)
}

// BatchOptions tunes EvalBatchInto.
type BatchOptions struct {
	// Parallelism is the worker count; ≤ 0 means GOMAXPROCS.
	Parallelism int
	// Base substitutes for nil scenarios (and pads partial lane blocks);
	// nil means the compile-time probabilities.
	Base []float64
}

// EvalBatchInto evaluates scenarios[i] into dst[i] without allocating
// result storage. Validation runs once up front; the hot loop is
// unchecked. nil scenarios evaluate opt.Base. Results are deterministic —
// bit-identical to per-scenario Eval — for any parallelism.
//
//flowrelvet:hotpath batch entry point: validation and worker setup may allocate only on the error path or once per batch, never per scenario (reviewed: PR-8)
func (p *Plan) EvalBatchInto(dst []float64, scenarios [][]float64, opt BatchOptions) error {
	if len(dst) != len(scenarios) {
		return fmt.Errorf("core: EvalBatchInto dst has %d entries for %d scenarios", len(dst), len(scenarios))
	}
	base := opt.Base
	if base == nil {
		base = p.basePFail
	}
	if err := p.validateVector(base, -1); err != nil {
		return err
	}
	for i, pfail := range scenarios {
		if pfail == nil {
			continue
		}
		if err := p.validateVector(pfail, i); err != nil {
			return err
		}
	}
	mEvalBatches.Inc()
	mEvals.Add(int64(len(scenarios)))
	if p.ds == nil {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	if len(scenarios) == 0 {
		return nil
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lanes := p.kern.lanes
	nblocks := (len(scenarios) + lanes - 1) / lanes
	if workers > nblocks {
		workers = nblocks
	}
	if workers == 1 {
		// Single-worker fast path: drain inline on the calling goroutine.
		// No worker goroutines and no closure means no per-call heap
		// allocation — the shape the hotalloc gate and the AllocsPerRun
		// regression tests hold to zero steady-state allocations.
		var next atomic.Int64
		p.drain(&next, dst, scenarios, base, nblocks)
	} else {
		runPool(workers, func(next *atomic.Int64) {
			p.drain(next, dst, scenarios, base, nblocks)
		})
	}
	mEvalBlocks.Add(int64(nblocks))
	mKernelLanes.Add(int64(nblocks * lanes))
	mSegmentSums.Add(int64(nblocks * (len(p.kern.segRM[0]) + len(p.kern.segRM[1]))))
	return nil
}

// validateVector checks one probability vector; i < 0 names the base.
// The vector's name is only built on the error path: the happy path runs
// once per scenario per batch and must not allocate.
func (p *Plan) validateVector(pfail []float64, i int) error {
	if len(pfail) != p.numEdges {
		return fmt.Errorf("core: EvalBatch %s has %d entries, plan was compiled for %d links", vectorName(i), len(pfail), p.numEdges)
	}
	for j, v := range pfail {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("core: EvalBatch %s probability %g for link %d outside [0, 1]", vectorName(i), v, j)
		}
	}
	return nil
}

func vectorName(i int) string {
	if i < 0 {
		return "base"
	}
	return fmt.Sprintf("scenario %d", i)
}

// drain is the batch worker body: one pooled scratch checked out for the
// whole loop, work items handed out by the shared atomic counter. The
// counter is compared in 64 bits so the poisoned value runPool stores on
// a worker panic stops every drain loop on 32-bit targets too.
//
//flowrelvet:hotpath batch drain loop: pooled per-worker scratch, no per-item allocation; error paths were rejected by EvalBatchInto before the loop started (reviewed: PR-8)
func (p *Plan) drain(next *atomic.Int64, dst []float64, scenarios [][]float64, base []float64, nblocks int) {
	if p.kern.lanes == 1 {
		sc := p.kpool1.Get().(*kscratch1)
		defer p.kpool1.Put(sc)
		for {
			i := next.Add(1) - 1
			if i >= int64(len(scenarios)) {
				return
			}
			if h := p.blockHook; h != nil {
				h()
			}
			pfail := scenarios[i]
			if pfail == nil {
				pfail = base
			}
			dst[i] = p.evalKernel1(sc, pfail)
		}
	}
	sc := p.kpool8.Get().(*kscratch8)
	defer p.kpool8.Put(sc)
	for {
		b := next.Add(1) - 1
		if b >= int64(nblocks) {
			return
		}
		if h := p.blockHook; h != nil {
			h()
		}
		lo := int(b) * batchLanes
		hi := lo + batchLanes
		if hi > len(scenarios) {
			hi = len(scenarios)
		}
		// Partial final blocks pad with the base vector: valid
		// inputs, results discarded.
		for l := 0; l < batchLanes; l++ {
			sc.rows[l] = base
			if lo+l < hi && scenarios[lo+l] != nil {
				sc.rows[l] = scenarios[lo+l]
			}
		}
		r := p.evalKernel8(sc)
		for l := 0; l < hi-lo; l++ {
			dst[lo+l] = r[l]
		}
		for l := range sc.rows {
			sc.rows[l] = nil
		}
	}
}

// poisonCounter is stored into the work counter when a worker panics:
// far past any real item count, so surviving workers see an exhausted
// batch at their next Add and exit instead of finishing the work, yet
// far enough from MaxInt64 that their increments cannot overflow.
const poisonCounter = int64(1) << 62

// runPool runs exactly `workers` goroutines, each draining work items off
// a shared atomic counter — the bounded replacement for the old
// goroutine-per-scenario dispatch. A panic in any worker is re-raised on
// the calling goroutine once every worker has exited; the counter is
// poisoned first so the surviving workers stop drawing new items instead
// of completing a batch whose result will never be seen.
//
//flowrelvet:hotpath worker-pool dispatch: the goroutines and the closure are one allocation per batch, amortized over every item in it (reviewed: PR-8)
func runPool(workers int, worker func(next *atomic.Int64)) {
	var next atomic.Int64
	if workers <= 1 {
		worker(&next)
		return
	}
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
					next.Store(poisonCounter)
				}
			}()
			worker(&next)
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
