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

// This file is the data-oriented evaluate phase. Compile flattens the
// per-bottleneck-configuration submask walk of the scalar evaluator
// (classes[e] → subset.Submasks callbacks) into a term table — one
// (x, sign) entry per inclusion–exclusion term, grouped per
// configuration — so accumulation is a linear pass over two contiguous
// slices. The side sums read the plan's rows directly, one 64-mask row
// word at a time:
//
//   - a doubling fill over the side's high links (6…m−1) gives one
//     product per row word, the factor its 64 masks share;
//   - an in-word doubling over the six low links, started from that
//     product, fills the word's 64 configuration probabilities into a
//     buffer that stays in L1;
//   - each realized set present in the word (rowClass: one AND of the n
//     row words) adds the buffer's entries at its bits into q[rm].
//
// A configuration's probability is therefore its high links' factors
// times its low links' factors, each group in link order; a side of at
// most six links has the one word and the plain link order.
//
// Two kernels run this. The one-lane kernel evaluates a single scenario
// over plain float64 arrays. The eight-lane kernel carries eight
// scenarios together in structure-of-arrays layout ([8]float64 entries —
// one cache line each): the fills, set sums, zeta transform and
// inclusion–exclusion all run stride-1 over the lane dimension, turning
// the scalar evaluator's single serial floating-point dependency chain
// into eight independent ones.
//
// Every per-lane operation happens in exactly the one-lane kernel's
// order, so lane l of a block evaluation is bit-identical to evaluating
// scenario l alone — the contract TestEvalBatchIntoQuick and
// TestPlanEvalBatchDeterministic enforce. The one-lane kernel in turn
// reproduces the scalar evaluator (EvalScalar) bit for bit, as
// TestKernelMatchesScalarCorpus checks: the fills are shared, the set
// sums add each realized set's masks in the scatter's ascending-mask
// order, the term signs fold the parity negation (r += (-parity)·qs·qt
// is exactly r -= parity·qs·qt), and the configuration walk keeps its
// ascending order.

// batchLanes is the wide kernel's block width.
const batchLanes = 8

// block8 is one lattice entry of the eight-lane kernel.
type block8 = [8]float64

// The kernel's table bounds. checkLimits (core.go) rejects any plan past
// them at compile time, so every plan with |𝒟| > 0 has a kernel. The
// chain solver holds its segments and lattices to the exported ones.
const (
	// MaxSideLinks bounds 2^m per side: the rows' bit count and the
	// 2^(m−6) high-link products of one evaluation.
	MaxSideLinks = 26
	// MaxAssignments bounds the dense lattice 2^n (the zeta-path q
	// arrays).
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

// evalKernel is the compile-time term table, grouped per configuration in
// ascending cut-mask order; within a configuration the terms follow the
// descending Submasks order of the scalar walk. termSign[t] is
// -PopcountParity(termX[t]). It depends only on the bottleneck classes,
// so a mutation chain shares its root's. Immutable after Compile.
type evalKernel struct {
	cfgs     []kernelCfg
	termX    []uint32
	termSign []float64
}

// kscratch1 is the one-lane kernel's per-evaluation scratch, and
// EvalScalar's: one side's high-link products (one per row word), one
// row word's configuration probabilities, both sides' set sums (then
// zeta lattices) and the cut's probabilities. Both paths write every
// entry they read.
type kscratch1 struct {
	hi   []float64
	word [1 << lowLinks]float64
	q    [2][]float64
	pCut []float64
}

// kscratch8 is the eight-lane kernel's per-worker scratch (same roles,
// lane blocks), plus the low links' per-lane factors and the block's
// scenario rows.
type kscratch8 struct {
	hi         []block8
	word       [1 << lowLinks]block8
	lowF, lowL [lowLinks]block8
	q          [2][]block8
	pcF, pcL   []block8
	rows       [8][]float64
}

// The scratch pools are process-wide: a scratch refers to no plan, and
// fit reslices it to the plan at hand, allocating only a slice that a
// larger plan than any before needs.
var (
	kpool1 = sync.Pool{New: func() any { return new(kscratch1) }}
	kpool8 = sync.Pool{New: func() any { return new(kscratch8) }}
)

// fitLen returns s resliced to n entries, or a fresh slice when s is too
// short.
func fitLen[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scratchShape is the lengths an evaluation of p needs: the high-link
// products of its wider side, a lattice of 2^n entries per side, and the
// cut.
func (p *Plan) scratchShape() (hi, q, cut int) {
	w0, _ := rowShape(p.SideEdges[0])
	w1, _ := rowShape(p.SideEdges[1])
	return int(max(w0, w1)), 1 << uint(p.ds.Len()), len(p.Cut)
}

func (sc *kscratch1) fit(p *Plan) {
	hi, q, cut := p.scratchShape()
	sc.hi = fitLen(sc.hi, hi)
	sc.q[0], sc.q[1] = fitLen(sc.q[0], q), fitLen(sc.q[1], q)
	sc.pCut = fitLen(sc.pCut, cut)
}

func (sc *kscratch8) fit(p *Plan) {
	hi, q, cut := p.scratchShape()
	sc.hi = fitLen(sc.hi, hi)
	sc.q[0], sc.q[1] = fitLen(sc.q[0], q), fitLen(sc.q[1], q)
	sc.pcF, sc.pcL = fitLen(sc.pcF, cut), fitLen(sc.pcL, cut)
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

// compileKernel flattens the compiled structure into the term table and
// returns it; checkLimits has already bounded its size. It only reads the
// Plan; plan.go installs the result — Plan writes stay in the compile
// phase planimmut polices.
func (p *Plan) compileKernel() *evalKernel {
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
	mKernelBuilds.Inc()
	mKernelTermEntries.Add(int64(len(k.termX)))
	return k
}

// kernelLanes is the batch block width for the plan: batchLanes, or 1
// when the eight-lane scratch would exceed maxBlockScratchFloats. The
// per-lane footprint of one evaluation scratch is the wider side's
// high-link products, the word buffer, both lattices and the cut
// factors.
func (p *Plan) kernelLanes() int {
	hi, q, cut := p.scratchShape()
	if (hi+1<<lowLinks+2*q+2*cut)*batchLanes > maxBlockScratchFloats {
		return 1
	}
	return batchLanes
}

// wordRuns counts the set sums one evaluation makes over a side's rows:
// for every row word, the realized sets present in it.
func wordRuns(rows []uint64, n, m int) int64 {
	words, valid := rowShape(m)
	runs := int64(0)
	for wi := uint64(0); wi < words; wi++ {
		for rem := valid; rem != 0; runs++ {
			_, set := rowClass(rows, words, n, wi, rem)
			rem &^= set
		}
	}
	return runs
}

func popcount(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// evalKernel1 evaluates one already-validated scenario through the
// one-lane kernel: side sums, zeta transform and the term table.
//
//flowrelvet:hotpath one-lane evaluate kernel: runs once per scenario on caller-owned scratch; any heap traffic here is paid per evaluation (reviewed: PR-8)
func (p *Plan) evalKernel1(sc *kscratch1, pfail []float64) float64 {
	k := p.kern
	n := p.ds.Len()
	for side := 0; side < 2; side++ {
		sideSums1(sc.q[side], sc, p.rows[side], n, pfail, p.sideLinks[side])
	}
	for i, eid := range p.Cut {
		sc.pCut[i] = pfail[eid]
	}
	qs, qt := sc.q[0], sc.q[1]
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

// laneFactors loads link eid's per-lane failure and survival factors
// from the block's scenarios.
func laneFactors(pf, pl *block8, scen *[8][]float64, eid graph.EdgeID) {
	for l, pfail := range scen {
		pf[l] = pfail[eid]
		pl[l] = 1 - pf[l]
	}
}

// sideSums8 is sideSums1 over the eight lanes of sc.rows: the same
// fills, by the same doubling layers, and the same set sums, per lane.
//
//flowrelvet:hotpath doubling fill feeding the eight-lane kernel: O(2^m) inner loop per block (reviewed: PR-8)
func sideSums8(q []block8, sc *kscratch8, rows []uint64, n int, links []graph.EdgeID) {
	clear(q)
	words, valid := rowShape(len(links))
	hi := sc.hi[:words]
	hi[0] = block8{1, 1, 1, 1, 1, 1, 1, 1}
	for i := lowLinks; i < len(links); i++ {
		var pf, pl block8
		laneFactors(&pf, &pl, &sc.rows, links[i])
		half := 1 << uint(i-lowLinks)
		fillStep8(hi[:half], hi[half:2*half], &pf, &pl)
	}
	low := min(len(links), lowLinks)
	for i := 0; i < low; i++ {
		laneFactors(&sc.lowF[i], &sc.lowL[i], &sc.rows, links[i])
	}
	for wi := range hi {
		sc.word[0] = hi[wi]
		for i := 0; i < low; i++ {
			half := 1 << uint(i)
			fillStep8(sc.word[:half], sc.word[half:2*half], &sc.lowF[i], &sc.lowL[i])
		}
		for rem := valid; rem != 0; {
			rm, set := rowClass(rows, words, n, uint64(wi), rem)
			rem &^= set
			setSum8(&q[rm], &sc.word, set)
		}
	}
}

// evalKernel8 runs the full evaluate phase for one block of eight
// already-validated scenarios (sc.rows) and returns the per-lane
// reliabilities.
//
//flowrelvet:hotpath eight-lane evaluate kernel: the batch throughput path, one call per lane block (reviewed: PR-8)
func (p *Plan) evalKernel8(sc *kscratch8) block8 {
	k := p.kern
	n := p.ds.Len()
	for side := 0; side < 2; side++ {
		sideSums8(sc.q[side], sc, p.rows[side], n, p.sideLinks[side])
	}
	for i, eid := range p.Cut {
		laneFactors(&sc.pcF[i], &sc.pcL[i], &sc.rows, eid)
	}
	qs, qt := sc.q[0], sc.q[1]
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
	sc := kpool1.Get().(*kscratch1)
	defer kpool1.Put(sc)
	sc.fit(p)
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
	lanes := p.lanes
	nblocks := (len(scenarios) + lanes - 1) / lanes
	if workers > nblocks {
		workers = nblocks
	}
	if workers == 1 {
		// Single-worker fast path: drain inline on the calling goroutine,
		// counting the items itself. No worker goroutines, no closure and
		// no shared counter (which a 32-bit target would move to the heap
		// for its alignment) means no per-call heap allocation — the shape
		// the hotalloc gate and the AllocsPerRun regression tests hold to
		// zero steady-state allocations.
		p.drain(nil, dst, scenarios, base, nblocks)
	} else {
		runPool(workers, func(next *atomic.Int64) {
			p.drain(next, dst, scenarios, base, nblocks)
		})
	}
	mEvalBlocks.Add(int64(nblocks))
	mKernelLanes.Add(int64(nblocks * lanes))
	mSegmentSums.Add(int64(nblocks) * p.Stats.KernelSegments)
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
// whole loop, work items handed out by the shared atomic counter, or in
// order when next is nil (the inline path). The counter is compared in 64
// bits so the poisoned value runPool stores on a worker panic stops every
// drain loop on 32-bit targets too.
//
//flowrelvet:hotpath batch drain loop: pooled per-worker scratch, no per-item allocation; error paths were rejected by EvalBatchInto before the loop started (reviewed: PR-8)
func (p *Plan) drain(next *atomic.Int64, dst []float64, scenarios [][]float64, base []float64, nblocks int) {
	if p.lanes == 1 {
		sc := kpool1.Get().(*kscratch1)
		defer kpool1.Put(sc)
		sc.fit(p)
		for i := claim(next, -1); i < int64(len(scenarios)); i = claim(next, i) {
			if h := p.blockHook; h != nil {
				h()
			}
			pfail := scenarios[i]
			if pfail == nil {
				pfail = base
			}
			dst[i] = p.evalKernel1(sc, pfail)
		}
		return
	}
	sc := kpool8.Get().(*kscratch8)
	defer kpool8.Put(sc)
	sc.fit(p)
	for b := claim(next, -1); b < int64(nblocks); b = claim(next, b) {
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
	}
	for l := range sc.rows {
		sc.rows[l] = nil
	}
}

// claim returns the work item after last: the shared counter's next
// item, or last+1 when there is no counter.
func claim(next *atomic.Int64, last int64) int64 {
	if next == nil {
		return last + 1
	}
	return next.Add(1) - 1
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
