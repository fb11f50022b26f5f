package core

import "math/bits"

// SIMD dispatch for the eight-lane kernel's two inner loops: one doubling
// layer of the configuration-probability fill and one set sum. The
// vector implementations perform exactly the scalar loop's per-lane
// multiplies and adds in the same order — packed IEEE-754 arithmetic is
// elementwise identical to scalar arithmetic, and no fused multiply-adds
// are used — so the dispatch level never changes results, only speed.
// kernel_simd_amd64.go probes the CPU at init; everything else falls back
// to the portable loops below.

const (
	simdNone = 0 // portable Go loops
	simdAVX  = 1 // 256-bit lanes, two registers per block
)

// fillStep8 runs one doubling layer over lane blocks: for every mask,
// hi[mask] = lo[mask]·pl and lo[mask] = lo[mask]·pf, per lane, in that
// store order. len(hi) ≥ len(lo) > 0.
//
//flowrelvet:hotpath SIMD dispatch for the doubling fill: branch, never allocate (reviewed: PR-8)
func fillStep8(lo, hi []block8, pf, pl *block8) {
	if kernelSIMD == simdAVX {
		fillStepAVX(&lo[0], &hi[0], len(lo), pf, pl)
		return
	}
	fillStepGo(lo, hi, pf, pl)
}

//flowrelvet:hotpath portable twin of the fill-step vector routine (reviewed: PR-8)
func fillStepGo(lo, hi []block8, pf, pl *block8) {
	for mask := range lo {
		lob := &lo[mask]
		hib := &hi[mask]
		for l := 0; l < batchLanes; l++ {
			v := lob[l]
			hib[l] = v * pl[l]
			lob[l] = v * pf[l]
		}
	}
}

// setSum8 adds to dst, per lane, the word's entries at the bits of set,
// in ascending bit order: one realized set's segment of a row word, in
// the scatter's ascending-mask order. set ≠ 0.
//
//flowrelvet:hotpath SIMD dispatch for the segmented sum (reviewed: PR-8)
func setSum8(dst *block8, word *[1 << lowLinks]block8, set uint64) {
	if kernelSIMD == simdAVX {
		setSumAVX(dst, word, set)
		return
	}
	setSumGo(dst, word, set)
}

//flowrelvet:hotpath portable twin of the segment-sum vector routine (reviewed: PR-8)
func setSumGo(dst *block8, word *[1 << lowLinks]block8, set uint64) {
	sum := *dst
	for ; set != 0; set &= set - 1 {
		pb := &word[bits.TrailingZeros64(set)&(1<<lowLinks-1)]
		for l := 0; l < batchLanes; l++ {
			sum[l] += pb[l]
		}
	}
	*dst = sum
}
