package core

// SIMD dispatch for the eight-lane kernel's two inner loops: one doubling
// layer of the configuration-probability fill and one segmented sum. The
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

// segSum8 writes Σ_{i} probs[perm[i]] into dst, per lane, adding in
// perm order (the grouped scatter's ascending-mask order).
//
//flowrelvet:hotpath SIMD dispatch for the segmented sum (reviewed: PR-8)
func segSum8(dst *block8, probs []block8, perm []uint32) {
	if len(perm) == 0 {
		*dst = block8{}
		return
	}
	if kernelSIMD == simdAVX {
		segSumAVX(dst, &probs[0], &perm[0], len(perm))
		return
	}
	segSumGo(dst, probs, perm)
}

//flowrelvet:hotpath portable twin of the segment-sum vector routine (reviewed: PR-8)
func segSumGo(dst *block8, probs []block8, perm []uint32) {
	var sum block8
	for _, mask := range perm {
		pb := &probs[mask]
		for l := 0; l < batchLanes; l++ {
			sum[l] += pb[l]
		}
	}
	*dst = sum
}
