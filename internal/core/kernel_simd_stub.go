//go:build !amd64

package core

// Non-amd64 builds always run the portable loops; the vector entry
// points exist only so the dispatch branches compile, and are
// unreachable because kernelSIMD never leaves simdNone.
var kernelSIMD = simdNone

func fillStepAVX(lo, hi *block8, n int, pf, pl *block8) {
	panic("core: SIMD kernel on non-amd64")
}

func setSumAVX(dst *block8, word *[1 << lowLinks]block8, set uint64) {
	panic("core: SIMD kernel on non-amd64")
}
