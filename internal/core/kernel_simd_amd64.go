package core

// kernelSIMD selects the vector implementation of the eight-lane inner
// loops. Probed once at init; tests may override it to exercise every
// dispatch level on one machine.
var kernelSIMD = detectSIMD()

// detectSIMD reports the best supported dispatch level: AVX (VMULPD and
// VADDPD on YMM need nothing newer) when the CPU and OS expose YMM state,
// else the portable loops.
func detectSIMD() int {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return simdNone
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return simdNone
	}
	xcr0, _ := xgetbv0()
	// XCR0 bits 1..2: XMM and YMM state enabled by the OS.
	if xcr0&0x6 != 0x6 {
		return simdNone
	}
	return simdAVX
}

// Implemented in kernel_amd64.s.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (lo, hi uint32)

//go:noescape
func fillStepAVX(lo, hi *block8, n int, pf, pl *block8)

//go:noescape
func segSumAVX(dst *block8, probs *block8, perm *uint32, n int)
