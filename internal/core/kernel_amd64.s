// Vector inner loops of the eight-lane evaluate kernel. Each routine
// performs exactly the portable loop's per-lane IEEE-754 multiplies and
// adds in the same order (no FMA contraction), so results are
// bit-identical across dispatch levels. One [8]float64 lane block is 64
// bytes: a YMM register pair.

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (lo, hi uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET

// func fillStepAVX(lo, hi *block8, n int, pf, pl *block8)
//
// One doubling layer: for n masks, hi[m] = lo[m]·pl then lo[m] = lo[m]·pf
// (per lane). n ≥ 1.
TEXT ·fillStepAVX(SB), NOSPLIT, $0-40
	MOVQ lo+0(FP), SI
	MOVQ hi+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ pf+24(FP), AX
	MOVQ pl+32(FP), BX
	VMOVUPD (AX), Y1
	VMOVUPD 32(AX), Y4
	VMOVUPD (BX), Y2
	VMOVUPD 32(BX), Y5

fillavxloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y3
	VMULPD  Y2, Y0, Y6
	VMULPD  Y5, Y3, Y7
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VMULPD  Y1, Y0, Y6
	VMULPD  Y4, Y3, Y7
	VMOVUPD Y6, (SI)
	VMOVUPD Y7, 32(SI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     fillavxloop
	VZEROUPPER
	RET

// func setSumAVX(dst *block8, word *[64]block8, set uint64)
//
// dst += word[b] per lane for each set bit b, ascending. set ≠ 0.
TEXT ·setSumAVX(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    word+8(FP), SI
	MOVQ    set+16(FP), CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1

setavxloop:
	BSFQ    CX, AX
	SHLQ    $6, AX
	VADDPD  (SI)(AX*1), Y0, Y0
	VADDPD  32(SI)(AX*1), Y1, Y1
	LEAQ    -1(CX), DX
	ANDQ    DX, CX
	JNZ     setavxloop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET
