#include "textflag.h"

// func dotBlock(acc *[16]float64, w []float64, ldp int, cols []int32, vals []float64)
//
// Without AVX (useAVX false) it tail-calls dotBlockGo with its own
// arguments. Otherwise Y0–Y3 hold the 16 lanes of acc, four per register, from +0. For each
// pair, Y4 is the value broadcast to all four lanes; each four weights are
// loaded into a scratch register (Y5–Y8), multiplied by Y4 and added to
// their accumulator: acc + w·x, with one rounding for the product and one
// for the sum, as the scalar a += w*x rounds. The operands keep MULPD's and
// ADDPD's order (w first, then acc first), so a product of two NaNs keeps
// w's payload as before. No FMA: a fused multiply-add rounds once and would
// change the bits. VZEROUPPER before returning spares the SSE code that
// follows the AVX-to-SSE transition penalty.
TEXT ·dotBlock(SB), NOSPLIT, $0-88
	CMPB    ·useAVX(SB), $0
	JEQ     fallback
	MOVQ    acc+0(FP), DI
	MOVQ    w_base+8(FP), SI
	MOVQ    ldp+32(FP), DX
	SHLQ    $3, DX // row stride in bytes
	MOVQ    cols_base+40(FP), BX
	MOVQ    cols_len+48(FP), CX
	MOVQ    vals_base+64(FP), R8
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	TESTQ   CX, CX
	JEQ     done

loop:
	MOVLQSX      (BX), AX
	IMULQ        DX, AX
	ADDQ         SI, AX // AX = &w[col·ldp]
	VBROADCASTSD (R8), Y4
	VMOVUPD      0(AX), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VMOVUPD      32(AX), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VMOVUPD      64(AX), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VMOVUPD      96(AX), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $4, BX
	ADDQ         $8, R8
	DECQ         CX
	JNE          loop

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

fallback:
	JMP ·dotBlockGo(SB)

// func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
