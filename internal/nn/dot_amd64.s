#include "textflag.h"

// func dotBlock(acc *[16]float64, w []float64, ldp int, cols []int32, vals []float64)
//
// X0–X7 hold the 16 lanes of acc, two per register, from +0. For each
// pair, X8 is the value broadcast to both halves; each pair of weights is
// loaded into a scratch register (X9–X14;
// X15, the zero register of Go's register ABI, is left alone), multiplied
// by X8 and added to its accumulator: acc + w·x, with one rounding for the
// product and one for the sum, as the scalar a += w*x rounds. SSE2 is the
// amd64 baseline, so no feature check.
TEXT ·dotBlock(SB), NOSPLIT, $0-88
	MOVQ acc+0(FP), DI
	MOVQ w_base+8(FP), SI
	MOVQ ldp+32(FP), DX
	SHLQ $3, DX // row stride in bytes
	MOVQ cols_base+40(FP), BX
	MOVQ cols_len+48(FP), CX
	MOVQ vals_base+64(FP), R8
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JEQ   done

loop:
	MOVLQSX  (BX), AX
	IMULQ    DX, AX
	ADDQ     SI, AX // AX = &w[col·ldp]
	MOVSD    (R8), X8
	UNPCKLPD X8, X8
	MOVUPD   0(AX), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(AX), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVUPD   32(AX), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVUPD   48(AX), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	MOVUPD   64(AX), X13
	MULPD    X8, X13
	ADDPD    X13, X4
	MOVUPD   80(AX), X14
	MULPD    X8, X14
	ADDPD    X14, X5
	MOVUPD   96(AX), X9
	MULPD    X8, X9
	ADDPD    X9, X6
	MOVUPD   112(AX), X10
	MULPD    X8, X10
	ADDPD    X10, X7
	ADDQ     $4, BX
	ADDQ     $8, R8
	DECQ     CX
	JNE      loop

done:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	RET
