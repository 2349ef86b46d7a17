//go:build amd64 && !race

#include "textflag.h"

// func axpy4(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)
//
// Four elements per iteration in two XMM accumulators, then one at a time.
// Each accumulator adds a0·m0, a1·m1, a2·m2, a3·m3 in that order, the order
// the Go kernel uses.
TEXT ·axpy4(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ m0_base+24(FP), R8
	MOVQ m1_base+48(FP), R9
	MOVQ m2_base+72(FP), R10
	MOVQ m3_base+96(FP), R11
	MOVSD a0+120(FP), X8
	UNPCKLPD X8, X8
	MOVSD a1+128(FP), X9
	UNPCKLPD X9, X9
	MOVSD a2+136(FP), X10
	UNPCKLPD X10, X10
	MOVSD a3+144(FP), X11
	UNPCKLPD X11, X11
	XORQ AX, AX

loop4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  loop1
	MOVUPD (DI)(AX*8), X0
	MOVUPD 16(DI)(AX*8), X4
	MOVUPD (R8)(AX*8), X1
	MOVUPD 16(R8)(AX*8), X5
	MULPD  X8, X1
	MULPD  X8, X5
	ADDPD  X1, X0
	ADDPD  X5, X4
	MOVUPD (R9)(AX*8), X2
	MOVUPD 16(R9)(AX*8), X6
	MULPD  X9, X2
	MULPD  X9, X6
	ADDPD  X2, X0
	ADDPD  X6, X4
	MOVUPD (R10)(AX*8), X1
	MOVUPD 16(R10)(AX*8), X5
	MULPD  X10, X1
	MULPD  X10, X5
	ADDPD  X1, X0
	ADDPD  X5, X4
	MOVUPD (R11)(AX*8), X2
	MOVUPD 16(R11)(AX*8), X6
	MULPD  X11, X2
	MULPD  X11, X6
	ADDPD  X2, X0
	ADDPD  X6, X4
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X4, 16(DI)(AX*8)
	MOVQ   DX, AX
	JMP    loop4

loop1:
	CMPQ  AX, CX
	JGE   done
	MOVSD (DI)(AX*8), X0
	MOVSD (R8)(AX*8), X1
	MULSD X8, X1
	ADDSD X1, X0
	MOVSD (R9)(AX*8), X2
	MULSD X9, X2
	ADDSD X2, X0
	MOVSD (R10)(AX*8), X1
	MULSD X10, X1
	ADDSD X1, X0
	MOVSD (R11)(AX*8), X2
	MULSD X11, X2
	ADDSD X2, X0
	MOVSD X0, (DI)(AX*8)
	INCQ  AX
	JMP   loop1

done:
	RET
