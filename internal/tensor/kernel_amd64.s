//go:build amd64 && !race

#include "textflag.h"

// func axpy4SSE2(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)
//
// Four elements per iteration in two XMM accumulators, then one at a time.
// Each accumulator adds a0·m0, a1·m1, a2·m2, a3·m3 in that order, the order
// the Go kernel uses.
TEXT ·axpy4SSE2(SB), NOSPLIT, $0-152
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

// func axpy4AVX2(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)
//
// Eight elements per iteration in two YMM accumulators, then four, then one
// at a time. Each product is a·m and each sum d + product, in axpy4Go's
// order; there is no fused multiply-add.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         m0_base+24(FP), R8
	MOVQ         m1_base+48(FP), R9
	MOVQ         m2_base+72(FP), R10
	MOVQ         m3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y8
	VBROADCASTSD a1+128(FP), Y9
	VBROADCASTSD a2+136(FP), Y10
	VBROADCASTSD a3+144(FP), Y11
	XORQ         AX, AX

avx8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     avx4
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y8, Y2
	VMULPD  32(R8)(AX*8), Y8, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R9)(AX*8), Y9, Y2
	VMULPD  32(R9)(AX*8), Y9, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R10)(AX*8), Y10, Y2
	VMULPD  32(R10)(AX*8), Y10, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R11)(AX*8), Y11, Y2
	VMULPD  32(R11)(AX*8), Y11, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     avx8

avx4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     avx1
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y8, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R9)(AX*8), Y9, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R10)(AX*8), Y10, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R11)(AX*8), Y11, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    DX, AX

avx1:
	CMPQ   AX, CX
	JGE    avxdone
	VMOVSD (DI)(AX*8), X0
	VMULSD (R8)(AX*8), X8, X2
	VADDSD X2, X0, X0
	VMULSD (R9)(AX*8), X9, X2
	VADDSD X2, X0, X0
	VMULSD (R10)(AX*8), X10, X2
	VADDSD X2, X0, X0
	VMULSD (R11)(AX*8), X11, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    avx1

avxdone:
	VZEROUPPER
	RET

// func axpy4AVX512(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)
//
// axpy4AVX2 with 8-lane ZMM registers: sixteen elements per iteration in
// two accumulators, then eight, then axpy4AVX2's four and one on the low
// halves of the same registers.
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         m0_base+24(FP), R8
	MOVQ         m1_base+48(FP), R9
	MOVQ         m2_base+72(FP), R10
	MOVQ         m3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Z8
	VBROADCASTSD a1+128(FP), Z9
	VBROADCASTSD a2+136(FP), Z10
	VBROADCASTSD a3+144(FP), Z11
	XORQ         AX, AX

z16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JGT     z8
	VMOVUPD (DI)(AX*8), Z0
	VMOVUPD 64(DI)(AX*8), Z1
	VMULPD  (R8)(AX*8), Z8, Z2
	VMULPD  64(R8)(AX*8), Z8, Z3
	VADDPD  Z2, Z0, Z0
	VADDPD  Z3, Z1, Z1
	VMULPD  (R9)(AX*8), Z9, Z2
	VMULPD  64(R9)(AX*8), Z9, Z3
	VADDPD  Z2, Z0, Z0
	VADDPD  Z3, Z1, Z1
	VMULPD  (R10)(AX*8), Z10, Z2
	VMULPD  64(R10)(AX*8), Z10, Z3
	VADDPD  Z2, Z0, Z0
	VADDPD  Z3, Z1, Z1
	VMULPD  (R11)(AX*8), Z11, Z2
	VMULPD  64(R11)(AX*8), Z11, Z3
	VADDPD  Z2, Z0, Z0
	VADDPD  Z3, Z1, Z1
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z1, 64(DI)(AX*8)
	MOVQ    DX, AX
	JMP     z16

z8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     z4
	VMOVUPD (DI)(AX*8), Z0
	VMULPD  (R8)(AX*8), Z8, Z2
	VADDPD  Z2, Z0, Z0
	VMULPD  (R9)(AX*8), Z9, Z2
	VADDPD  Z2, Z0, Z0
	VMULPD  (R10)(AX*8), Z10, Z2
	VADDPD  Z2, Z0, Z0
	VMULPD  (R11)(AX*8), Z11, Z2
	VADDPD  Z2, Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	MOVQ    DX, AX

z4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     z1
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y8, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R9)(AX*8), Y9, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R10)(AX*8), Y10, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R11)(AX*8), Y11, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    DX, AX

z1:
	CMPQ   AX, CX
	JGE    zdone
	VMOVSD (DI)(AX*8), X0
	VMULSD (R8)(AX*8), X8, X2
	VADDSD X2, X0, X0
	VMULSD (R9)(AX*8), X9, X2
	VADDSD X2, X0, X0
	VMULSD (R10)(AX*8), X10, X2
	VADDSD X2, X0, X0
	VMULSD (R11)(AX*8), X11, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    z1

zdone:
	VZEROUPPER
	RET

// func axpy4x2AVX2(d0, d1, m0, m1, m2, m3 []float64, a0, a1, a2, a3, b0, b1, b2, b3 float64)
//
// axpy4AVX2 into d0 (coefficients a, accumulators Y0 Y1) and d1
// (coefficients b, accumulators Y2 Y3): each 8-element chunk of an m row is
// loaded once (Y4 Y5) and multiplied by both rows' coefficient. Tails go
// four, then one, like axpy4AVX2's.
TEXT ·axpy4x2AVX2(SB), NOSPLIT, $0-208
	MOVQ         d0_base+0(FP), DI
	MOVQ         d0_len+8(FP), CX
	MOVQ         d1_base+24(FP), SI
	MOVQ         m0_base+48(FP), R8
	MOVQ         m1_base+72(FP), R9
	MOVQ         m2_base+96(FP), R10
	MOVQ         m3_base+120(FP), R11
	VBROADCASTSD a0+144(FP), Y8
	VBROADCASTSD a1+152(FP), Y9
	VBROADCASTSD a2+160(FP), Y10
	VBROADCASTSD a3+168(FP), Y11
	VBROADCASTSD b0+176(FP), Y12
	VBROADCASTSD b1+184(FP), Y13
	VBROADCASTSD b2+192(FP), Y14
	VBROADCASTSD b3+200(FP), Y15
	XORQ         AX, AX

pair8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     pair4
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD 32(R8)(AX*8), Y5
	VMULPD  Y4, Y8, Y6
	VMULPD  Y5, Y8, Y7
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VMULPD  Y4, Y12, Y6
	VMULPD  Y5, Y12, Y7
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VMOVUPD (R9)(AX*8), Y4
	VMOVUPD 32(R9)(AX*8), Y5
	VMULPD  Y4, Y9, Y6
	VMULPD  Y5, Y9, Y7
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VMULPD  Y4, Y13, Y6
	VMULPD  Y5, Y13, Y7
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VMOVUPD (R10)(AX*8), Y4
	VMOVUPD 32(R10)(AX*8), Y5
	VMULPD  Y4, Y10, Y6
	VMULPD  Y5, Y10, Y7
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VMULPD  Y4, Y14, Y6
	VMULPD  Y5, Y14, Y7
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VMOVUPD (R11)(AX*8), Y4
	VMOVUPD 32(R11)(AX*8), Y5
	VMULPD  Y4, Y11, Y6
	VMULPD  Y5, Y11, Y7
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VMULPD  Y4, Y15, Y6
	VMULPD  Y5, Y15, Y7
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y3, 32(SI)(AX*8)
	MOVQ    DX, AX
	JMP     pair8

pair4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     pair1
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y4, Y8, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y12, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD (R9)(AX*8), Y4
	VMULPD  Y4, Y9, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y13, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD (R10)(AX*8), Y4
	VMULPD  Y4, Y10, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y14, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD (R11)(AX*8), Y4
	VMULPD  Y4, Y11, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y15, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y2, (SI)(AX*8)
	MOVQ    DX, AX

pair1:
	CMPQ   AX, CX
	JGE    pairdone
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X2
	VMOVSD (R8)(AX*8), X4
	VMULSD X4, X8, X6
	VADDSD X6, X0, X0
	VMULSD X4, X12, X6
	VADDSD X6, X2, X2
	VMOVSD (R9)(AX*8), X4
	VMULSD X4, X9, X6
	VADDSD X6, X0, X0
	VMULSD X4, X13, X6
	VADDSD X6, X2, X2
	VMOVSD (R10)(AX*8), X4
	VMULSD X4, X10, X6
	VADDSD X6, X0, X0
	VMULSD X4, X14, X6
	VADDSD X6, X2, X2
	VMOVSD (R11)(AX*8), X4
	VMULSD X4, X11, X6
	VADDSD X6, X0, X0
	VMULSD X4, X15, X6
	VADDSD X6, X2, X2
	VMOVSD X0, (DI)(AX*8)
	VMOVSD X2, (SI)(AX*8)
	INCQ   AX
	JMP    pair1

pairdone:
	VZEROUPPER
	RET

// func axpy4x2AVX512(d0, d1, m0, m1, m2, m3 []float64, a0, a1, a2, a3, b0, b1, b2, b3 float64)
//
// axpy4x2AVX2 with ZMM registers: sixteen elements per iteration, then
// eight, then four and one on the low halves of the same registers.
TEXT ·axpy4x2AVX512(SB), NOSPLIT, $0-208
	MOVQ         d0_base+0(FP), DI
	MOVQ         d0_len+8(FP), CX
	MOVQ         d1_base+24(FP), SI
	MOVQ         m0_base+48(FP), R8
	MOVQ         m1_base+72(FP), R9
	MOVQ         m2_base+96(FP), R10
	MOVQ         m3_base+120(FP), R11
	VBROADCASTSD a0+144(FP), Z8
	VBROADCASTSD a1+152(FP), Z9
	VBROADCASTSD a2+160(FP), Z10
	VBROADCASTSD a3+168(FP), Z11
	VBROADCASTSD b0+176(FP), Z12
	VBROADCASTSD b1+184(FP), Z13
	VBROADCASTSD b2+192(FP), Z14
	VBROADCASTSD b3+200(FP), Z15
	XORQ         AX, AX

zpair16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JGT     zpair8
	VMOVUPD (DI)(AX*8), Z0
	VMOVUPD 64(DI)(AX*8), Z1
	VMOVUPD (SI)(AX*8), Z2
	VMOVUPD 64(SI)(AX*8), Z3
	VMOVUPD (R8)(AX*8), Z4
	VMOVUPD 64(R8)(AX*8), Z5
	VMULPD  Z4, Z8, Z6
	VMULPD  Z5, Z8, Z7
	VADDPD  Z6, Z0, Z0
	VADDPD  Z7, Z1, Z1
	VMULPD  Z4, Z12, Z6
	VMULPD  Z5, Z12, Z7
	VADDPD  Z6, Z2, Z2
	VADDPD  Z7, Z3, Z3
	VMOVUPD (R9)(AX*8), Z4
	VMOVUPD 64(R9)(AX*8), Z5
	VMULPD  Z4, Z9, Z6
	VMULPD  Z5, Z9, Z7
	VADDPD  Z6, Z0, Z0
	VADDPD  Z7, Z1, Z1
	VMULPD  Z4, Z13, Z6
	VMULPD  Z5, Z13, Z7
	VADDPD  Z6, Z2, Z2
	VADDPD  Z7, Z3, Z3
	VMOVUPD (R10)(AX*8), Z4
	VMOVUPD 64(R10)(AX*8), Z5
	VMULPD  Z4, Z10, Z6
	VMULPD  Z5, Z10, Z7
	VADDPD  Z6, Z0, Z0
	VADDPD  Z7, Z1, Z1
	VMULPD  Z4, Z14, Z6
	VMULPD  Z5, Z14, Z7
	VADDPD  Z6, Z2, Z2
	VADDPD  Z7, Z3, Z3
	VMOVUPD (R11)(AX*8), Z4
	VMOVUPD 64(R11)(AX*8), Z5
	VMULPD  Z4, Z11, Z6
	VMULPD  Z5, Z11, Z7
	VADDPD  Z6, Z0, Z0
	VADDPD  Z7, Z1, Z1
	VMULPD  Z4, Z15, Z6
	VMULPD  Z5, Z15, Z7
	VADDPD  Z6, Z2, Z2
	VADDPD  Z7, Z3, Z3
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z1, 64(DI)(AX*8)
	VMOVUPD Z2, (SI)(AX*8)
	VMOVUPD Z3, 64(SI)(AX*8)
	MOVQ    DX, AX
	JMP     zpair16

zpair8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     zpair4
	VMOVUPD (DI)(AX*8), Z0
	VMOVUPD (SI)(AX*8), Z2
	VMOVUPD (R8)(AX*8), Z4
	VMULPD  Z4, Z8, Z6
	VADDPD  Z6, Z0, Z0
	VMULPD  Z4, Z12, Z6
	VADDPD  Z6, Z2, Z2
	VMOVUPD (R9)(AX*8), Z4
	VMULPD  Z4, Z9, Z6
	VADDPD  Z6, Z0, Z0
	VMULPD  Z4, Z13, Z6
	VADDPD  Z6, Z2, Z2
	VMOVUPD (R10)(AX*8), Z4
	VMULPD  Z4, Z10, Z6
	VADDPD  Z6, Z0, Z0
	VMULPD  Z4, Z14, Z6
	VADDPD  Z6, Z2, Z2
	VMOVUPD (R11)(AX*8), Z4
	VMULPD  Z4, Z11, Z6
	VADDPD  Z6, Z0, Z0
	VMULPD  Z4, Z15, Z6
	VADDPD  Z6, Z2, Z2
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z2, (SI)(AX*8)
	MOVQ    DX, AX

zpair4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     zpair1
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y4, Y8, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y12, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD (R9)(AX*8), Y4
	VMULPD  Y4, Y9, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y13, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD (R10)(AX*8), Y4
	VMULPD  Y4, Y10, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y14, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD (R11)(AX*8), Y4
	VMULPD  Y4, Y11, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y15, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y2, (SI)(AX*8)
	MOVQ    DX, AX

zpair1:
	CMPQ   AX, CX
	JGE    zpairdone
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X2
	VMOVSD (R8)(AX*8), X4
	VMULSD X4, X8, X6
	VADDSD X6, X0, X0
	VMULSD X4, X12, X6
	VADDSD X6, X2, X2
	VMOVSD (R9)(AX*8), X4
	VMULSD X4, X9, X6
	VADDSD X6, X0, X0
	VMULSD X4, X13, X6
	VADDSD X6, X2, X2
	VMOVSD (R10)(AX*8), X4
	VMULSD X4, X10, X6
	VADDSD X6, X0, X0
	VMULSD X4, X14, X6
	VADDSD X6, X2, X2
	VMOVSD (R11)(AX*8), X4
	VMULSD X4, X11, X6
	VADDSD X6, X0, X0
	VMULSD X4, X15, X6
	VADDSD X6, X2, X2
	VMOVSD X0, (DI)(AX*8)
	VMOVSD X2, (SI)(AX*8)
	INCQ   AX
	JMP    zpair1

zpairdone:
	VZEROUPPER
	RET

// func cpuFeatures() (avx2, avx512 bool)
//
// avx2: max leaf ≥ 7, OSXSAVE and AVX (leaf 1 ECX bits 27 and 28), XMM and
// YMM state enabled in XCR0 (bits 1 and 2), and AVX2 (leaf 7 EBX bit 5).
// avx512: all of that, opmask and ZMM state enabled in XCR0 (bits 5 to 7),
// and AVX512F (leaf 7 EBX bit 16).
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB  $0, avx2+0(FP)
	MOVB  $0, avx512+1(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JCS   probedone
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   probedone
	XORL  CX, CX
	XGETBV                // XCR0 into DX:AX
	MOVL  AX, R8
	ANDL  $0x06, AX
	CMPL  AX, $0x06
	JNE   probedone
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   probedone
	MOVB  $1, avx2+0(FP)
	BTL   $16, BX
	JCC   probedone
	ANDL  $0xe6, R8
	CMPL  R8, $0xe6
	JNE   probedone
	MOVB  $1, avx512+1(FP)

probedone:
	RET

// func maxInto1SSE2(best, x []float64)
//
// best[i] = MAXPD(x[i], best[i]): MAXPD returns its second operand unless
// the first is greater, so a NaN on either side or two zeros keep best[i],
// exactly as `if v > best[i]` does. Four elements per iteration, then one.
TEXT ·maxInto1SSE2(SB), NOSPLIT, $0-48
	MOVQ best_base+0(FP), DI
	MOVQ best_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	XORQ AX, AX

max1by4:
	LEAQ   4(AX), DX
	CMPQ   DX, CX
	JGT    max1by1
	MOVUPD (SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MOVUPD (DI)(AX*8), X2
	MOVUPD 16(DI)(AX*8), X3
	MAXPD  X2, X0
	MAXPD  X3, X1
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	MOVQ   DX, AX
	JMP    max1by4

max1by1:
	CMPQ  AX, CX
	JGE   max1done
	MOVSD (SI)(AX*8), X0
	MAXSD (DI)(AX*8), X0
	MOVSD X0, (DI)(AX*8)
	INCQ  AX
	JMP   max1by1

max1done:
	RET

// func maxInto2SSE2(best, x []float64)
//
// maxInto1SSE2 over x[0], x[2], x[4], …: two unaligned loads cover four
// elements of x, and UNPCKLPD keeps the even ones. Four outputs per
// iteration while their eight elements of x are in bounds, then one.
TEXT ·maxInto2SSE2(SB), NOSPLIT, $0-48
	MOVQ best_base+0(FP), DI
	MOVQ best_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	XORQ AX, AX

max2by4:
	LEAQ     4(AX), DX
	CMPQ     DX, CX
	JGT      max2by1
	LEAQ     (DX)(DX*1), R8
	CMPQ     R8, BX
	JGT      max2by1
	LEAQ     (AX)(AX*1), R9
	MOVUPD   (SI)(R9*8), X0
	MOVUPD   16(SI)(R9*8), X4
	MOVUPD   32(SI)(R9*8), X1
	MOVUPD   48(SI)(R9*8), X5
	UNPCKLPD X4, X0
	UNPCKLPD X5, X1
	MOVUPD   (DI)(AX*8), X2
	MOVUPD   16(DI)(AX*8), X3
	MAXPD    X2, X0
	MAXPD    X3, X1
	MOVUPD   X0, (DI)(AX*8)
	MOVUPD   X1, 16(DI)(AX*8)
	MOVQ     DX, AX
	JMP      max2by4

max2by1:
	CMPQ  AX, CX
	JGE   max2done
	LEAQ  (AX)(AX*1), R9
	MOVSD (SI)(R9*8), X0
	MAXSD (DI)(AX*8), X0
	MOVSD X0, (DI)(AX*8)
	INCQ  AX
	JMP   max2by1

max2done:
	RET

// func reluSSE2(dst, x []float64)
//
// dst[i] = MAXPD(x[i], +0), which is x[i] > 0 ? x[i] : +0 for every x[i],
// NaN and −0 included. Four elements per iteration, then one.
TEXT ·reluSSE2(SB), NOSPLIT, $0-48
	MOVQ  dst_base+0(FP), DI
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), CX
	XORPD X2, X2
	XORQ  AX, AX

relu4:
	LEAQ   4(AX), DX
	CMPQ   DX, CX
	JGT    relu1
	MOVUPD (SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MAXPD  X2, X0
	MAXPD  X2, X1
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	MOVQ   DX, AX
	JMP    relu4

relu1:
	CMPQ  AX, CX
	JGE   reludone
	MOVSD (SI)(AX*8), X0
	MAXSD X2, X0
	MOVSD X0, (DI)(AX*8)
	INCQ  AX
	JMP   relu1

reludone:
	RET
