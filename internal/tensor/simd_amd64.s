#include "textflag.h"

// The GEMM kernels' innermost column loops in AVX2 and AVX-512 (simd_amd64.go
// has the declarations, kernels.go the contract). Float64 lanes run across
// output columns, so each lane performs exactly the scalar code's sequence of
// roundings: every multiply and every add is its own IEEE-exact instruction
// (VMULPD/VADDPD, never a fused VFMADD* or an embedded rounding).
//
// Each loop walks the columns in steps of falling width, all with the same
// instruction sequence: when wide is set, an 8-lane AVX-512 step (ZMM) covers
// every full 8-vector; then a 4-lane AVX2 step (YMM) covers every full
// 4-vector left, and a 1-lane step (VMULSD/VADDSD) the rest. Only the avx512
// set passes wide, and only on a CPU with AVX512F whose OS saves the opmask
// and ZMM state. No step uses an opmask: an output row is loaded again by the
// next call right after it is stored, and a masked store would stall that
// load instead of forwarding to it. Loads and stores are unaligned; no
// function touches memory outside the lengths its Go wrapper pinned.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4Asm(o, b *float64, n int, a0, a1, a2, a3 float64, wide bool)
//
//	o[j] += ((a0*b[j] + a1*b[n+j]) + a2*b[2n+j]) + a3*b[3n+j]   for j < n
TEXT ·axpy4Asm(SB), NOSPLIT, $0-57
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), BX
	MOVQ n+16(FP), CX
	VBROADCASTSD a0+24(FP), Y8
	VBROADCASTSD a1+32(FP), Y9
	VBROADCASTSD a2+40(FP), Y10
	VBROADCASTSD a3+48(FP), Y11
	LEAQ (BX)(CX*8), R10 // b row 1
	LEAQ (R10)(CX*8), R11 // b row 2
	LEAQ (R11)(CX*8), R12 // b row 3
	XORQ AX, AX // j
	CMPB wide+56(FP), $0
	JEQ  a4ymm
	VBROADCASTSD X8, Z8
	VBROADCASTSD X9, Z9
	VBROADCASTSD X10, Z10
	VBROADCASTSD X11, Z11
	MOVQ CX, DX
	ANDQ $-8, DX // last j a full 8-vector starts below
	JMP  a4ztest

a4zloop:
	VMULPD (BX)(AX*8), Z8, Z4
	VMULPD (R10)(AX*8), Z9, Z5
	VADDPD Z5, Z4, Z4
	VMULPD (R11)(AX*8), Z10, Z5
	VADDPD Z5, Z4, Z4
	VMULPD (R12)(AX*8), Z11, Z5
	VADDPD Z5, Z4, Z4
	VADDPD (DI)(AX*8), Z4, Z4
	VMOVUPD Z4, (DI)(AX*8)
	ADDQ $8, AX

a4ztest:
	CMPQ AX, DX
	JLT  a4zloop

a4ymm:
	MOVQ CX, DX
	ANDQ $-4, DX // last j a full 4-vector starts below
	JMP  a4vtest

a4vloop:
	VMULPD (BX)(AX*8), Y8, Y4
	VMULPD (R10)(AX*8), Y9, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R11)(AX*8), Y10, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R12)(AX*8), Y11, Y5
	VADDPD Y5, Y4, Y4
	VADDPD (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX

a4vtest:
	CMPQ AX, DX
	JLT  a4vloop
	JMP  a4stest

a4sloop:
	VMULSD (BX)(AX*8), X8, X4
	VMULSD (R10)(AX*8), X9, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X10, X5
	VADDSD X5, X4, X4
	VMULSD (R12)(AX*8), X11, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX

a4stest:
	CMPQ AX, CX
	JLT  a4sloop
	VZEROUPPER
	RET

// func axpy4x2Asm(o, o2, b *float64, n int, a0, a1, a2, a3, c0, c1, c2, c3 float64, wide bool)
//
// axpy4 for two output rows over one pass of the four b rows: o takes the a
// coefficients, o2 the c coefficients.
TEXT ·axpy4x2Asm(SB), NOSPLIT, $0-97
	MOVQ o+0(FP), DI
	MOVQ o2+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	VBROADCASTSD a0+32(FP), Y8
	VBROADCASTSD a1+40(FP), Y9
	VBROADCASTSD a2+48(FP), Y10
	VBROADCASTSD a3+56(FP), Y11
	VBROADCASTSD c0+64(FP), Y12
	VBROADCASTSD c1+72(FP), Y13
	VBROADCASTSD c2+80(FP), Y14
	VBROADCASTSD c3+88(FP), Y15
	LEAQ (BX)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12
	XORQ AX, AX
	CMPB wide+96(FP), $0
	JEQ  a8ymm
	VBROADCASTSD X8, Z8
	VBROADCASTSD X9, Z9
	VBROADCASTSD X10, Z10
	VBROADCASTSD X11, Z11
	VBROADCASTSD X12, Z12
	VBROADCASTSD X13, Z13
	VBROADCASTSD X14, Z14
	VBROADCASTSD X15, Z15
	MOVQ CX, DX
	ANDQ $-8, DX
	JMP  a8ztest

a8zloop:
	VMOVUPD (BX)(AX*8), Z0
	VMOVUPD (R10)(AX*8), Z1
	VMOVUPD (R11)(AX*8), Z2
	VMOVUPD (R12)(AX*8), Z3
	VMULPD Z0, Z8, Z4
	VMULPD Z1, Z9, Z5
	VADDPD Z5, Z4, Z4
	VMULPD Z2, Z10, Z5
	VADDPD Z5, Z4, Z4
	VMULPD Z3, Z11, Z5
	VADDPD Z5, Z4, Z4
	VADDPD (DI)(AX*8), Z4, Z4
	VMOVUPD Z4, (DI)(AX*8)
	VMULPD Z0, Z12, Z6
	VMULPD Z1, Z13, Z7
	VADDPD Z7, Z6, Z6
	VMULPD Z2, Z14, Z7
	VADDPD Z7, Z6, Z6
	VMULPD Z3, Z15, Z7
	VADDPD Z7, Z6, Z6
	VADDPD (SI)(AX*8), Z6, Z6
	VMOVUPD Z6, (SI)(AX*8)
	ADDQ $8, AX

a8ztest:
	CMPQ AX, DX
	JLT  a8zloop

a8ymm:
	MOVQ CX, DX
	ANDQ $-4, DX
	JMP  a8vtest

a8vloop:
	VMOVUPD (BX)(AX*8), Y0
	VMOVUPD (R10)(AX*8), Y1
	VMOVUPD (R11)(AX*8), Y2
	VMOVUPD (R12)(AX*8), Y3
	VMULPD Y0, Y8, Y4
	VMULPD Y1, Y9, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y2, Y10, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y3, Y11, Y5
	VADDPD Y5, Y4, Y4
	VADDPD (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	VMULPD Y0, Y12, Y6
	VMULPD Y1, Y13, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y2, Y14, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y3, Y15, Y7
	VADDPD Y7, Y6, Y6
	VADDPD (SI)(AX*8), Y6, Y6
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ $4, AX

a8vtest:
	CMPQ AX, DX
	JLT  a8vloop
	JMP  a8stest

a8sloop:
	VMOVSD (BX)(AX*8), X0
	VMOVSD (R10)(AX*8), X1
	VMOVSD (R11)(AX*8), X2
	VMOVSD (R12)(AX*8), X3
	VMULSD X0, X8, X4
	VMULSD X1, X9, X5
	VADDSD X5, X4, X4
	VMULSD X2, X10, X5
	VADDSD X5, X4, X4
	VMULSD X3, X11, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	VMULSD X0, X12, X6
	VMULSD X1, X13, X7
	VADDSD X7, X6, X6
	VMULSD X2, X14, X7
	VADDSD X7, X6, X6
	VMULSD X3, X15, X7
	VADDSD X7, X6, X6
	VADDSD (SI)(AX*8), X6, X6
	VMOVSD X6, (SI)(AX*8)
	INCQ AX

a8stest:
	CMPQ AX, CX
	JLT  a8sloop
	VZEROUPPER
	RET

// func dotColsAsm(o *float64, n int, a *float64, k int, bt *float64, stride int, wide bool)
//
//	o[j] = (s0 + s1) + tail   for j < n, n a multiple of 4
//
// where s0 and s1 accumulate a[kk]*bt[kk*stride+j] over even and odd kk of
// the paired prefix and tail takes the last kk of an odd k: dotSplit2's
// reduction, with lanes across the columns j of the packed bᵀ. All three
// start from +0 and are added to, as in the Go code (0 + -0 is +0). Columns
// go in blocks of falling width: when wide, 32 (two accumulators and the
// tail's for each of four ZMM vectors) and then 8; then 16 (the same on four
// YMM vectors) and then 4.
TEXT ·dotColsAsm(SB), NOSPLIT, $0-49
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ k+24(FP), DX
	MOVQ bt+32(FP), BX
	MOVQ stride+40(FP), R8
	SHLQ $3, R8 // row stride of bt in bytes
	MOVQ DX, R10
	ANDQ $-2, R10 // kk where the paired prefix ends
	CMPB wide+48(FP), $0
	JEQ  d16test
	JMP  d32test

d32block:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	MOVQ BX, R9 // bt row kk, at this block's first column
	XORQ AX, AX // kk
	JMP  d32ptest

d32pair:
	VBROADCASTSD (SI)(AX*8), Z8
	VBROADCASTSD 8(SI)(AX*8), Z9
	VMULPD (R9), Z8, Z14
	VADDPD Z14, Z0, Z0
	VMULPD 64(R9), Z8, Z15
	VADDPD Z15, Z1, Z1
	VMULPD 128(R9), Z8, Z14
	VADDPD Z14, Z2, Z2
	VMULPD 192(R9), Z8, Z15
	VADDPD Z15, Z3, Z3
	ADDQ R8, R9
	VMULPD (R9), Z9, Z14
	VADDPD Z14, Z4, Z4
	VMULPD 64(R9), Z9, Z15
	VADDPD Z15, Z5, Z5
	VMULPD 128(R9), Z9, Z14
	VADDPD Z14, Z6, Z6
	VMULPD 192(R9), Z9, Z15
	VADDPD Z15, Z7, Z7
	ADDQ R8, R9
	ADDQ $2, AX

d32ptest:
	CMPQ AX, R10
	JLT  d32pair
	CMPQ AX, DX
	JGE  d32store
	VBROADCASTSD (SI)(AX*8), Z8
	VMULPD (R9), Z8, Z14
	VADDPD Z14, Z10, Z10
	VMULPD 64(R9), Z8, Z15
	VADDPD Z15, Z11, Z11
	VMULPD 128(R9), Z8, Z14
	VADDPD Z14, Z12, Z12
	VMULPD 192(R9), Z8, Z15
	VADDPD Z15, Z13, Z13

d32store:
	VADDPD Z4, Z0, Z0
	VADDPD Z10, Z0, Z0
	VMOVUPD Z0, (DI)
	VADDPD Z5, Z1, Z1
	VADDPD Z11, Z1, Z1
	VMOVUPD Z1, 64(DI)
	VADDPD Z6, Z2, Z2
	VADDPD Z12, Z2, Z2
	VMOVUPD Z2, 128(DI)
	VADDPD Z7, Z3, Z3
	VADDPD Z13, Z3, Z3
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, CX

d32test:
	CMPQ CX, $32
	JGE  d32block
	JMP  d8test

d8block:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z4, Z4, Z4
	VPXORQ Z10, Z10, Z10
	MOVQ BX, R9
	XORQ AX, AX
	JMP  d8ptest

d8pair:
	VBROADCASTSD (SI)(AX*8), Z8
	VBROADCASTSD 8(SI)(AX*8), Z9
	VMULPD (R9), Z8, Z14
	VADDPD Z14, Z0, Z0
	ADDQ R8, R9
	VMULPD (R9), Z9, Z15
	VADDPD Z15, Z4, Z4
	ADDQ R8, R9
	ADDQ $2, AX

d8ptest:
	CMPQ AX, R10
	JLT  d8pair
	CMPQ AX, DX
	JGE  d8store
	VBROADCASTSD (SI)(AX*8), Z8
	VMULPD (R9), Z8, Z14
	VADDPD Z14, Z10, Z10

d8store:
	VADDPD Z4, Z0, Z0
	VADDPD Z10, Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $8, CX

d8test:
	CMPQ CX, $8
	JGE  d8block
	JMP  d16test

d16block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	MOVQ BX, R9
	XORQ AX, AX
	JMP  d16ptest

d16pair:
	VBROADCASTSD (SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VMULPD (R9), Y8, Y14
	VADDPD Y14, Y0, Y0
	VMULPD 32(R9), Y8, Y15
	VADDPD Y15, Y1, Y1
	VMULPD 64(R9), Y8, Y14
	VADDPD Y14, Y2, Y2
	VMULPD 96(R9), Y8, Y15
	VADDPD Y15, Y3, Y3
	ADDQ R8, R9
	VMULPD (R9), Y9, Y14
	VADDPD Y14, Y4, Y4
	VMULPD 32(R9), Y9, Y15
	VADDPD Y15, Y5, Y5
	VMULPD 64(R9), Y9, Y14
	VADDPD Y14, Y6, Y6
	VMULPD 96(R9), Y9, Y15
	VADDPD Y15, Y7, Y7
	ADDQ R8, R9
	ADDQ $2, AX

d16ptest:
	CMPQ AX, R10
	JLT  d16pair
	CMPQ AX, DX
	JGE  d16store
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R9), Y8, Y14
	VADDPD Y14, Y10, Y10
	VMULPD 32(R9), Y8, Y15
	VADDPD Y15, Y11, Y11
	VMULPD 64(R9), Y8, Y14
	VADDPD Y14, Y12, Y12
	VMULPD 96(R9), Y8, Y15
	VADDPD Y15, Y13, Y13

d16store:
	VADDPD Y4, Y0, Y0
	VADDPD Y10, Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD Y5, Y1, Y1
	VADDPD Y11, Y1, Y1
	VMOVUPD Y1, 32(DI)
	VADDPD Y6, Y2, Y2
	VADDPD Y12, Y2, Y2
	VMOVUPD Y2, 64(DI)
	VADDPD Y7, Y3, Y3
	VADDPD Y13, Y3, Y3
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, CX

d16test:
	CMPQ CX, $16
	JGE  d16block
	JMP  d4test

d4block:
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	VXORPD Y10, Y10, Y10
	MOVQ BX, R9
	XORQ AX, AX
	JMP  d4ptest

d4pair:
	VBROADCASTSD (SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VMULPD (R9), Y8, Y14
	VADDPD Y14, Y0, Y0
	ADDQ R8, R9
	VMULPD (R9), Y9, Y15
	VADDPD Y15, Y4, Y4
	ADDQ R8, R9
	ADDQ $2, AX

d4ptest:
	CMPQ AX, R10
	JLT  d4pair
	CMPQ AX, DX
	JGE  d4store
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R9), Y8, Y14
	VADDPD Y14, Y10, Y10

d4store:
	VADDPD Y4, Y0, Y0
	VADDPD Y10, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX

d4test:
	CMPQ CX, $4
	JGE  d4block
	VZEROUPPER
	RET
