#include "textflag.h"

// AVX2 forms of the GEMM kernels' innermost column loops (simd_amd64.go has
// the declarations, kernels.go the contract). Four float64 lanes run across
// output columns, so each lane performs exactly the scalar code's sequence of
// roundings: every multiply and every add is its own IEEE-exact instruction
// (VMULPD/VADDPD, never a fused VFMADD*), and the n mod 4 tail repeats the
// same sequence with VMULSD/VADDSD. Loads and stores are unaligned; no
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

// func axpy4AVX2(o, b *float64, n int, a0, a1, a2, a3 float64)
//
//	o[j] += ((a0*b[j] + a1*b[n+j]) + a2*b[2n+j]) + a3*b[3n+j]   for j < n
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-56
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
	MOVQ CX, DX
	ANDQ $-4, DX // last j a full vector starts below
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

// func axpy4x2AVX2(o, o2, b *float64, n int, a0, a1, a2, a3, c0, c1, c2, c3 float64)
//
// axpy4 for two output rows over one pass of the four b rows: o takes the a
// coefficients, o2 the c coefficients.
TEXT ·axpy4x2AVX2(SB), NOSPLIT, $0-96
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

// func dotColsAVX2(o *float64, n int, a *float64, k int, bt *float64, stride int)
//
//	o[j] = (s0 + s1) + tail   for j < n, n a multiple of 4
//
// where s0 and s1 accumulate a[kk]*bt[kk*stride+j] over even and odd kk of
// the paired prefix and tail takes the last kk of an odd k: dotSplit2's
// reduction, with lanes across the columns j of the packed bᵀ. All three
// start from +0 and are added to, as in the Go code (0 + -0 is +0). Columns
// go 16 at a time (two accumulators for each of four vectors), then 4.
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ k+24(FP), DX
	MOVQ bt+32(FP), BX
	MOVQ stride+40(FP), R8
	SHLQ $3, R8 // row stride of bt in bytes
	MOVQ DX, R10
	ANDQ $-2, R10 // kk where the paired prefix ends
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
	MOVQ BX, R9 // bt row kk, at this block's first column
	XORQ AX, AX // kk
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
