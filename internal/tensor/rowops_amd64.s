#include "textflag.h"
#include "go_asm.h"

// AVX2 forms of the loops in rowops.go (rowops_amd64.go has the declarations
// and the length-pinning wrappers). The rules are simd_amd64.s's: four
// float64 lanes across columns, every arithmetic operation its own IEEE-exact
// instruction in the order of the Go expression (never a fused VFMADD*), the
// cols mod 4 tail the same sequence on one lane (…SD, or the 128-bit integer
// forms), unaligned loads and stores, no access outside the pinned lengths.
// Blocks are walked row by row in index order with the per-column
// accumulators read from and written back to memory on every row, so each
// column's sum is built in exactly the Go loop's order. Every function needs
// rows >= 1 and cols (or n) >= 1.

// func adamAVX2(p, m, v, grad *float64, n int, k *AdamCoeffs)
//
//	m = B1*m + OB1*g;  v = B2*v + (OB2*g)*g
//	p = p - (LR*(m*InvC1)) / (sqrt(v*InvC2) + Eps)
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), BX
	MOVQ grad+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), R9
	VBROADCASTSD AdamCoeffs_B1(R9), Y8
	VBROADCASTSD AdamCoeffs_OB1(R9), Y9
	VBROADCASTSD AdamCoeffs_B2(R9), Y10
	VBROADCASTSD AdamCoeffs_OB2(R9), Y11
	VBROADCASTSD AdamCoeffs_LR(R9), Y12
	VBROADCASTSD AdamCoeffs_InvC1(R9), Y13
	VBROADCASTSD AdamCoeffs_InvC2(R9), Y14
	VBROADCASTSD AdamCoeffs_Eps(R9), Y15
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX // last index a full vector starts below
	JMP  adamvtest

adamvloop:
	VMOVUPD (R8)(AX*8), Y0 // g
	VMULPD  (SI)(AX*8), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1 // m
	VMOVUPD Y1, (SI)(AX*8)
	VMULPD  (BX)(AX*8), Y10, Y3
	VMULPD  Y0, Y11, Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  Y2, Y3, Y3 // v
	VMOVUPD Y3, (BX)(AX*8)
	VMULPD  Y13, Y1, Y1
	VMULPD  Y1, Y12, Y1 // LR*(m*InvC1)
	VMULPD  Y14, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3 // sqrt(v*InvC2) + Eps
	VDIVPD  Y3, Y1, Y1 // Y1 / Y3
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y1, Y4, Y4 // p - quotient
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

adamvtest:
	CMPQ AX, DX
	JLT  adamvloop
	JMP  adamstest

adamsloop:
	VMOVSD  (R8)(AX*8), X0
	VMULSD  (SI)(AX*8), X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (SI)(AX*8)
	VMULSD  (BX)(AX*8), X10, X3
	VMULSD  X0, X11, X2
	VMULSD  X0, X2, X2
	VADDSD  X2, X3, X3
	VMOVSD  X3, (BX)(AX*8)
	VMULSD  X13, X1, X1
	VMULSD  X1, X12, X1
	VMULSD  X14, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X15, X3, X3
	VDIVSD  X3, X1, X1
	VMOVSD  (DI)(AX*8), X4
	VSUBSD  X1, X4, X4
	VMOVSD  X4, (DI)(AX*8)
	INCQ    AX

adamstest:
	CMPQ AX, CX
	JLT  adamsloop
	VZEROUPPER
	RET

// func colSumSqAVX2(sum, sumSq, x *float64, rows, cols int)
//
//	sum[j] += x[i][j];  sumSq[j] += x[i][j]*x[i][j]
TEXT ·colSumSqAVX2(SB), NOSPLIT, $0-40
	MOVQ sum+0(FP), DI
	MOVQ sumSq+8(FP), SI
	MOVQ x+16(FP), BX
	MOVQ rows+24(FP), R8
	MOVQ cols+32(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX

cssrow:
	XORQ AX, AX // j
	JMP  cssvtest

cssvloop:
	VMOVUPD (BX)(AX*8), Y0
	VADDPD  (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VMULPD  Y0, Y0, Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (SI)(AX*8)
	ADDQ    $4, AX

cssvtest:
	CMPQ AX, DX
	JLT  cssvloop
	JMP  cssstest

csssloop:
	VMOVSD (BX)(AX*8), X0
	VADDSD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	VMULSD X0, X0, X0
	VADDSD (SI)(AX*8), X0, X0
	VMOVSD X0, (SI)(AX*8)
	INCQ   AX

cssstest:
	CMPQ AX, CX
	JLT  csssloop
	LEAQ (BX)(CX*8), BX // next row
	DECQ R8
	JNZ  cssrow
	VZEROUPPER
	RET

// func bnApplyAVX2(out, xhat, x, mean, invStd, gamma, beta *float64, rows, cols int)
//
//	xh = (x[i][j] - mean[j])*invStd[j];  out[i][j] = gamma[j]*xh + beta[j]
//
// and xhat[i][j] = xh unless xhat is nil.
TEXT ·bnApplyAVX2(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), SI
	MOVQ x+16(FP), BX
	MOVQ mean+24(FP), R9
	MOVQ invStd+32(FP), R10
	MOVQ gamma+40(FP), R11
	MOVQ beta+48(FP), R12
	MOVQ rows+56(FP), R8
	MOVQ cols+64(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX

bnarow:
	XORQ AX, AX
	JMP  bnavtest

bnavloop:
	VMOVUPD (BX)(AX*8), Y0
	VSUBPD  (R9)(AX*8), Y0, Y0 // x - mean
	VMULPD  (R10)(AX*8), Y0, Y0
	TESTQ   SI, SI
	JZ      bnavout
	VMOVUPD Y0, (SI)(AX*8)

bnavout:
	VMULPD  (R11)(AX*8), Y0, Y0
	VADDPD  (R12)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

bnavtest:
	CMPQ AX, DX
	JLT  bnavloop
	JMP  bnastest

bnasloop:
	VMOVSD (BX)(AX*8), X0
	VSUBSD (R9)(AX*8), X0, X0
	VMULSD (R10)(AX*8), X0, X0
	TESTQ  SI, SI
	JZ     bnasout
	VMOVSD X0, (SI)(AX*8)

bnasout:
	VMULSD (R11)(AX*8), X0, X0
	VADDSD (R12)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

bnastest:
	CMPQ  AX, CX
	JLT   bnasloop
	LEAQ  (BX)(CX*8), BX
	LEAQ  (DI)(CX*8), DI
	TESTQ SI, SI
	JZ    bnanext
	LEAQ  (SI)(CX*8), SI

bnanext:
	DECQ R8
	JNZ  bnarow
	VZEROUPPER
	RET

// func bnGradSumsAVX2(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma *float64, rows, cols int)
//
// With dxhat = dout[i][j]*gamma[j]:
//
//	sumD[j] += dxhat;       sumDX[j] += dxhat*xhat[i][j]
//	bGrad[j] += dout[i][j]; gGrad[j] += dout[i][j]*xhat[i][j]
TEXT ·bnGradSumsAVX2(SB), NOSPLIT, $0-72
	MOVQ sumD+0(FP), DI
	MOVQ sumDX+8(FP), SI
	MOVQ gGrad+16(FP), R9
	MOVQ bGrad+24(FP), R10
	MOVQ dout+32(FP), BX
	MOVQ xhat+40(FP), R11
	MOVQ gamma+48(FP), R12
	MOVQ rows+56(FP), R8
	MOVQ cols+64(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX

bgsrow:
	XORQ AX, AX
	JMP  bgsvtest

bgsvloop:
	VMOVUPD (BX)(AX*8), Y0 // dout
	VMOVUPD (R11)(AX*8), Y1 // xhat
	VMULPD  (R12)(AX*8), Y0, Y2 // dxhat
	VADDPD  (DI)(AX*8), Y2, Y3
	VMOVUPD Y3, (DI)(AX*8)
	VMULPD  Y1, Y2, Y2
	VADDPD  (SI)(AX*8), Y2, Y2
	VMOVUPD Y2, (SI)(AX*8)
	VMULPD  Y1, Y0, Y1
	VADDPD  (R9)(AX*8), Y1, Y1
	VMOVUPD Y1, (R9)(AX*8)
	VADDPD  (R10)(AX*8), Y0, Y0
	VMOVUPD Y0, (R10)(AX*8)
	ADDQ    $4, AX

bgsvtest:
	CMPQ AX, DX
	JLT  bgsvloop
	JMP  bgsstest

bgssloop:
	VMOVSD (BX)(AX*8), X0
	VMOVSD (R11)(AX*8), X1
	VMULSD (R12)(AX*8), X0, X2
	VADDSD (DI)(AX*8), X2, X3
	VMOVSD X3, (DI)(AX*8)
	VMULSD X1, X2, X2
	VADDSD (SI)(AX*8), X2, X2
	VMOVSD X2, (SI)(AX*8)
	VMULSD X1, X0, X1
	VADDSD (R9)(AX*8), X1, X1
	VMOVSD X1, (R9)(AX*8)
	VADDSD (R10)(AX*8), X0, X0
	VMOVSD X0, (R10)(AX*8)
	INCQ   AX

bgsstest:
	CMPQ AX, CX
	JLT  bgssloop
	LEAQ (BX)(CX*8), BX
	LEAQ (R11)(CX*8), R11
	DECQ R8
	JNZ  bgsrow
	VZEROUPPER
	RET

// func bnGradInputAVX2(dx, dout, xhat, gamma, sumD, sumDX, invStd *float64, rows, cols int, m, invM float64)
//
//	dx[i][j] = (((dout[i][j]*gamma[j])*m - sumD[j]) - xhat[i][j]*sumDX[j]) * invStd[j] * invM
TEXT ·bnGradInputAVX2(SB), NOSPLIT, $0-88
	MOVQ dx+0(FP), DI
	MOVQ dout+8(FP), BX
	MOVQ xhat+16(FP), SI
	MOVQ gamma+24(FP), R9
	MOVQ sumD+32(FP), R10
	MOVQ sumDX+40(FP), R11
	MOVQ invStd+48(FP), R12
	MOVQ rows+56(FP), R8
	MOVQ cols+64(FP), CX
	VBROADCASTSD m+72(FP), Y14
	VBROADCASTSD invM+80(FP), Y15
	MOVQ CX, DX
	ANDQ $-4, DX

bgirow:
	XORQ AX, AX
	JMP  bgivtest

bgivloop:
	VMOVUPD (BX)(AX*8), Y0
	VMULPD  (R9)(AX*8), Y0, Y0 // dxhat
	VMULPD  Y14, Y0, Y0
	VSUBPD  (R10)(AX*8), Y0, Y0 // dxhat*m - sumD
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (R11)(AX*8), Y1, Y1 // xhat*sumDX
	VSUBPD  Y1, Y0, Y0 // Y0 - Y1
	VMULPD  (R12)(AX*8), Y0, Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

bgivtest:
	CMPQ AX, DX
	JLT  bgivloop
	JMP  bgistest

bgisloop:
	VMOVSD (BX)(AX*8), X0
	VMULSD (R9)(AX*8), X0, X0
	VMULSD X14, X0, X0
	VSUBSD (R10)(AX*8), X0, X0
	VMOVSD (SI)(AX*8), X1
	VMULSD (R11)(AX*8), X1, X1
	VSUBSD X1, X0, X0
	VMULSD (R12)(AX*8), X0, X0
	VMULSD X15, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

bgistest:
	CMPQ AX, CX
	JLT  bgisloop
	LEAQ (BX)(CX*8), BX
	LEAQ (SI)(CX*8), SI
	LEAQ (DI)(CX*8), DI
	DECQ R8
	JNZ  bgirow
	VZEROUPPER
	RET

// func reluAVX2(out, mask, x *float64, n int)
//
// In the integer domain, as reluVal and zeroOne are: out = x with every lane
// whose sign bit is set (as an int64, below zero) cleared to +0, and unless
// mask is nil, mask = the bits of 1.0 where out has any bit set, else +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-32
	MOVQ  out+0(FP), DI
	MOVQ  mask+8(FP), SI
	MOVQ  x+16(FP), BX
	MOVQ  n+24(FP), CX
	VPXOR Y12, Y12, Y12 // zero
	MOVQ  $0x3FF0000000000000, R9
	VMOVQ R9, X13
	VPBROADCASTQ X13, Y13 // 1.0
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-4, DX
	JMP   reluvtest

reluvloop:
	VMOVDQU  (BX)(AX*8), Y0
	VPCMPGTQ Y0, Y12, Y1 // 0 > x: the sign bit is set
	VPANDN   Y0, Y1, Y0 // x &^ that
	VMOVDQU  Y0, (DI)(AX*8)
	TESTQ    SI, SI
	JZ       reluvnext
	VPCMPEQQ Y0, Y12, Y1 // out == 0
	VPANDN   Y13, Y1, Y1 // 1.0 &^ that
	VMOVDQU  Y1, (SI)(AX*8)

reluvnext:
	ADDQ $4, AX

reluvtest:
	CMPQ AX, DX
	JLT  reluvloop
	JMP  relustest

relusloop:
	VMOVQ    (BX)(AX*8), X0
	VPCMPGTQ X0, X12, X1
	VPANDN   X0, X1, X0
	VMOVQ    X0, (DI)(AX*8)
	TESTQ    SI, SI
	JZ       relusnext
	VPCMPEQQ X0, X12, X1
	VPANDN   X13, X1, X1
	VMOVQ    X1, (SI)(AX*8)

relusnext:
	INCQ AX

relustest:
	CMPQ AX, CX
	JLT  relusloop
	VZEROUPPER
	RET

// func mulAVX2(dst, a, b *float64, n int)
//
//	dst[i] = a[i]*b[i]
TEXT ·mulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JMP  mulvtest

mulvloop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (BX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

mulvtest:
	CMPQ AX, DX
	JLT  mulvloop
	JMP  mulstest

mulsloop:
	VMOVSD (SI)(AX*8), X0
	VMULSD (BX)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

mulstest:
	CMPQ AX, CX
	JLT  mulsloop
	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float64, n int)
//
//	dst[i] = a[i]+b[i]
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JMP  addvtest

addvloop:
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (BX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

addvtest:
	CMPQ AX, DX
	JLT  addvloop
	JMP  addstest

addsloop:
	VMOVSD (SI)(AX*8), X0
	VADDSD (BX)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

addstest:
	CMPQ AX, CX
	JLT  addsloop
	VZEROUPPER
	RET

// func addRowVecAVX2(m, v *float64, rows, cols int)
//
//	m[i][j] += v[j]
TEXT ·addRowVecAVX2(SB), NOSPLIT, $0-32
	MOVQ m+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX

arvrow:
	XORQ AX, AX
	JMP  arvvtest

arvvloop:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

arvvtest:
	CMPQ AX, DX
	JLT  arvvloop
	JMP  arvstest

arvsloop:
	VMOVSD (DI)(AX*8), X0
	VADDSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

arvstest:
	CMPQ AX, CX
	JLT  arvsloop
	LEAQ (DI)(CX*8), DI
	DECQ R8
	JNZ  arvrow
	VZEROUPPER
	RET

// func addColSumsAVX2(sums, m *float64, rows, cols int)
//
//	sums[j] += m[i][j]
TEXT ·addColSumsAVX2(SB), NOSPLIT, $0-32
	MOVQ sums+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX

acsrow:
	XORQ AX, AX
	JMP  acsvtest

acsvloop:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

acsvtest:
	CMPQ AX, DX
	JLT  acsvloop
	JMP  acsstest

acssloop:
	VMOVSD (DI)(AX*8), X0
	VADDSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

acsstest:
	CMPQ AX, CX
	JLT  acssloop
	LEAQ (SI)(CX*8), SI
	DECQ R8
	JNZ  acsrow
	VZEROUPPER
	RET
