#include "textflag.h"
#include "go_asm.h"

// The loops of rowops.go in AVX2 and AVX-512 (rowops_amd64.go has the
// declarations and the length-pinning wrappers). The rules are
// simd_amd64.s's: float64 lanes across columns, every arithmetic operation
// its own IEEE-exact instruction in the order of the Go expression (never a
// fused VFMADD* or an embedded rounding), and steps of falling width with one
// instruction sequence — 8 lanes (ZMM) over every full 8-vector when wide is
// set, then 4 (YMM), then 1 (…SD, or the 128-bit integer forms) — unaligned
// loads and stores, no access outside the pinned lengths. Blocks are walked
// row by row in index order with the per-column accumulators read from and
// written back to memory on every row, so each column's sum is built in
// exactly the Go loop's order. Every function needs rows >= 1 and cols (or n)
// >= 1.
//
// Adam has no 8-lane step: it is bound by VDIVPD and VSQRTPD, whose ZMM forms
// take as long per element as the YMM ones.

// Every 8-lane step runs while j < R13, which is set to the end of the last
// full 8-vector of CX columns when wide is set and to 0 otherwise, so a CPU
// without AVX-512 never reaches a ZMM instruction.

// func adamAVX2(p, m, v, grad *float64, n int, k *AdamCoeffs)
//
//	m = B1*m + OB1*g;  v = B2*v + (OB2*g)*g
//	p = p - (LR*(m*InvC1)) / (sqrt(v*InvC2) + Eps);  g = +0
//
// The gradient's +0 store issues right after its load, in the shadow of the
// VDIVPD and VSQRTPD that bound the loop.
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
	VXORPD Y7, Y7, Y7 // +0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX // last index a full vector starts below
	JMP  adamvtest

adamvloop:
	VMOVUPD (R8)(AX*8), Y0 // g
	VMOVUPD Y7, (R8)(AX*8) // g = +0
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
	VMOVSD  X7, (R8)(AX*8)
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

// func colSumSqAsm(sum, sumSq, x, bias *float64, rows, cols int, wide bool)
//
//	x[i][j] += bias[j] (unless bias is nil);  sum[j] += x[i][j];  sumSq[j] += x[i][j]*x[i][j]
TEXT ·colSumSqAsm(SB), NOSPLIT, $0-49
	MOVQ sum+0(FP), DI
	MOVQ sumSq+8(FP), SI
	MOVQ x+16(FP), BX
	MOVQ bias+24(FP), R9
	MOVQ rows+32(FP), R8
	MOVQ cols+40(FP), CX
	MOVBQZX wide+48(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ CX, DX
	ANDQ $-4, DX

cssrow:
	XORQ AX, AX // j
	JMP  cssztest

csszloop:
	VMOVUPD (BX)(AX*8), Z0
	TESTQ   R9, R9
	JZ      csszsum
	VADDPD  (R9)(AX*8), Z0, Z0 // x + bias
	VMOVUPD Z0, (BX)(AX*8)

csszsum:
	VADDPD  (DI)(AX*8), Z0, Z1
	VMOVUPD Z1, (DI)(AX*8)
	VMULPD  Z0, Z0, Z0
	VADDPD  (SI)(AX*8), Z0, Z0
	VMOVUPD Z0, (SI)(AX*8)
	ADDQ    $8, AX

cssztest:
	CMPQ AX, R13
	JLT  csszloop
	JMP  cssvtest

cssvloop:
	VMOVUPD (BX)(AX*8), Y0
	TESTQ   R9, R9
	JZ      cssvsum
	VADDPD  (R9)(AX*8), Y0, Y0
	VMOVUPD Y0, (BX)(AX*8)

cssvsum:
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
	TESTQ  R9, R9
	JZ     cssssum
	VADDSD (R9)(AX*8), X0, X0
	VMOVSD X0, (BX)(AX*8)

cssssum:
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

// func bnApplyAsm(out, xhat, x, bias, mean, invStd, gamma, beta *float64, rows, cols int, relu, wide bool)
//
//	t = x[i][j] + bias[j] (x[i][j] when bias is nil)
//	xh = (t - mean[j])*invStd[j];  y = gamma[j]*xh + beta[j]
//	out[i][j] = y, or with relu y's bits &^ its sign spread, as in reluAsm
//
// and xhat[i][j] = xh unless xhat is nil. Every register but BP and R14 is
// taken, so relu is tested in its argument slot.
TEXT ·bnApplyAsm(SB), NOSPLIT, $0-82
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), SI
	MOVQ x+16(FP), BX
	MOVQ bias+24(FP), R15
	MOVQ mean+32(FP), R9
	MOVQ invStd+40(FP), R10
	MOVQ gamma+48(FP), R11
	MOVQ beta+56(FP), R12
	MOVQ rows+64(FP), R8
	MOVQ cols+72(FP), CX
	MOVBQZX wide+81(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ  CX, DX
	ANDQ  $-4, DX
	VPXOR Y12, Y12, Y12 // zero

bnarow:
	XORQ AX, AX
	JMP  bnaztest

bnazloop:
	VMOVUPD (BX)(AX*8), Z0
	TESTQ   R15, R15
	JZ      bnaznorm
	VADDPD  (R15)(AX*8), Z0, Z0 // x + bias

bnaznorm:
	VSUBPD  (R9)(AX*8), Z0, Z0 // - mean
	VMULPD  (R10)(AX*8), Z0, Z0
	TESTQ   SI, SI
	JZ      bnazout
	VMOVUPD Z0, (SI)(AX*8)

bnazout:
	VMULPD  (R11)(AX*8), Z0, Z0
	VADDPD  (R12)(AX*8), Z0, Z0
	CMPB    relu+80(FP), $0
	JEQ     bnazstore
	VPSRAQ  $63, Z0, Z1 // all ones where the sign bit is set
	VPANDNQ Z0, Z1, Z0 // y &^ that

bnazstore:
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX

bnaztest:
	CMPQ AX, R13
	JLT  bnazloop
	JMP  bnavtest

bnavloop:
	VMOVUPD (BX)(AX*8), Y0
	TESTQ   R15, R15
	JZ      bnavnorm
	VADDPD  (R15)(AX*8), Y0, Y0 // x + bias

bnavnorm:
	VSUBPD  (R9)(AX*8), Y0, Y0 // - mean
	VMULPD  (R10)(AX*8), Y0, Y0
	TESTQ   SI, SI
	JZ      bnavout
	VMOVUPD Y0, (SI)(AX*8)

bnavout:
	VMULPD   (R11)(AX*8), Y0, Y0
	VADDPD   (R12)(AX*8), Y0, Y0
	CMPB     relu+80(FP), $0
	JEQ      bnavstore
	VPCMPGTQ Y0, Y12, Y1 // 0 > y: the sign bit is set
	VPANDN   Y0, Y1, Y0 // y &^ that

bnavstore:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

bnavtest:
	CMPQ AX, DX
	JLT  bnavloop
	JMP  bnastest

bnasloop:
	VMOVSD (BX)(AX*8), X0
	TESTQ  R15, R15
	JZ     bnasnorm
	VADDSD (R15)(AX*8), X0, X0

bnasnorm:
	VSUBSD (R9)(AX*8), X0, X0
	VMULSD (R10)(AX*8), X0, X0
	TESTQ  SI, SI
	JZ     bnasout
	VMOVSD X0, (SI)(AX*8)

bnasout:
	VMULSD   (R11)(AX*8), X0, X0
	VADDSD   (R12)(AX*8), X0, X0
	CMPB     relu+80(FP), $0
	JEQ      bnasstore
	VPCMPGTQ X0, X12, X1
	VPANDN   X0, X1, X0

bnasstore:
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

// func bnGradSumsAsm(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma *float64, rows, cols int, wide bool)
//
// With dxhat = dout[i][j]*gamma[j]:
//
//	sumD[j] += dxhat;       sumDX[j] += dxhat*xhat[i][j]
//	bGrad[j] += dout[i][j]; gGrad[j] += dout[i][j]*xhat[i][j]
TEXT ·bnGradSumsAsm(SB), NOSPLIT, $0-73
	MOVQ sumD+0(FP), DI
	MOVQ sumDX+8(FP), SI
	MOVQ gGrad+16(FP), R9
	MOVQ bGrad+24(FP), R10
	MOVQ dout+32(FP), BX
	MOVQ xhat+40(FP), R11
	MOVQ gamma+48(FP), R12
	MOVQ rows+56(FP), R8
	MOVQ cols+64(FP), CX
	MOVBQZX wide+72(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ CX, DX
	ANDQ $-4, DX

bgsrow:
	XORQ AX, AX
	JMP  bgsztest

bgszloop:
	VMOVUPD (BX)(AX*8), Z0 // dout
	VMOVUPD (R11)(AX*8), Z1 // xhat
	VMULPD  (R12)(AX*8), Z0, Z2 // dxhat
	VADDPD  (DI)(AX*8), Z2, Z3
	VMOVUPD Z3, (DI)(AX*8)
	VMULPD  Z1, Z2, Z2
	VADDPD  (SI)(AX*8), Z2, Z2
	VMOVUPD Z2, (SI)(AX*8)
	VMULPD  Z1, Z0, Z1
	VADDPD  (R9)(AX*8), Z1, Z1
	VMOVUPD Z1, (R9)(AX*8)
	VADDPD  (R10)(AX*8), Z0, Z0
	VMOVUPD Z0, (R10)(AX*8)
	ADDQ    $8, AX

bgsztest:
	CMPQ AX, R13
	JLT  bgszloop
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

// func bnGradInputAsm(dx, dout, xhat, gamma, sumD, sumDX, invStd *float64, rows, cols int, m, invM float64, wide bool)
//
//	dx[i][j] = (((dout[i][j]*gamma[j])*m - sumD[j]) - xhat[i][j]*sumDX[j]) * invStd[j] * invM
TEXT ·bnGradInputAsm(SB), NOSPLIT, $0-89
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
	MOVBQZX wide+88(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ CX, DX
	ANDQ $-4, DX
	TESTQ R13, R13
	JZ    bgirow
	VBROADCASTSD X14, Z14
	VBROADCASTSD X15, Z15

bgirow:
	XORQ AX, AX
	JMP  bgiztest

bgizloop:
	VMOVUPD (BX)(AX*8), Z0
	VMULPD  (R9)(AX*8), Z0, Z0 // dxhat
	VMULPD  Z14, Z0, Z0
	VSUBPD  (R10)(AX*8), Z0, Z0 // dxhat*m - sumD
	VMOVUPD (SI)(AX*8), Z1
	VMULPD  (R11)(AX*8), Z1, Z1 // xhat*sumDX
	VSUBPD  Z1, Z0, Z0 // Z0 - Z1
	VMULPD  (R12)(AX*8), Z0, Z0
	VMULPD  Z15, Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX

bgiztest:
	CMPQ AX, R13
	JLT  bgizloop
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

// func reluAsm(out, x *float64, n int, wide bool)
//
// In the integer domain, as reluVal is: out = x with every lane whose sign
// bit is set (as an int64, below zero) cleared to +0. The 8-lane step has no
// vector compare: it clears with the sign spread by VPSRAQ, as reluVal does.
TEXT ·reluAsm(SB), NOSPLIT, $0-25
	MOVQ  out+0(FP), DI
	MOVQ  x+8(FP), BX
	MOVQ  n+16(FP), CX
	VPXOR Y12, Y12, Y12 // zero
	XORQ  AX, AX
	MOVBQZX wide+24(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ CX, DX
	ANDQ $-4, DX
	JMP  reluztest

reluzloop:
	VMOVDQU64 (BX)(AX*8), Z0
	VPSRAQ    $63, Z0, Z1 // all ones where the sign bit is set
	VPANDNQ   Z0, Z1, Z0 // x &^ that
	VMOVDQU64 Z0, (DI)(AX*8)
	ADDQ      $8, AX

reluztest:
	CMPQ AX, R13
	JLT  reluzloop
	JMP  reluvtest

reluvloop:
	VMOVDQU  (BX)(AX*8), Y0
	VPCMPGTQ Y0, Y12, Y1 // 0 > x: the sign bit is set
	VPANDN   Y0, Y1, Y0 // x &^ that
	VMOVDQU  Y0, (DI)(AX*8)
	ADDQ     $4, AX

reluvtest:
	CMPQ AX, DX
	JLT  reluvloop
	JMP  relustest

relusloop:
	VMOVQ    (BX)(AX*8), X0
	VPCMPGTQ X0, X12, X1
	VPANDN   X0, X1, X0
	VMOVQ    X0, (DI)(AX*8)
	INCQ     AX

relustest:
	CMPQ AX, CX
	JLT  relusloop
	VZEROUPPER
	RET

// func reluGradAsm(dx, dout, y *float64, n int, wide bool)
//
//	dx[i] = dout[i] * (1.0 where y[i] has any bit set, else +0)
//
// The factor is zeroOne(y), built in a register from y's bits: on the 8-lane
// step with the opmask VPTESTMQ sets, below it with VPCMPEQQ against zero.
TEXT ·reluGradAsm(SB), NOSPLIT, $0-33
	MOVQ  dx+0(FP), DI
	MOVQ  dout+8(FP), SI
	MOVQ  y+16(FP), BX
	MOVQ  n+24(FP), CX
	VPXOR Y12, Y12, Y12 // zero
	MOVQ  $0x3FF0000000000000, R9
	VMOVQ R9, X13
	VPBROADCASTQ X13, Y13 // 1.0
	XORQ  AX, AX
	MOVBQZX wide+32(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ CX, DX
	ANDQ $-4, DX
	TESTQ R13, R13
	JZ    rgztest
	VPBROADCASTQ X13, Z13
	JMP   rgztest

rgzloop:
	VMOVDQU64   (BX)(AX*8), Z1
	VPTESTMQ    Z1, Z1, K1 // y != 0
	VMOVDQU64.Z Z13, K1, Z1 // 1.0 there, +0 elsewhere
	VMOVUPD     (SI)(AX*8), Z0
	VMULPD      Z1, Z0, Z0 // dout * that
	VMOVUPD     Z0, (DI)(AX*8)
	ADDQ        $8, AX

rgztest:
	CMPQ AX, R13
	JLT  rgzloop
	JMP  rgvtest

rgvloop:
	VMOVDQU  (BX)(AX*8), Y1
	VPCMPEQQ Y1, Y12, Y1 // y == 0
	VPANDN   Y13, Y1, Y1 // 1.0 &^ that
	VMOVUPD  (SI)(AX*8), Y0
	VMULPD   Y1, Y0, Y0
	VMOVUPD  Y0, (DI)(AX*8)
	ADDQ     $4, AX

rgvtest:
	CMPQ AX, DX
	JLT  rgvloop
	JMP  rgstest

rgsloop:
	VMOVQ    (BX)(AX*8), X1
	VPCMPEQQ X1, X12, X1
	VPANDN   X13, X1, X1
	VMOVSD   (SI)(AX*8), X0
	VMULSD   X1, X0, X0
	VMOVSD   X0, (DI)(AX*8)
	INCQ     AX

rgstest:
	CMPQ AX, CX
	JLT  rgsloop
	VZEROUPPER
	RET

// func addAsm(dst, a, b *float64, n int, relu, wide bool)
//
//	dst[i] = a[i]+b[i], or with relu that sum's bits &^ its sign spread
TEXT ·addAsm(SB), NOSPLIT, $0-34
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	MOVBQZX relu+32(FP), R9
	VPXOR Y12, Y12, Y12 // zero
	XORQ AX, AX
	MOVBQZX wide+33(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ CX, DX
	ANDQ $-4, DX
	JMP  addztest

addzloop:
	VMOVUPD (SI)(AX*8), Z0
	VADDPD  (BX)(AX*8), Z0, Z0
	TESTQ   R9, R9
	JZ      addzstore
	VPSRAQ  $63, Z0, Z1
	VPANDNQ Z0, Z1, Z0

addzstore:
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX

addztest:
	CMPQ AX, R13
	JLT  addzloop
	JMP  addvtest

addvloop:
	VMOVUPD  (SI)(AX*8), Y0
	VADDPD   (BX)(AX*8), Y0, Y0
	TESTQ    R9, R9
	JZ       addvstore
	VPCMPGTQ Y0, Y12, Y1
	VPANDN   Y0, Y1, Y0

addvstore:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

addvtest:
	CMPQ AX, DX
	JLT  addvloop
	JMP  addstest

addsloop:
	VMOVSD   (SI)(AX*8), X0
	VADDSD   (BX)(AX*8), X0, X0
	TESTQ    R9, R9
	JZ       addsstore
	VPCMPGTQ X0, X12, X1
	VPANDN   X0, X1, X0

addsstore:
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

addstest:
	CMPQ AX, CX
	JLT  addsloop
	VZEROUPPER
	RET

// func addRowVecAsm(m, v *float64, rows, cols int, wide bool)
//
//	m[i][j] += v[j]
TEXT ·addRowVecAsm(SB), NOSPLIT, $0-33
	MOVQ m+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), CX
	MOVBQZX wide+32(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ CX, DX
	ANDQ $-4, DX

arvrow:
	XORQ AX, AX
	JMP  arvztest

arvzloop:
	VMOVUPD (DI)(AX*8), Z0
	VADDPD  (SI)(AX*8), Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX

arvztest:
	CMPQ AX, R13
	JLT  arvzloop
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

// func addColSumsAsm(sums, m *float64, rows, cols int, wide bool)
//
//	sums[j] += m[i][j]
TEXT ·addColSumsAsm(SB), NOSPLIT, $0-33
	MOVQ sums+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), CX
	MOVBQZX wide+32(FP), R13
	NEGQ    R13 // all ones when wide
	ANDQ    CX, R13
	ANDQ    $-8, R13 // where the 8-lane step ends
	MOVQ CX, DX
	ANDQ $-4, DX

acsrow:
	XORQ AX, AX
	JMP  acsztest

acszloop:
	VMOVUPD (DI)(AX*8), Z0
	VADDPD  (SI)(AX*8), Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX

acsztest:
	CMPQ AX, R13
	JLT  acszloop
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
