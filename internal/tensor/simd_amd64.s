#include "textflag.h"

// The GEMM kernels' inner loops in AVX2 and AVX-512 (simd_amd64.go has the
// declarations, kernels.go the contract). Float64 lanes run across output
// columns, so each lane performs exactly the scalar code's sequence of
// roundings: every multiply and every add is its own IEEE-exact instruction
// (VMULPD/VADDPD, never a fused VFMADD* or an embedded rounding).
//
// Only the avx512 set passes wide, and only on a CPU with AVX512F whose OS
// saves the opmask and ZMM state. Loads and stores are unaligned; the tile
// masks its column tails (an opmask on AVX-512, VMASKMOVPD on AVX2), and a
// masked-off lane is never read or written, so no function touches memory
// outside the lengths its Go wrapper pinned.

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

// tailMask is eight all-ones words then eight zero words: the eight words
// from 8-c on enable the first c lanes of two YMM vectors (VMASKMOVPD reads
// each word's sign bit).
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

// The tile's register use: AX, BX row 0's and row 1's coefficient at the
// current k; CX, DX the coefficient step and three steps, in bytes; R8 b's
// row k at the tile's first column; R9, R10 one and three rows of b, in
// bytes; R11 the k counter; R12, R13 row 0's and row 1's skip flags; SI the
// tile's first column; DI -1 when there is a row 1, else 0.

// GROUPFLAGS sets R12 (R13) to zero when row 0's (row 1's) next four
// coefficients are all ±0, and nonzero otherwise: the OR of their words,
// shifted left by one to drop the sign. Row 1's is forced to zero in the
// one-row form.
#define GROUPFLAGS \
	MOVQ (AX), R12; \
	ORQ  (AX)(CX*1), R12; \
	ORQ  (AX)(CX*2), R12; \
	ORQ  (AX)(DX*1), R12; \
	SHLQ $1, R12; \
	MOVQ (BX), R13; \
	ORQ  (BX)(CX*1), R13; \
	ORQ  (BX)(CX*2), R13; \
	ORQ  (BX)(DX*1), R13; \
	SHLQ $1, R13; \
	ANDQ DI, R13

// TAILFLAGS is GROUPFLAGS for one coefficient.
#define TAILFLAGS \
	MOVQ (AX), R12; \
	SHLQ $1, R12; \
	MOVQ (BX), R13; \
	SHLQ $1, R13; \
	ANDQ DI, R13

// ZGROUP adds one row's 4-group, with its coefficients at coef, to its
// accumulators acc0 and acc1; Z0-Z7 hold the group's b rows, two vectors
// each.
#define ZGROUP(coef, acc0, acc1) \
	VBROADCASTSD (coef), Z8; \
	VBROADCASTSD (coef)(CX*1), Z9; \
	VBROADCASTSD (coef)(CX*2), Z10; \
	VBROADCASTSD (coef)(DX*1), Z11; \
	VMULPD Z0, Z8, Z20; \
	VMULPD Z1, Z8, Z21; \
	VMULPD Z2, Z9, Z22; \
	VMULPD Z3, Z9, Z23; \
	VADDPD Z22, Z20, Z20; \
	VADDPD Z23, Z21, Z21; \
	VMULPD Z4, Z10, Z22; \
	VMULPD Z5, Z10, Z23; \
	VADDPD Z22, Z20, Z20; \
	VADDPD Z23, Z21, Z21; \
	VMULPD Z6, Z11, Z22; \
	VMULPD Z7, Z11, Z23; \
	VADDPD Z22, Z20, Z20; \
	VADDPD Z23, Z21, Z21; \
	VADDPD Z20, acc0, acc0; \
	VADDPD Z21, acc1, acc1

// ZTAIL is ZGROUP for one tail row of b, held in Z0 and Z1.
#define ZTAIL(coef, acc0, acc1) \
	VBROADCASTSD (coef), Z8; \
	VMULPD Z0, Z8, Z20; \
	VMULPD Z1, Z8, Z21; \
	VADDPD Z20, acc0, acc0; \
	VADDPD Z21, acc1, acc1

// LDU and LDM load the four words of b at addr into dst, on a full YMM tile
// and on the last, partial one: LDM reads only the lanes mask enables.
#define LDU(addr, mask, dst) VMOVUPD addr, dst
#define LDM(addr, mask, dst) VMASKMOVPD addr, mask, dst

// YGROUP adds one row's 4-group, with its coefficients at coef, to its
// accumulators acc0 and acc1, loading b with LD.
#define YGROUP(coef, acc0, acc1, LD) \
	VBROADCASTSD (coef), Y4; \
	VBROADCASTSD (coef)(CX*1), Y5; \
	VBROADCASTSD (coef)(CX*2), Y6; \
	VBROADCASTSD (coef)(DX*1), Y7; \
	LD((R8), Y14, Y8); \
	LD(32(R8), Y15, Y9); \
	VMULPD Y8, Y4, Y8; \
	VMULPD Y9, Y4, Y9; \
	LD((R8)(R9*1), Y14, Y10); \
	LD(32(R8)(R9*1), Y15, Y11); \
	VMULPD Y10, Y5, Y10; \
	VMULPD Y11, Y5, Y11; \
	VADDPD Y10, Y8, Y8; \
	VADDPD Y11, Y9, Y9; \
	LD((R8)(R9*2), Y14, Y10); \
	LD(32(R8)(R9*2), Y15, Y11); \
	VMULPD Y10, Y6, Y10; \
	VMULPD Y11, Y6, Y11; \
	VADDPD Y10, Y8, Y8; \
	VADDPD Y11, Y9, Y9; \
	LD((R8)(R10*1), Y14, Y10); \
	LD(32(R8)(R10*1), Y15, Y11); \
	VMULPD Y10, Y7, Y10; \
	VMULPD Y11, Y7, Y11; \
	VADDPD Y10, Y8, Y8; \
	VADDPD Y11, Y9, Y9; \
	VADDPD Y8, acc0, acc0; \
	VADDPD Y9, acc1, acc1

// YTAIL is YGROUP for one tail row of b.
#define YTAIL(coef, acc0, acc1, LD) \
	VBROADCASTSD (coef), Y4; \
	LD((R8), Y14, Y8); \
	LD(32(R8), Y15, Y9); \
	VMULPD Y8, Y4, Y8; \
	VMULPD Y9, Y4, Y9; \
	VADDPD Y8, acc0, acc0; \
	VADDPD Y9, acc1, acc1

// NEXTGROUP and NEXTROW step the coefficients and b past four rows and
// past one.
#define NEXTGROUP \
	LEAQ (AX)(CX*4), AX; \
	LEAQ (BX)(CX*4), BX; \
	LEAQ (R8)(R9*4), R8

#define NEXTROW \
	ADDQ CX, AX; \
	ADDQ CX, BX; \
	ADDQ R9, R8

// TILESTART points AX, BX and R8 at the tile's k = 0 and CX, DX at the
// coefficient step.
#define TILESTART \
	MOVQ step+56(FP), CX; \
	SHLQ $3, CX; \
	LEAQ (CX)(CX*2), DX; \
	MOVQ a+16(FP), AX; \
	MOVQ a2+24(FP), BX; \
	MOVQ b+32(FP), R8; \
	LEAQ (R8)(SI*8), R8

// func gemmTileAsm(o, o2, a, a2, b *float64, n, k, step int, load, wide bool)
//
//	o[j] += ((a[r]*b[r,j] + a[r+1]*b[r+1,j]) + a[r+2]*b[r+2,j]) + a[r+3]*b[r+3,j]   each group r = 0, 4, … < k&^3
//	o[j] += a[r]*b[r,j]                                                             each tail row r = k&^3, …, k-1
//
// for j < n, in that order, where a[r] is the word r*step after a and b[r,j]
// the word r*n+j after b. o starts from its contents when load is set, else
// from +0. A group whose four coefficients are all ±0, and a tail row whose
// coefficient is, is skipped: nothing, not even a zero, is added for it. o2
// takes a2 the same way. A nil o2 is the one-row form: row 1's skip flags
// are forced to zero, so row 1 is never computed, loaded or stored, but a2
// must still be readable. NN passes step 1 and a row of a; TN passes step m
// and a column of a.
//
// The columns go in tiles of 16 (four ZMM accumulators, two per row) when
// wide, else of 8 (four YMM). A tile runs the whole reduction in registers,
// so its outputs are loaded and stored once. On AVX-512 opmasks K1 and K2
// enable the tile's columns, all of them but on the last tile; on AVX2 a
// full tile loads plainly and the last, partial one through VMASKMOVPD with
// the masks in Y14 and Y15.
TEXT ·gemmTileAsm(SB), NOSPLIT, $0-66
	MOVQ n+40(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ o2+8(FP), DI
	NEGQ DI
	SBBQ DI, DI
	XORQ SI, SI
	CMPB wide+65(FP), $0
	JEQ  ytile

ztile:
	// K1 and K2 enable the tile's min(n-j, 16) columns.
	MOVQ    n+40(FP), CX
	SUBQ    SI, CX
	MOVQ    $16, R11
	CMPQ    CX, R11
	CMOVQGT R11, CX
	MOVL    $1, R11
	SHLQ    CX, R11
	DECQ    R11
	KMOVW   R11, K1
	SHRQ    $8, R11
	KMOVW   R11, K2
	TILESTART
	CMPB    load+64(FP), $0
	JNE     zload
	VPXORQ  Z16, Z16, Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z18, Z18, Z18
	VPXORQ  Z19, Z19, Z19
	JMP     zgroups

zload:
	MOVQ      o+0(FP), R12
	VMOVUPD.Z (R12)(SI*8), K1, Z16
	VMOVUPD.Z 64(R12)(SI*8), K2, Z17
	TESTQ     DI, DI
	JZ        zgroups
	MOVQ      o2+8(FP), R12
	VMOVUPD.Z (R12)(SI*8), K1, Z18
	VMOVUPD.Z 64(R12)(SI*8), K2, Z19

zgroups:
	MOVQ k+48(FP), R11
	SHRQ $2, R11
	JZ   ztail

zgroup:
	GROUPFLAGS
	TESTQ R12, R12
	JNZ   zgload
	TESTQ R13, R13
	JZ    zgnext

zgload:
	VMOVUPD.Z (R8), K1, Z0
	VMOVUPD.Z 64(R8), K2, Z1
	VMOVUPD.Z (R8)(R9*1), K1, Z2
	VMOVUPD.Z 64(R8)(R9*1), K2, Z3
	VMOVUPD.Z (R8)(R9*2), K1, Z4
	VMOVUPD.Z 64(R8)(R9*2), K2, Z5
	VMOVUPD.Z (R8)(R10*1), K1, Z6
	VMOVUPD.Z 64(R8)(R10*1), K2, Z7
	TESTQ     R12, R12
	JZ        zgrow1
	ZGROUP(AX, Z16, Z17)

zgrow1:
	TESTQ R13, R13
	JZ    zgnext
	ZGROUP(BX, Z18, Z19)

zgnext:
	NEXTGROUP
	DECQ R11
	JNZ  zgroup

ztail:
	MOVQ k+48(FP), R11
	ANDQ $3, R11
	JZ   zstore

ztrow:
	TAILFLAGS
	TESTQ R12, R12
	JNZ   ztload
	TESTQ R13, R13
	JZ    ztnext

ztload:
	VMOVUPD.Z (R8), K1, Z0
	VMOVUPD.Z 64(R8), K2, Z1
	TESTQ     R12, R12
	JZ        ztrow1
	ZTAIL(AX, Z16, Z17)

ztrow1:
	TESTQ R13, R13
	JZ    ztnext
	ZTAIL(BX, Z18, Z19)

ztnext:
	NEXTROW
	DECQ R11
	JNZ  ztrow

zstore:
	MOVQ    o+0(FP), R12
	VMOVUPD Z16, K1, (R12)(SI*8)
	VMOVUPD Z17, K2, 64(R12)(SI*8)
	TESTQ   DI, DI
	JZ      znext
	MOVQ    o2+8(FP), R12
	VMOVUPD Z18, K1, (R12)(SI*8)
	VMOVUPD Z19, K2, 64(R12)(SI*8)

znext:
	ADDQ $16, SI
	CMPQ SI, n+40(FP)
	JLT  ztile
	VZEROUPPER
	RET

ytile:
	// Y14 and Y15 enable the tile's min(n-j, 8) columns.
	MOVQ    n+40(FP), CX
	SUBQ    SI, CX
	MOVQ    $8, R11
	CMPQ    CX, R11
	CMOVQGT R11, CX
	NEGQ    CX
	LEAQ    tailMask<>+64(SB), R11
	VMOVDQU (R11)(CX*8), Y14
	VMOVDQU 32(R11)(CX*8), Y15
	TILESTART
	CMPB    load+64(FP), $0
	JNE     yload
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	JMP     ygroups

yload:
	MOVQ       o+0(FP), R12
	VMASKMOVPD (R12)(SI*8), Y14, Y0
	VMASKMOVPD 32(R12)(SI*8), Y15, Y1
	TESTQ      DI, DI
	JZ         ygroups
	MOVQ       o2+8(FP), R12
	VMASKMOVPD (R12)(SI*8), Y14, Y2
	VMASKMOVPD 32(R12)(SI*8), Y15, Y3

ygroups:
	MOVQ n+40(FP), R12
	SUBQ SI, R12
	CMPQ R12, $8
	JLT  ymgroups
	MOVQ k+48(FP), R11
	SHRQ $2, R11
	JZ   yftail

yfgroup:
	GROUPFLAGS
	TESTQ R12, R12
	JZ    yfrow1
	YGROUP(AX, Y0, Y1, LDU)

yfrow1:
	TESTQ R13, R13
	JZ    yfnext
	YGROUP(BX, Y2, Y3, LDU)

yfnext:
	NEXTGROUP
	DECQ R11
	JNZ  yfgroup

yftail:
	MOVQ k+48(FP), R11
	ANDQ $3, R11
	JZ   ystore

yftrow:
	TAILFLAGS
	TESTQ R12, R12
	JZ    yftrow1
	YTAIL(AX, Y0, Y1, LDU)

yftrow1:
	TESTQ R13, R13
	JZ    yftnext
	YTAIL(BX, Y2, Y3, LDU)

yftnext:
	NEXTROW
	DECQ R11
	JNZ  yftrow
	JMP  ystore

ymgroups:
	MOVQ k+48(FP), R11
	SHRQ $2, R11
	JZ   ymtail

ymgroup:
	GROUPFLAGS
	TESTQ R12, R12
	JZ    ymrow1
	YGROUP(AX, Y0, Y1, LDM)

ymrow1:
	TESTQ R13, R13
	JZ    ymnext
	YGROUP(BX, Y2, Y3, LDM)

ymnext:
	NEXTGROUP
	DECQ R11
	JNZ  ymgroup

ymtail:
	MOVQ k+48(FP), R11
	ANDQ $3, R11
	JZ   ystore

ymtrow:
	TAILFLAGS
	TESTQ R12, R12
	JZ    ymtrow1
	YTAIL(AX, Y0, Y1, LDM)

ymtrow1:
	TESTQ R13, R13
	JZ    ymtnext
	YTAIL(BX, Y2, Y3, LDM)

ymtnext:
	NEXTROW
	DECQ R11
	JNZ  ymtrow

ystore:
	MOVQ       o+0(FP), R12
	VMASKMOVPD Y0, Y14, (R12)(SI*8)
	VMASKMOVPD Y1, Y15, 32(R12)(SI*8)
	TESTQ      DI, DI
	JZ         ynext
	MOVQ       o2+8(FP), R12
	VMASKMOVPD Y2, Y14, (R12)(SI*8)
	VMASKMOVPD Y3, Y15, 32(R12)(SI*8)

ynext:
	ADDQ $8, SI
	CMPQ SI, n+40(FP)
	JLT  ytile
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

// func transposeAsm(out, m *float64, rows, cols int, wide bool)
//
// out = mᵀ over the blocks that fit whole: the first rows&^7 rows and
// cols&^7 columns of m in 8x8 blocks when wide is set, else the first
// rows&^3 and cols&^3 in 4x4 blocks; transposePanel's Go loop does the edges.
// A block is loaded row by row, transposed in registers and stored column
// by column. The 8x8 block: VUNPCKLPD/VUNPCKHPD interleave row pairs,
// VSHUFF64X2 $0x88/$0xDD gathers the even and the odd 128-bit lanes of two
// of those, and a second VSHUFF64X2 stage does the same across row quads.
// The 4x4 block: the same interleave, then VPERM2F128 joins low or high
// halves. Pure data movement: every value keeps its bits.
TEXT ·transposeAsm(SB), NOSPLIT, $0-33
	MOVQ    out+0(FP), DI
	MOVQ    m+8(FP), SI
	MOVQ    rows+16(FP), R8
	MOVQ    cols+24(FP), CX
	LEAQ    (CX*8), R10 // source row stride in bytes
	LEAQ    (R8*8), R11 // destination row stride in bytes
	MOVBQZX wide+32(FP), AX
	TESTQ   AX, AX
	JZ      tr4

	ANDQ $-8, R8 // rows in whole blocks
	ANDQ $-8, CX // columns in whole blocks
	XORQ BX, BX // i

tr8row:
	XORQ DX, DX // j

tr8col:
	// R9 = &m[i][j], R12 = &out[j][i]
	MOVQ BX, R9
	IMULQ R10, R9
	LEAQ (SI)(R9*1), R9
	LEAQ (R9)(DX*8), R9
	MOVQ DX, R12
	IMULQ R11, R12
	LEAQ (DI)(R12*1), R12
	LEAQ (R12)(BX*8), R12
	MOVQ R9, R13
	VMOVUPD (R13), Z0
	ADDQ    R10, R13
	VMOVUPD (R13), Z1
	ADDQ    R10, R13
	VMOVUPD (R13), Z2
	ADDQ    R10, R13
	VMOVUPD (R13), Z3
	ADDQ    R10, R13
	VMOVUPD (R13), Z4
	ADDQ    R10, R13
	VMOVUPD (R13), Z5
	ADDQ    R10, R13
	VMOVUPD (R13), Z6
	ADDQ    R10, R13
	VMOVUPD (R13), Z7

	VUNPCKLPD Z1, Z0, Z8 // r0[0] r1[0] r0[2] r1[2] r0[4] r1[4] r0[6] r1[6]
	VUNPCKHPD Z1, Z0, Z9 // r0[1] r1[1] r0[3] r1[3] ...
	VUNPCKLPD Z3, Z2, Z10
	VUNPCKHPD Z3, Z2, Z11
	VUNPCKLPD Z5, Z4, Z12
	VUNPCKHPD Z5, Z4, Z13
	VUNPCKLPD Z7, Z6, Z14
	VUNPCKHPD Z7, Z6, Z15

	VSHUFF64X2 $0x88, Z10, Z8, Z16 // rows 0-3 of columns 0 and 4
	VSHUFF64X2 $0x88, Z11, Z9, Z17 // columns 1 and 5
	VSHUFF64X2 $0xDD, Z10, Z8, Z18 // columns 2 and 6
	VSHUFF64X2 $0xDD, Z11, Z9, Z19 // columns 3 and 7
	VSHUFF64X2 $0x88, Z14, Z12, Z20 // rows 4-7, likewise
	VSHUFF64X2 $0x88, Z15, Z13, Z21
	VSHUFF64X2 $0xDD, Z14, Z12, Z22
	VSHUFF64X2 $0xDD, Z15, Z13, Z23

	VSHUFF64X2 $0x88, Z20, Z16, Z0 // column 0
	VSHUFF64X2 $0x88, Z21, Z17, Z1
	VSHUFF64X2 $0x88, Z22, Z18, Z2
	VSHUFF64X2 $0x88, Z23, Z19, Z3
	VSHUFF64X2 $0xDD, Z20, Z16, Z4 // column 4
	VSHUFF64X2 $0xDD, Z21, Z17, Z5
	VSHUFF64X2 $0xDD, Z22, Z18, Z6
	VSHUFF64X2 $0xDD, Z23, Z19, Z7

	VMOVUPD Z0, (R12)
	ADDQ    R11, R12
	VMOVUPD Z1, (R12)
	ADDQ    R11, R12
	VMOVUPD Z2, (R12)
	ADDQ    R11, R12
	VMOVUPD Z3, (R12)
	ADDQ    R11, R12
	VMOVUPD Z4, (R12)
	ADDQ    R11, R12
	VMOVUPD Z5, (R12)
	ADDQ    R11, R12
	VMOVUPD Z6, (R12)
	ADDQ    R11, R12
	VMOVUPD Z7, (R12)

	ADDQ $8, DX
	CMPQ DX, CX
	JLT  tr8col
	ADDQ $8, BX
	CMPQ BX, R8
	JLT  tr8row
	VZEROUPPER
	RET

tr4:
	ANDQ $-4, R8
	ANDQ $-4, CX
	XORQ BX, BX

tr4row:
	XORQ DX, DX

tr4col:
	MOVQ BX, R9
	IMULQ R10, R9
	LEAQ (SI)(R9*1), R9
	LEAQ (R9)(DX*8), R9
	MOVQ DX, R12
	IMULQ R11, R12
	LEAQ (DI)(R12*1), R12
	LEAQ (R12)(BX*8), R12
	MOVQ R9, R13
	VMOVUPD (R13), Y0
	ADDQ    R10, R13
	VMOVUPD (R13), Y1
	ADDQ    R10, R13
	VMOVUPD (R13), Y2
	ADDQ    R10, R13
	VMOVUPD (R13), Y3

	VUNPCKLPD Y1, Y0, Y4 // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD Y1, Y0, Y5 // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7

	VPERM2F128 $0x20, Y6, Y4, Y0 // column 0: the low halves
	VPERM2F128 $0x20, Y7, Y5, Y1 // column 1
	VPERM2F128 $0x31, Y6, Y4, Y2 // column 2: the high halves
	VPERM2F128 $0x31, Y7, Y5, Y3 // column 3

	VMOVUPD Y0, (R12)
	ADDQ    R11, R12
	VMOVUPD Y1, (R12)
	ADDQ    R11, R12
	VMOVUPD Y2, (R12)
	ADDQ    R11, R12
	VMOVUPD Y3, (R12)

	ADDQ $4, DX
	CMPQ DX, CX
	JLT  tr4col
	ADDQ $4, BX
	CMPQ BX, R8
	JLT  tr4row
	VZEROUPPER
	RET
