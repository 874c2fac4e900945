//go:build amd64 && !purego

// AVX2 row primitives behind simd_amd64.go. In the products, output
// columns j sit in the vector lanes and every lane multiplies, then
// adds, one term at a time in ascending l — the rounding sequence of the
// pure-Go kernels, so the results are theirs bit for bit. The
// elementwise routines (gradient accumulation, the Adam step) put
// elements in the lanes and repeat the Go expression's operations one
// for one. There is deliberately no FMA here.
//
// Every vector instruction is VEX-encoded and every routine ends in
// VZEROUPPER: one legacy-SSE instruction (a bare MOVQ AX, X13) executed
// while the upper YMM halves were dirty cost ~170 ns per call here.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// TERM adds one l's contribution to four vectors of output columns:
// Y0..Y3 += A * B[0:4 vectors], product rounded before the sum.
#define TERM(MULP, ADDP, B, A) \
	MULP (B), A, Y4;   \
	MULP 32(B), A, Y5; \
	MULP 64(B), A, Y6; \
	MULP 96(B), A, Y7; \
	ADDP Y4, Y0, Y0;   \
	ADDP Y5, Y1, Y1;   \
	ADDP Y6, Y2, Y2;   \
	ADDP Y7, Y3, Y3

// TERM1 is TERM for a single vector (MULP/ADDP) or, on the X halves of
// the same registers, a single element (MULS/ADDS).
#define TERM1(MUL, ADD, B, A, ACC, TMP) \
	MUL (B), A, TMP; \
	ADD TMP, ACC, ACC

// AXPY4 is the fused four-term update
//	o[j] = (((o[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
// for j in [0, n): DI = o, SI/R9/R10/R11 = b0..b3, CX = n, Y12..Y15 =
// a0..a3 broadcast. LANES is elements per vector, ESIZE bytes per
// element. Four vectors per trip keep four independent chains in
// flight; then one vector at a time; then the scalar tail.
#define AXPY4(MOVUP, MULP, ADDP, MOVS, MULS, ADDS, LANES, ESIZE) \
wide4: \
	CMPQ CX, $(4*LANES); \
	JLT  one4;           \
	MOVUP (DI), Y0;      \
	MOVUP 32(DI), Y1;    \
	MOVUP 64(DI), Y2;    \
	MOVUP 96(DI), Y3;    \
	TERM(MULP, ADDP, SI, Y12);  \
	TERM(MULP, ADDP, R9, Y13);  \
	TERM(MULP, ADDP, R10, Y14); \
	TERM(MULP, ADDP, R11, Y15); \
	MOVUP Y0, (DI);      \
	MOVUP Y1, 32(DI);    \
	MOVUP Y2, 64(DI);    \
	MOVUP Y3, 96(DI);    \
	ADDQ $128, DI;       \
	ADDQ $128, SI;       \
	ADDQ $128, R9;       \
	ADDQ $128, R10;      \
	ADDQ $128, R11;      \
	SUBQ $(4*LANES), CX; \
	JMP  wide4;          \
one4: \
	CMPQ CX, $LANES;     \
	JLT  tail4;          \
	MOVUP (DI), Y0;      \
	TERM1(MULP, ADDP, SI, Y12, Y0, Y4);  \
	TERM1(MULP, ADDP, R9, Y13, Y0, Y4);  \
	TERM1(MULP, ADDP, R10, Y14, Y0, Y4); \
	TERM1(MULP, ADDP, R11, Y15, Y0, Y4); \
	MOVUP Y0, (DI);      \
	ADDQ $32, DI;        \
	ADDQ $32, SI;        \
	ADDQ $32, R9;        \
	ADDQ $32, R10;       \
	ADDQ $32, R11;       \
	SUBQ $LANES, CX;     \
	JMP  one4;           \
tail4: \
	TESTQ CX, CX;        \
	JZ   done4;          \
	MOVS (DI), X0;       \
	TERM1(MULS, ADDS, SI, X12, X0, X4);  \
	TERM1(MULS, ADDS, R9, X13, X0, X4);  \
	TERM1(MULS, ADDS, R10, X14, X0, X4); \
	TERM1(MULS, ADDS, R11, X15, X0, X4); \
	MOVS X0, (DI);       \
	ADDQ $ESIZE, DI;     \
	ADDQ $ESIZE, SI;     \
	ADDQ $ESIZE, R9;     \
	ADDQ $ESIZE, R10;    \
	ADDQ $ESIZE, R11;    \
	DECQ CX;             \
	JMP  tail4;          \
done4: \
	VZEROUPPER;          \
	RET

// AXPY1 is the one-term update o[j] += a*b[j] for j in [0, n): DI = o,
// SI = b, CX = n, Y12 = a broadcast.
#define AXPY1(MOVUP, MULP, ADDP, MOVS, MULS, ADDS, LANES, ESIZE) \
wide1: \
	CMPQ CX, $(4*LANES); \
	JLT  one1;           \
	MOVUP (DI), Y0;      \
	MOVUP 32(DI), Y1;    \
	MOVUP 64(DI), Y2;    \
	MOVUP 96(DI), Y3;    \
	TERM(MULP, ADDP, SI, Y12); \
	MOVUP Y0, (DI);      \
	MOVUP Y1, 32(DI);    \
	MOVUP Y2, 64(DI);    \
	MOVUP Y3, 96(DI);    \
	ADDQ $128, DI;       \
	ADDQ $128, SI;       \
	SUBQ $(4*LANES), CX; \
	JMP  wide1;          \
one1: \
	CMPQ CX, $LANES;     \
	JLT  tail1;          \
	MOVUP (DI), Y0;      \
	TERM1(MULP, ADDP, SI, Y12, Y0, Y4); \
	MOVUP Y0, (DI);      \
	ADDQ $32, DI;        \
	ADDQ $32, SI;        \
	SUBQ $LANES, CX;     \
	JMP  one1;           \
tail1: \
	TESTQ CX, CX;        \
	JZ   done1;          \
	MOVS (DI), X0;       \
	TERM1(MULS, ADDS, SI, X12, X0, X4); \
	MOVS X0, (DI);       \
	ADDQ $ESIZE, DI;     \
	ADDQ $ESIZE, SI;     \
	DECQ CX;             \
	JMP  tail1;          \
done1: \
	VZEROUPPER;          \
	RET

// func axpy4F64(o, b *float64, n int, a0, a1, a2, a3 float64)
// b points at four consecutive rows of length n.
TEXT ·axpy4F64(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a0+24(FP), Y12
	VBROADCASTSD a1+32(FP), Y13
	VBROADCASTSD a2+40(FP), Y14
	VBROADCASTSD a3+48(FP), Y15
	LEAQ (SI)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	AXPY4(VMOVUPD, VMULPD, VADDPD, VMOVSD, VMULSD, VADDSD, 4, 8)

// func axpyF64(o, b *float64, n int, a float64)
TEXT ·axpyF64(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y12
	AXPY1(VMOVUPD, VMULPD, VADDPD, VMOVSD, VMULSD, VADDSD, 4, 8)

// func axpy4F32(o, b *float32, n int, a0, a1, a2, a3 float32)
// b points at four consecutive rows of length n.
TEXT ·axpy4F32(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS a0+24(FP), Y12
	VBROADCASTSS a1+28(FP), Y13
	VBROADCASTSS a2+32(FP), Y14
	VBROADCASTSS a3+36(FP), Y15
	LEAQ (SI)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	AXPY4(VMOVUPS, VMULPS, VADDPS, VMOVSS, VMULSS, VADDSS, 8, 4)

// func axpyF32(o, b *float32, n int, a float32)
TEXT ·axpyF32(SB), NOSPLIT, $0-28
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS a+24(FP), Y12
	AXPY1(VMOVUPS, VMULPS, VADDPS, VMOVSS, VMULSS, VADDSS, 8, 4)

// TRANSPOSE4 loads the 4×4 block of B at the four row cursors (R12,
// R12+BX, R12+2·BX, R13) and transposes it so Y8..Y11 hold columns
// l..l+3: lane c of Yl is B[j+c][l]. Y12..Y15 are scratch.
#define TRANSPOSE4 \
	VMOVUPD (R12), Y8;               \
	VMOVUPD (R12)(BX*1), Y9;         \
	VMOVUPD (R12)(BX*2), Y10;        \
	VMOVUPD (R13), Y11;              \
	VUNPCKLPD Y9, Y8, Y12;           \
	VUNPCKHPD Y9, Y8, Y13;           \
	VUNPCKLPD Y11, Y10, Y14;         \
	VUNPCKHPD Y11, Y10, Y15;         \
	VPERM2F128 $0x20, Y14, Y12, Y8;  \
	VPERM2F128 $0x20, Y15, Y13, Y9;  \
	VPERM2F128 $0x31, Y14, Y12, Y10; \
	VPERM2F128 $0x31, Y15, Y13, Y11

// GATHER1 builds the one-column vector Y8 = B[j..j+3][l] at the row
// cursors, for the k%4 tail.
#define GATHER1 \
	VMOVSD (R12), X8;              \
	VMOVHPD (R12)(BX*1), X8, X8;   \
	VMOVSD (R12)(BX*2), X9;        \
	VMOVHPD (R13), X9, X9;         \
	VINSERTF128 $1, X9, Y8, Y8

// DOT4 adds one l's term to four rows' accumulators Y0..Y3: row r's
// A entry (cursors R9, R9+BX, R10, R10+BX, at byte offset OFF) times
// column COL, product rounded before the sum.
#define DOT4(OFF, COL) \
	VBROADCASTSD OFF(R9), Y4;         \
	VBROADCASTSD OFF(R9)(BX*1), Y5;   \
	VBROADCASTSD OFF(R10), Y6;        \
	VBROADCASTSD OFF(R10)(BX*1), Y7;  \
	VMULPD COL, Y4, Y4;               \
	VMULPD COL, Y5, Y5;               \
	VMULPD COL, Y6, Y6;               \
	VMULPD COL, Y7, Y7;               \
	VADDPD Y4, Y0, Y0;                \
	VADDPD Y5, Y1, Y1;                \
	VADDPD Y6, Y2, Y2;                \
	VADDPD Y7, Y3, Y3

// DOT1 is DOT4 for the one row at R9, accumulating in Y0.
#define DOT1(OFF, COL) \
	VBROADCASTSD OFF(R9), Y4; \
	VMULPD COL, Y4, Y4;       \
	VADDPD Y4, Y0, Y0

// func dotT4F64(a, b, out *float64, k, n, m int)
// out[r*n+c] = a[r*k+0]*b[c*k+0] + … + a[r*k+k-1]*b[c*k+k-1] for r in
// [0, m), c in [0, 4): four output columns of a @ bᵀ, whose B rows sit
// at stride k. The lanes are the four columns; each sums its terms in
// ascending l starting from +0, exactly matMulTransBRows's dot product
// (a B block is transposed in registers so that a column is one vector).
// Rows go four at a time, sharing each transposed block, then one at a
// time. k > 0.
TEXT ·dotT4F64(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), R8
	MOVQ out+16(FP), DI
	MOVQ k+24(FP), BX
	MOVQ n+32(FP), DX
	MOVQ m+40(FP), AX
	SHLQ $3, BX // row stride of A and B in bytes
	SHLQ $3, DX // row stride of out in bytes
	LEAQ (R8)(BX*2), R11
	ADDQ BX, R11 // B row 3

rows4:
	CMPQ AX, $4
	JLT  rows1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R9
	LEAQ (SI)(BX*2), R10
	MOVQ R8, R12
	MOVQ R11, R13
	MOVQ BX, CX
	SHRQ $5, CX // k/4
	JZ   tail4

block4:
	TRANSPOSE4
	DOT4(0, Y8)
	DOT4(8, Y9)
	DOT4(16, Y10)
	DOT4(24, Y11)
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ CX
	JNZ  block4

tail4:
	MOVQ BX, CX
	SHRQ $3, CX
	ANDQ $3, CX // k%4
	JZ   store4

tail4l:
	GATHER1
	DOT4(0, Y8)
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  tail4l

store4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(DX*1)
	VMOVUPD Y2, (DI)(DX*2)
	LEAQ    (DI)(DX*2), R9
	VMOVUPD Y3, (R9)(DX*1)
	LEAQ    (SI)(BX*4), SI
	LEAQ    (DI)(DX*4), DI
	SUBQ    $4, AX
	JMP     rows4

rows1:
	TESTQ AX, AX
	JZ    dotTdone
	VXORPD Y0, Y0, Y0
	MOVQ SI, R9
	MOVQ R8, R12
	MOVQ R11, R13
	MOVQ BX, CX
	SHRQ $5, CX
	JZ   tail1

block1:
	TRANSPOSE4
	DOT1(0, Y8)
	DOT1(8, Y9)
	DOT1(16, Y10)
	DOT1(24, Y11)
	ADDQ $32, R9
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ CX
	JNZ  block1

tail1:
	MOVQ BX, CX
	SHRQ $3, CX
	ANDQ $3, CX
	JZ   store1

tail1l:
	GATHER1
	DOT1(0, Y8)
	ADDQ $8, R9
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  tail1l

store1:
	VMOVUPD Y0, (DI)
	ADDQ    BX, SI
	ADDQ    DX, DI
	DECQ    AX
	JMP     rows1

dotTdone:
	VZEROUPPER
	RET

// func addToF64(dst, src *float64, n int)
// dst[i] = dst[i] + src[i] for i in [0, n): four vectors a trip, then
// one, then single elements.
TEXT ·addToF64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add16:
	CMPQ CX, $16
	JLT  add4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     add16

add4:
	CMPQ CX, $4
	JLT  add1
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     add4

add1:
	TESTQ CX, CX
	JZ    adddone
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    add1

adddone:
	VZEROUPPER
	RET

// func adamF64(p, grad, m, v *float64, n int, s, b1, c1, b2, c2, lr, b1c, b2c, eps float64)
// One Adam step on elements [0, n), c1 = 1−β1 and c2 = 1−β2, in Go's
// expression tree and order of roundings (AdamUpdate):
//	g' = g·s
//	m  = β1·m + (1−β1)·g'
//	v  = β2·v + ((1−β2)·g')·g'
//	p  = p − (lr·(m/b1c)) / (√(v/b2c) + ε)
// The lanes are elements; multiply, add, subtract, divide and square
// root are each correctly rounded, packed or scalar, so every lane is
// the scalar loop's element. No FMA.
TEXT ·adamF64(SB), NOSPLIT, $0-112
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD s+40(FP), Y7
	VBROADCASTSD b1+48(FP), Y8
	VBROADCASTSD c1+56(FP), Y9
	VBROADCASTSD b2+64(FP), Y10
	VBROADCASTSD c2+72(FP), Y11
	VBROADCASTSD lr+80(FP), Y12
	VBROADCASTSD b1c+88(FP), Y13
	VBROADCASTSD b2c+96(FP), Y14
	VBROADCASTSD eps+104(FP), Y15

adam4:
	CMPQ CX, $4
	JLT  adam1
	VMULPD  (SI), Y7, Y0   // g' = g·s
	VMULPD  (R8), Y8, Y1   // β1·m
	VMULPD  Y0, Y9, Y2     // (1−β1)·g'
	VADDPD  Y2, Y1, Y1     // m
	VMOVUPD Y1, (R8)
	VMULPD  (R9), Y10, Y3  // β2·v
	VMULPD  Y0, Y11, Y4    // (1−β2)·g'
	VMULPD  Y0, Y4, Y4     // ·g'
	VADDPD  Y4, Y3, Y3     // v
	VMOVUPD Y3, (R9)
	VDIVPD  Y13, Y1, Y1    // m/b1c
	VDIVPD  Y14, Y3, Y3    // v/b2c
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3    // √ + ε
	VMULPD  Y1, Y12, Y1    // lr·
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5     // p − update
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JMP     adam4

adam1:
	TESTQ CX, CX
	JZ    adamdone
	VMULSD  (SI), X7, X0
	VMULSD  (R8), X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (R8)
	VMULSD  (R9), X10, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R9)
	VDIVSD  X13, X1, X1
	VDIVSD  X14, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X15, X3, X3
	VMULSD  X1, X12, X1
	VDIVSD  X3, X1, X1
	VMOVSD  (DI), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)
	ADDQ    $8, DI
	ADDQ    $8, SI
	ADDQ    $8, R8
	ADDQ    $8, R9
	DECQ    CX
	JMP     adam1

adamdone:
	VZEROUPPER
	RET

// QUADSTEP adds one 16-byte step of four channels (Y5..Y8, widened)
// against q's widened bytes Q to the accumulators Y0..Y3.
#define QUADSTEP(Q) \
	VPMADDWD Q, Y5, Y5; \
	VPMADDWD Q, Y6, Y6; \
	VPMADDWD Q, Y7, Y7; \
	VPMADDWD Q, Y8, Y8; \
	VPADDD Y5, Y0, Y0;  \
	VPADDD Y6, Y1, Y1;  \
	VPADDD Y7, Y2, Y2;  \
	VPADDD Y8, Y3, Y3

// tailmask's 16 bytes from offset r are 16−r zeros, then r ones.
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $32

// func dotInt8(q, w *int8, k, nch int, as float32, scales, bias, out *float32)
// out[c] = float32(acc_c)·as·scales[c] + bias[c] for c in [0, nch), acc_c
// = sum over l < k of q[l] * w[c*k+l], k >= 16: matMulInt8Rows's output
// row, its four roundings in the Go expression's order. The sums are
// exact in any order: bytes are sign-extended to int16, VPMADDWD sums
// adjacent products into int32 (2 * 127 * 127 fits with room), and
// int32 addition is associative. Four channels share each load of q.
// The k%16 tail is one more step on each row's last 16 bytes, with the
// q bytes before k&^15 masked to zero (Y9), so no load leaves a row.
TEXT ·dotInt8(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ k+16(FP), DX
	MOVQ nch+24(FP), BX
	VBROADCASTSS as+32(FP), X15
	MOVQ scales+40(FP), R12
	MOVQ bias+48(FP), R13
	MOVQ out+56(FP), R8
	MOVQ DX, CX
	ANDQ $-16, CX // k&^15
	MOVQ DX, AX
	ANDQ $15, AX
	LEAQ tailmask<>(SB), R9
	VMOVDQU -16(SI)(DX*1), X9
	VPAND (R9)(AX*1), X9, X9 // keeps the last k%16 bytes
	VPMOVSXBW X9, Y9

quad:
	CMPQ BX, $4
	JLT  single
	LEAQ (DI)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX

quadk:
	VPMOVSXBW (SI)(AX*1), Y4
	VPMOVSXBW (DI)(AX*1), Y5
	VPMOVSXBW (R9)(AX*1), Y6
	VPMOVSXBW (R10)(AX*1), Y7
	VPMOVSXBW (R11)(AX*1), Y8
	QUADSTEP(Y4)
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  quadk
	CMPQ CX, DX
	JEQ  quadsum
	VPMOVSXBW -16(DI)(DX*1), Y5
	VPMOVSXBW -16(R9)(DX*1), Y6
	VPMOVSXBW -16(R10)(DX*1), Y7
	VPMOVSXBW -16(R11)(DX*1), Y8
	QUADSTEP(Y9)

quadsum:
	// Fold the four 8-lane accumulators to [s0 s1 s2 s3], then dequantize.
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VCVTDQ2PS X0, X0
	VMULPS X15, X0, X0
	VMULPS (R12), X0, X0
	VADDPS (R13), X0, X0
	VMOVUPS X0, (R8)
	LEAQ (R11)(DX*1), DI
	ADDQ $16, R8
	ADDQ $16, R12
	ADDQ $16, R13
	SUBQ $4, BX
	JMP  quad

single:
	TESTQ BX, BX
	JZ   dotdone
	VPXOR Y0, Y0, Y0
	XORQ AX, AX

singlek:
	VPMOVSXBW (SI)(AX*1), Y4
	VPMOVSXBW (DI)(AX*1), Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y0, Y0
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  singlek
	CMPQ CX, DX
	JEQ  singlesum
	VPMOVSXBW -16(DI)(DX*1), Y5
	VPMADDWD Y9, Y5, Y5
	VPADDD Y5, Y0, Y0

singlesum:
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPHADDD X0, X0, X0
	VPHADDD X0, X0, X0
	VCVTDQ2PS X0, X0
	VMULSS X15, X0, X0
	VMULSS (R12), X0, X0
	VADDSS (R13), X0, X0
	VMOVSS X0, (R8)
	ADDQ DX, DI
	ADDQ $4, R8
	ADDQ $4, R12
	ADDQ $4, R13
	DECQ BX
	JMP  single

dotdone:
	VZEROUPPER
	RET

// func maxAbsF32(row *float32, n8 int) float32
// max |row[i]| over i < n8, a positive multiple of 8. VMAXPS keeps its
// second source when the compare is false or unordered, so with the
// running maximum there a NaN element is passed over exactly as the
// scalar `if a > maxAbs` passes over it.
TEXT ·maxAbsF32(SB), NOSPLIT, $0-20
	MOVQ row+0(FP), SI
	MOVQ n8+8(FP), CX
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $1, Y15, Y15 // 0x7fffffff: clears the sign
	VPXOR Y0, Y0, Y0

maxloop:
	VANDPS (SI), Y15, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  maxloop

	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x4e, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0xb1, X0, X1
	VMAXPS X1, X0, X0
	VMOVSS X0, ret+16(FP)
	VZEROUPPER
	RET

// func quantizeF32(row *float32, q *int8, n8 int, inv float64)
// q[i] = int8(trunc(float64(row[i])*inv ± 0.5)), the sign of the half
// following the product's: the four operations of QuantizeRowInt8 on
// each element, eight elements a trip. n8 is a positive multiple of 8.
// (A product of -0 takes -0.5 here and +0.5 there; both truncate to 0.
// A NaN converts to 0x80000000 either way, whose low byte is 0 — which
// is why the bytes are masked and packed unsigned, never saturated.)
TEXT ·quantizeF32(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), SI
	MOVQ q+8(FP), DI
	MOVQ n8+16(FP), CX
	VBROADCASTSD inv+24(FP), Y15
	VPCMPEQD Y14, Y14, Y14
	VPSLLQ $63, Y14, Y14 // sign bit
	MOVQ $0x3fe0000000000000, AX
	VMOVQ AX, X13
	VBROADCASTSD X13, Y13 // 0.5
	VPCMPEQD X12, X12, X12
	VPSRLD $24, X12, X12 // 0x000000ff

quantloop:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VANDPD Y14, Y0, Y2
	VANDPD Y14, Y1, Y3
	VORPD Y13, Y2, Y2
	VORPD Y13, Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VPAND X12, X0, X0
	VPAND X12, X1, X1
	VPACKUSDW X1, X0, X0
	VPACKUSWB X0, X0, X0
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  quantloop

	VZEROUPPER
	RET

// The GELU and tanh lanes: GELUInto's and TanhInto's scalar bodies,
//	gelu(v) = 0.5·v·(1 + tanh(c·(v + 0.044715·v·v·v)))
// with math.Tanh four lanes at a time. Go's tanh (math/tanh.go) has
// three cases on z = |x|, computed here for every lane and blended:
// z > MAXLOG/2 gives ±1; z ≥ 0.625 gives 1 − 2/(exp(2z)+1), negated
// when x < 0; below that the rational x + x·s·P(s)/Q(s), s = x·x, and
// ±0 itself. The exp is math.Exp's amd64 assembly (exp_amd64.s) run
// lane-wise, each instruction's packed twin in its order. Only its main
// path is needed: the lanes whose result is kept have 2z in [1.25,
// 88.03], where the argument is finite, below its overflow bound and
// 2ⁿ is a normal number, so exp_amd64.s's NaN, Inf, overflow and
// denormal branches never decide a kept lane. The other lanes compute
// garbage that the blends drop. exp_amd64.s fuses its multiply-adds
// when math.useFMA is set (AVX and FMA); so does this code when op says
// so, and the result is math.Tanh's on every amd64 CPU. This is the one
// place in the package that uses FMA.
//
// Every constant is a 32-byte row so it can be a memory operand.
#define C4(o, v) DATA tanhc<>+o(SB)/8, v; DATA tanhc<>+o+8(SB)/8, v; DATA tanhc<>+o+16(SB)/8, v; DATA tanhc<>+o+24(SB)/8, v
#define K(o) tanhc<>+o(SB)
#define ABS 0
#define SIGN 32
#define ONE 64
#define TWO 96
#define HALF 128
#define GC 160
#define G3 192
#define TMAX 224
#define MID 256
#define P0 288
#define P1 320
#define P2 352
#define Q0 384
#define Q1 416
#define Q2 448
#define LOG2E 480
#define LN2U 512
#define LN2L 544
#define SIXTEENTH 576
#define EX7 608
#define EX6 640
#define EX5 672
#define EX4 704
#define EX3 736
#define EX2 768
#define BIAS 800
#define ZERO 832
C4(ABS, $0x7fffffffffffffff)
C4(SIGN, $-0x8000000000000000)
C4(ONE, $1.0)
C4(TWO, $2.0)
C4(HALF, $0.5)
C4(GC, $0.7978845608028654) // sqrt(2/pi)
C4(G3, $0.044715)
C4(TMAX, $44.014845965556527147994) // MAXLOG/2
C4(MID, $0.625)
C4(P0, $-9.64399179425052238628e-1) // tanhP, tanhQ
C4(P1, $-9.92877231001918586564e1)
C4(P2, $-1.61468768441708447952e3)
C4(Q0, $1.12811678491632931402e2)
C4(Q1, $2.23548839060100448583e3)
C4(Q2, $4.84406305325125486048e3)
C4(LOG2E, $1.4426950408889634073599246810018920) // exp_amd64.s's
C4(LN2U, $0.69314718055966295651160180568695068359375)
C4(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
C4(SIXTEENTH, $0.0625)
C4(EX7, $2.4801587301587301587e-5)
C4(EX6, $1.9841269841269841270e-4)
C4(EX5, $1.3888888888888888889e-3)
C4(EX4, $8.3333333333333333333e-3)
C4(EX3, $4.1666666666666666667e-2)
C4(EX2, $1.6666666666666666667e-1)
C4(BIAS, $0x3ff)
GLOBL tanhc<>(SB), RODATA|NOPTR, $864

// GELUIN: U = c·(v + ((0.044715·v)·v)·v).
#define GELUIN(V, U) \
	VMULPD K(G3), V, U; \
	VMULPD V, U, U;     \
	VMULPD V, U, U;     \
	VADDPD U, V, U;     \
	VMULPD K(GC), U, U

// RATIONAL: P = x + ((x·s)·P(s))/Q(s), s = x·x, for x = U; x itself
// where x is ±0.
#define RATIONAL(U, P, Q, S, T) \
	VMULPD U, U, S;           \
	VMULPD K(P0), S, P;       \
	VADDPD K(P1), P, P;       \
	VMULPD S, P, P;           \
	VADDPD K(P2), P, P;       \
	VADDPD K(Q0), S, Q;       \
	VMULPD S, Q, Q;           \
	VADDPD K(Q1), Q, Q;       \
	VMULPD S, Q, Q;           \
	VADDPD K(Q2), Q, Q;       \
	VMULPD S, U, T;           \
	VMULPD P, T, T;           \
	VDIVPD Q, T, T;           \
	VADDPD T, U, P;           \
	VCMPPD $0, K(ZERO), U, T; \
	VBLENDVPD T, U, P, P

// EXPARG: E = 2|x|, exp's argument; n = rint(E·log2 e) as int32 lanes
// in XT and as doubles in S.
#define EXPARG(U, E, S, XT) \
	VANDPD K(ABS), U, E;   \
	VADDPD E, E, E;        \
	VMULPD K(LOG2E), E, S; \
	VCVTPD2DQY S, XT;      \
	VCVTDQ2PD XT, S

// EXPMUL: E = exp(E)/2ⁿ by exp_amd64.s's MULSD/ADDSD path: reduce by
// n·ln2 in two parts, scale by 1/16, Taylor series, square four times.
#define SQUARE(E, Q) VADDPD K(TWO), E, Q; VMULPD Q, E, E
#define EXPMUL(E, S, Q) \
	VMULPD K(LN2U), S, Q;                   \
	VSUBPD Q, E, E;                         \
	VMULPD K(LN2L), S, Q;                   \
	VSUBPD Q, E, E;                         \
	VMULPD K(SIXTEENTH), E, E;              \
	VMULPD K(EX7), E, Q;                    \
	VADDPD K(EX6), Q, Q; VMULPD E, Q, Q;    \
	VADDPD K(EX5), Q, Q; VMULPD E, Q, Q;    \
	VADDPD K(EX4), Q, Q; VMULPD E, Q, Q;    \
	VADDPD K(EX3), Q, Q; VMULPD E, Q, Q;    \
	VADDPD K(EX2), Q, Q; VMULPD E, Q, Q;    \
	VADDPD K(HALF), Q, Q; VMULPD E, Q, Q;   \
	VADDPD K(ONE), Q, Q;                    \
	VMULPD Q, E, E;                         \
	SQUARE(E, Q); SQUARE(E, Q); SQUARE(E, Q); SQUARE(E, Q); \
	VADDPD K(ONE), E, E

// EXPFMA is EXPMUL by exp_amd64.s's avxfma path, fused where it fuses.
#define EXPFMA(E, S, Q) \
	VFNMADD231PD K(LN2U), S, E;             \
	VFNMADD231PD K(LN2L), S, E;             \
	VMULPD K(SIXTEENTH), E, E;              \
	VMOVUPD K(EX7), Q;                      \
	VFMADD213PD K(EX6), E, Q;               \
	VFMADD213PD K(EX5), E, Q;               \
	VFMADD213PD K(EX4), E, Q;               \
	VFMADD213PD K(EX3), E, Q;               \
	VFMADD213PD K(EX2), E, Q;               \
	VFMADD213PD K(HALF), E, Q;              \
	VFMADD213PD K(ONE), E, Q;               \
	VMULPD Q, E, E;                         \
	SQUARE(E, Q); SQUARE(E, Q); SQUARE(E, Q); \
	VADDPD K(TWO), E, Q;                    \
	VFMADD213PD K(ONE), Q, E

// TANHMID: E = 1 − 2/(E·2ⁿ + 1), |tanh x| for 0.625 ≤ |x|.
#define TANHMID(E, S, T, XT) \
	VPMOVSXDQ XT, S;      \
	VPADDQ K(BIAS), S, S; \
	VPSLLQ $52, S, S;     \
	VMULPD S, E, E;       \
	VADDPD K(ONE), E, E;  \
	VMOVUPD K(TWO), T;    \
	VDIVPD E, T, T;       \
	VMOVUPD K(ONE), E;    \
	VSUBPD T, E, E

// SELECT: P = tanh x from the three cases: E where |x| ≥ 0.625, 1 where
// |x| > MAXLOG/2, either with x's sign; P (the rational) elsewhere, NaN
// included.
#define SELECT(U, P, E, S, T) \
	VANDPD K(ABS), U, S;         \
	VCMPPD $0x1e, K(TMAX), S, T; \
	VBLENDVPD T, K(ONE), E, E;   \
	VANDPD K(SIGN), U, T;        \
	VORPD T, E, E;               \
	VCMPPD $0x1d, K(MID), S, T;  \
	VBLENDVPD T, E, P, P

// GELUOUT: V = (0.5·v)·(1 + tanh), tanh in P.
#define GELUOUT(V, P) \
	VADDPD K(ONE), P, P;  \
	VMULPD K(HALF), V, V; \
	VMULPD P, V, V

// func geluTanh(x, out unsafe.Pointer, n8, op int)
// out[i] = gelu(x[i]) (op&2) or tanh(x[i]) for i in [0, n8), a positive
// multiple of 8; float32 elements (op&1) are widened on load and rounded
// on store, exactly as the Go loops convert them; op&4 takes exp's FMA
// path. Two vectors a trip, A in Y0..Y6 and B in Y7..Y13, step by step
// in turn: each alone is one long dependency chain. out may be x.
TEXT ·geluTanh(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n8+16(FP), CX
	MOVQ op+24(FP), R8

gtloop:
	TESTQ $1, R8
	JNZ   gtload32
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y7
	ADDQ  $64, SI
	JMP   gtin

gtload32:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y7
	ADDQ  $32, SI

gtin:
	TESTQ $2, R8
	JZ    gttanh
	GELUIN(Y0, Y1)
	GELUIN(Y7, Y8)
	JMP   gtcore

gttanh:
	VMOVAPD Y0, Y1
	VMOVAPD Y7, Y8

gtcore:
	RATIONAL(Y1, Y2, Y4, Y5, Y6)
	RATIONAL(Y8, Y9, Y11, Y12, Y13)
	EXPARG(Y1, Y3, Y5, X6)
	EXPARG(Y8, Y10, Y12, X13)
	TESTQ $4, R8
	JNZ   gtfma
	EXPMUL(Y3, Y5, Y4)
	EXPMUL(Y10, Y12, Y11)
	JMP   gtmid

gtfma:
	EXPFMA(Y3, Y5, Y4)
	EXPFMA(Y10, Y12, Y11)

gtmid:
	TANHMID(Y3, Y5, Y6, X6)
	TANHMID(Y10, Y12, Y13, X13)
	SELECT(Y1, Y2, Y3, Y5, Y6)
	SELECT(Y8, Y9, Y10, Y12, Y13)
	TESTQ $2, R8
	JNZ   gtgelu
	VMOVAPD Y2, Y0
	VMOVAPD Y9, Y7
	JMP   gtstore

gtgelu:
	GELUOUT(Y0, Y2)
	GELUOUT(Y7, Y9)

gtstore:
	TESTQ $1, R8
	JNZ   gtstore32
	VMOVUPD Y0, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ  $64, DI
	JMP   gtnext

gtstore32:
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y7, X7
	VMOVUPS X0, (DI)
	VMOVUPS X7, 16(DI)
	ADDQ  $32, DI

gtnext:
	SUBQ $8, CX
	JNZ  gtloop
	VZEROUPPER
	RET
