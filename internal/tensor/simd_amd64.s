//go:build amd64 && !purego

// AVX2 row primitives behind simd_amd64.go. Output columns j sit in the
// vector lanes and every lane multiplies, then adds, one term at a time
// in ascending l — the rounding sequence of the pure-Go kernels, so the
// results are theirs bit for bit. There is deliberately no FMA here.
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

// func dotInt8(q, w *int8, k16, stride, nch int, acc *int32)
// acc[c] = sum over l < k16 of q[l] * w[c*stride+l] for c in [0, nch);
// k16 is a positive multiple of 16. Exact in any order: bytes are
// sign-extended to int16, VPMADDWD sums adjacent products into int32
// (2 * 127 * 127 fits with room), and int32 addition is associative.
// Four channels share each load of q.
TEXT ·dotInt8(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ k16+16(FP), CX
	MOVQ stride+24(FP), DX
	MOVQ nch+32(FP), BX
	MOVQ acc+40(FP), R8

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
	VPMADDWD Y4, Y5, Y5
	VPMADDWD Y4, Y6, Y6
	VPMADDWD Y4, Y7, Y7
	VPMADDWD Y4, Y8, Y8
	VPADDD Y5, Y0, Y0
	VPADDD Y6, Y1, Y1
	VPADDD Y7, Y2, Y2
	VPADDD Y8, Y3, Y3
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  quadk

	// Fold the four 8-lane accumulators to [s0 s1 s2 s3].
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VMOVDQU X0, (R8)
	LEAQ (R11)(DX*1), DI
	ADDQ $16, R8
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

	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPHADDD X0, X0, X0
	VPHADDD X0, X0, X0
	VMOVD X0, (R8)
	ADDQ DX, DI
	ADDQ $4, R8
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
