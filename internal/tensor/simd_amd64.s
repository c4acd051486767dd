// AVX2 primitives: the row updates, the register tile, the two-phase
// stride-2 split and the 2×2 halving. Each dst element is accumulated in
// the exact left-associated order of the pure-Go fallback expression
// (VMULPD+VADDPD, never FMA), so the vector paths, the scalar tails, and
// the non-amd64 fallback all produce bit-identical results. On an AVX-512F host the
// register tile here gives way to its zmm twin (simd512_amd64.s), which
// keeps the same order; the rest of this file runs on every AVX2 host.

//go:build amd64

#include "textflag.h"

// func axpy4x64(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
// dst[j] = ((((dst[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j])
TEXT ·axpy4x64(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

loop8:
	CMPQ AX, DX
	JGE  loop4start
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y6
	VMULPD  (R8)(AX*8), Y0, Y5
	VMULPD  32(R8)(AX*8), Y0, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMULPD  (R9)(AX*8), Y1, Y5
	VMULPD  32(R9)(AX*8), Y1, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMULPD  (R10)(AX*8), Y2, Y5
	VMULPD  32(R10)(AX*8), Y2, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMULPD  (R11)(AX*8), Y3, Y5
	VMULPD  32(R11)(AX*8), Y3, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     loop8

loop4start:
	MOVQ CX, DX
	ANDQ $-4, DX

loop4:
	CMPQ AX, DX
	JGE  tail
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy1x64(dst, b []float64, a float64)
// dst[j] += a * b[j]
TEXT ·axpy1x64(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

loop4:
	CMPQ AX, DX
	JGE  tail
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// The register tile: up to four dst rows by two vectors of columns, eight
// accumulators (Y0–Y7) that stay in registers while k runs. Per k it loads
// the two b vectors once (Y8, Y9) and, for each row, broadcasts the row's
// coefficient and applies one multiply and one add per accumulator — the
// row updates' operand order, so NaN payloads propagate alike. Rows past nr
// are branched over (their coefficients and dst rows do not exist), and
// every load and store of dst goes through the lane masks Y13 and Y14: all
// ones until the last column group, the live lanes only when that group is
// partial — and then its b loads are masked too (kloopm, tloopm; masking them
// in every group cost the float64 tile a quarter of its speed).
//
// b's k-th row is one row stride after the last (kloop*: BX += R12), or
// starts where the k-th entry of a table says (tloop*: R12 walks the table,
// BX = b tile + entry): the window-free convolution, whose taps are runs of a
// few small planes. With strides a column group walks b down a column of
// cache lines, one row stride apart — a pattern no hardware prefetcher
// follows once the stride passes a page — so each k step also prefetches the
// line the next group will want from this row of b; without it a wide b
// (24×216×5376, float64) ran at 0.6× the row updates, with it level or
// better. Past the end of a row the prefetch is a no-op. A table's planes
// are L1- and L2-resident and need none.
//
// The two ends of a sum ride along. On a product's first k-block (mode bit
// 0) the accumulators start from the column bias cb, or from zero when there
// is none, and dst is not read; on its last the finished sums take the row
// bias rb (when there is one) and then the activation mode>>1 — 1: ReLU,
// lanes below zero become +0; 2: LeakyReLU, they are multiplied by alpha —
// as a blend under an ordered x < 0, false for NaN and −0, before the one
// store: Σ, then +bias, then activation, the order of the separate passes
// this replaces. Accumulators of rows past nr take part and are never stored.
//
// Registers: DI dst tile, R8 dst row stride, SI a[0][0], R9/R10 its row and
// k strides, R11 three row strides, R13 b tile, R12 b row stride or the
// running table entry (strides in bytes), R14 nr, DX column groups left,
// CX k left, AX and BX the running a and b.

// tilemask is 64 bytes of ones, then 64 of zeros: the 64 bytes that start
// 8r bytes before its middle mask all but the first r lanes of a column
// group.
DATA tilemask<>+0(SB)/8, $0xffffffffffffffff
DATA tilemask<>+8(SB)/8, $0xffffffffffffffff
DATA tilemask<>+16(SB)/8, $0xffffffffffffffff
DATA tilemask<>+24(SB)/8, $0xffffffffffffffff
DATA tilemask<>+32(SB)/8, $0xffffffffffffffff
DATA tilemask<>+40(SB)/8, $0xffffffffffffffff
DATA tilemask<>+48(SB)/8, $0xffffffffffffffff
DATA tilemask<>+56(SB)/8, $0xffffffffffffffff
GLOBL tilemask<>(SB), RODATA|NOPTR, $128

// The two ways a k step moves on in b: one row stride, or one table entry.
#define BSTRIDE ADDQ R12, BX
#define BTABLE  ADDQ $8, R12

#define TILE_ROW64(acoef, acc0, acc1) \
	VBROADCASTSD acoef, Y10; \
	VMULPD Y8, Y10, Y11;     \
	VMULPD Y9, Y10, Y12;     \
	VADDPD Y11, acc0, acc0;  \
	VADDPD Y12, acc1, acc1

// TILE_K64 is one k step after its b loads: every live row, then on to
// the next k, bstep moving b's row pointer or the table's. It leaves DECQ's
// flags for the loop branch.
#define TILE_K64(next, bstep) \
	TILE_ROW64((AX), Y0, Y1);        \
	CMPQ R14, $2;                    \
	JB   next;                       \
	TILE_ROW64((AX)(R9*1), Y2, Y3);  \
	JE   next;                       \
	TILE_ROW64((AX)(R9*2), Y4, Y5);  \
	CMPQ R14, $4;                    \
	JB   next;                       \
	TILE_ROW64((AX)(R11*1), Y6, Y7); \
next:                                \
	ADDQ R10, AX;                    \
	bstep;                           \
	DECQ CX

// TILE_BIAS64 adds one row's bias to its two accumulators.
#define TILE_BIAS64(rbias, acc0, acc1) \
	VBROADCASTSD rbias, Y10;  \
	VADDPD Y10, acc0, acc0;   \
	VADDPD Y10, acc1, acc1

// TILE_RELU64 and TILE_LEAKY64 blend one accumulator's lanes below zero
// (Y12) to +0, or to themselves times alpha (Y15).
#define TILE_RELU64(acc) \
	VCMPPD  $0x11, Y12, acc, Y10; \
	VANDNPD acc, Y10, acc

#define TILE_LEAKY64(acc) \
	VCMPPD    $0x11, Y12, acc, Y10; \
	VMULPD    Y15, acc, Y11;        \
	VBLENDVPD Y10, Y11, acc, acc

// func tile4x64(dst []float64, dn int, a []float64, ai, ak int, b []float64, bn int, boff []int, kn, w, nr int, cb, rb []float64, mode int, alpha float64)
// one k-block of rows r < nr ≤ 4, columns j < w (rowOps.tile in kernels.go); kn, w, nr > 0
TEXT ·tile4x64(SB), NOSPLIT, $0-216
	MOVQ     dst_base+0(FP), DI
	MOVQ     dn+24(FP), R8
	SHLQ     $3, R8
	MOVQ     a_base+32(FP), SI
	MOVQ     ai+56(FP), R9
	SHLQ     $3, R9
	MOVQ     ak+64(FP), R10
	SHLQ     $3, R10
	LEAQ     (R9)(R9*2), R11
	MOVQ     b_base+72(FP), R13
	MOVQ     nr+144(FP), R14
	MOVQ     w+136(FP), DX
	ADDQ     $7, DX
	SHRQ     $3, DX
	JZ       done
	VPCMPEQD Y13, Y13, Y13
	VPCMPEQD Y14, Y14, Y14

cols:
	// The last group, if partial, masks its dead lanes: they load as zero,
	// fault on nothing and are not stored.
	CMPQ    DX, $1
	JNE     load
	MOVQ    w+136(FP), CX
	ANDQ    $7, CX
	JZ      load
	LEAQ    tilemask<>+64(SB), AX
	SHLQ    $3, CX
	SUBQ    CX, AX
	VMOVDQU (AX), Y13
	VMOVDQU 32(AX), Y14

load:
	TESTQ      $1, mode+200(FP)
	JZ         loaddst
	MOVQ       cb_len+160(FP), AX
	TESTQ      AX, AX
	JZ         zero
	MOVQ       cb_base+152(FP), AX // cb keeps step with the dst tile
	ADDQ       DI, AX
	SUBQ       dst_base+0(FP), AX
	VMASKMOVPD (AX), Y13, Y0
	VMASKMOVPD 32(AX), Y14, Y1
	VMOVAPD    Y0, Y2
	VMOVAPD    Y1, Y3
	VMOVAPD    Y0, Y4
	VMOVAPD    Y1, Y5
	VMOVAPD    Y0, Y6
	VMOVAPD    Y1, Y7
	JMP        loaded

zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    loaded

loaddst:
	MOVQ       DI, AX
	VMASKMOVPD (AX), Y13, Y0
	VMASKMOVPD 32(AX), Y14, Y1
	CMPQ       R14, $2
	JB         loaded
	LEAQ       (AX)(R8*1), AX
	VMASKMOVPD (AX), Y13, Y2
	VMASKMOVPD 32(AX), Y14, Y3
	JE         loaded
	LEAQ       (AX)(R8*1), AX
	VMASKMOVPD (AX), Y13, Y4
	VMASKMOVPD 32(AX), Y14, Y5
	CMPQ       R14, $4
	JB         loaded
	LEAQ       (AX)(R8*1), AX
	VMASKMOVPD (AX), Y13, Y6
	VMASKMOVPD 32(AX), Y14, Y7

loaded:
	MOVQ  kn+128(FP), CX
	MOVQ  SI, AX
	MOVQ  boff_len+112(FP), R12
	TESTQ R12, R12
	JNZ   table
	MOVQ  bn+96(FP), R12
	SHLQ  $3, R12
	MOVQ  R13, BX
	CMPQ  DX, $1
	JNE   kfull
	TESTQ $7, w+136(FP)
	JNZ   kloopm

kfull:
	CMPQ R14, $4
	JNE  kloop

	PCALIGN $32
kloop4:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	PREFETCHT0 64(BX)
	TILE_ROW64((AX), Y0, Y1)
	TILE_ROW64((AX)(R9*1), Y2, Y3)
	TILE_ROW64((AX)(R9*2), Y4, Y5)
	TILE_ROW64((AX)(R11*1), Y6, Y7)
	ADDQ    R10, AX
	ADDQ    R12, BX
	DECQ    CX
	JNZ     kloop4
	JMP     store

	PCALIGN $32
kloop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	PREFETCHT0 64(BX)
	TILE_K64(knext, BSTRIDE)
	JNZ     kloop
	JMP     store

	PCALIGN $32
kloopm:
	VMASKMOVPD (BX), Y13, Y8
	VMASKMOVPD 32(BX), Y14, Y9
	TILE_K64(knextm, BSTRIDE)
	JNZ        kloopm
	JMP        store

table:
	MOVQ  boff_base+104(FP), R12
	CMPQ  DX, $1
	JNE   tfull
	TESTQ $7, w+136(FP)
	JNZ   tloopm

tfull:
	CMPQ R14, $4
	JNE  tloop

	PCALIGN $32
tloop4:
	MOVQ    (R12), BX
	LEAQ    (R13)(BX*8), BX
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	TILE_ROW64((AX), Y0, Y1)
	TILE_ROW64((AX)(R9*1), Y2, Y3)
	TILE_ROW64((AX)(R9*2), Y4, Y5)
	TILE_ROW64((AX)(R11*1), Y6, Y7)
	ADDQ    R10, AX
	ADDQ    $8, R12
	DECQ    CX
	JNZ     tloop4
	JMP     store

	PCALIGN $32
tloop:
	MOVQ    (R12), BX
	LEAQ    (R13)(BX*8), BX
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	TILE_K64(tnext, BTABLE)
	JNZ     tloop
	JMP     store

	PCALIGN $32
tloopm:
	MOVQ       (R12), BX
	LEAQ       (R13)(BX*8), BX
	VMASKMOVPD (BX), Y13, Y8
	VMASKMOVPD 32(BX), Y14, Y9
	TILE_K64(tnextm, BTABLE)
	JNZ        tloopm

store:
	MOVQ  rb_len+184(FP), AX
	TESTQ AX, AX
	JZ    activate
	MOVQ  rb_base+176(FP), AX
	TILE_BIAS64((AX), Y0, Y1)
	CMPQ  R14, $2
	JB    activate
	TILE_BIAS64(8(AX), Y2, Y3)
	JE    activate
	TILE_BIAS64(16(AX), Y4, Y5)
	CMPQ  R14, $4
	JB    activate
	TILE_BIAS64(24(AX), Y6, Y7)

activate:
	MOVQ   mode+200(FP), AX
	SHRQ   $1, AX
	JZ     put
	VXORPD Y12, Y12, Y12
	CMPQ   AX, $1
	JE     relu
	VBROADCASTSD alpha+208(FP), Y15
	TILE_LEAKY64(Y0)
	TILE_LEAKY64(Y1)
	TILE_LEAKY64(Y2)
	TILE_LEAKY64(Y3)
	TILE_LEAKY64(Y4)
	TILE_LEAKY64(Y5)
	TILE_LEAKY64(Y6)
	TILE_LEAKY64(Y7)
	JMP    put

relu:
	TILE_RELU64(Y0)
	TILE_RELU64(Y1)
	TILE_RELU64(Y2)
	TILE_RELU64(Y3)
	TILE_RELU64(Y4)
	TILE_RELU64(Y5)
	TILE_RELU64(Y6)
	TILE_RELU64(Y7)

put:
	MOVQ       DI, AX
	VMASKMOVPD Y0, Y13, (AX)
	VMASKMOVPD Y1, Y14, 32(AX)
	CMPQ       R14, $2
	JB         stored
	LEAQ       (AX)(R8*1), AX
	VMASKMOVPD Y2, Y13, (AX)
	VMASKMOVPD Y3, Y14, 32(AX)
	JE         stored
	LEAQ       (AX)(R8*1), AX
	VMASKMOVPD Y4, Y13, (AX)
	VMASKMOVPD Y5, Y14, 32(AX)
	CMPQ       R14, $4
	JB         stored
	LEAQ       (AX)(R8*1), AX
	VMASKMOVPD Y6, Y13, (AX)
	VMASKMOVPD Y7, Y14, 32(AX)

stored:
	ADDQ $64, DI
	ADDQ $64, R13
	DECQ DX
	JNZ  cols

done:
	VZEROUPPER
	RET

// The two-phase split de-interleaves a stride-2 run eight source elements
// at a time. The loads do the cross-lane work: each vector is two 16-byte
// loads (VMOVUPD into the low lane, VINSERTF128 from memory into the high
// one), elements 0 1 4 5 and 2 3 6 7, so one shuffle that keeps each lane's
// even elements and one that keeps its odd ones leave both phases in order,
// ready for a store to each plane — two shuffle µops where a whole-vector
// load pair needs four. A vector step runs while eight whole elements of
// the run remain and the scalar tail takes the rest, so no load reaches
// past the run's last element.

// func split2x64(even, odd, src []float64, ne, no, rows, dn, sn int)
// even[r*dn+i] = src[r*sn+2*i], i < ne; odd[r*dn+i] = src[r*sn+2*i+1],
// i < no; r < rows; ne, rows > 0 and no = ne or ne-1
TEXT ·split2x64(SB), NOSPLIT, $0-112
	MOVQ even_base+0(FP), DI
	MOVQ odd_base+24(FP), R11
	MOVQ src_base+48(FP), SI
	MOVQ ne+72(FP), CX
	MOVQ no+80(FP), R12
	MOVQ rows+88(FP), DX
	MOVQ dn+96(FP), R8
	SHLQ $3, R8
	MOVQ sn+104(FP), R9
	SHLQ $3, R9
	LEAQ (CX)(R12*1), R10 // ne+no source elements in a run,
	SHRQ $3, R10          // eight to a vector step,
	SHLQ $2, R10          // four outputs of each phase

row:
	MOVQ SI, BX
	XORQ AX, AX

vec:
	CMPQ        AX, R10
	JGE         tail
	VMOVUPD     (BX), X0
	VINSERTF128 $1, 32(BX), Y0, Y0 // s0 s1 s4 s5
	VMOVUPD     16(BX), X1
	VINSERTF128 $1, 48(BX), Y1, Y1 // s2 s3 s6 s7
	VUNPCKLPD   Y1, Y0, Y2         // s0 s2 s4 s6
	VUNPCKHPD   Y1, Y0, Y3         // s1 s3 s5 s7
	VMOVUPD     Y2, (DI)(AX*8)
	VMOVUPD     Y3, (R11)(AX*8)
	ADDQ        $64, BX
	ADDQ        $4, AX
	JMP         vec

tail:
	CMPQ AX, CX
	JGE  next
	MOVQ (BX), R13
	MOVQ R13, (DI)(AX*8)
	CMPQ AX, R12 // an odd element follows only while i < no
	JGE  next
	MOVQ 8(BX), R13
	MOVQ R13, (R11)(AX*8)
	ADDQ $16, BX
	INCQ AX
	JMP  tail

next:
	ADDQ R8, DI
	ADDQ R8, R11
	ADDQ R9, SI
	DECQ DX
	JNZ  row
	VZEROUPPER
	RET

// The 2×2 halving: per output row, the two source rows under it. A vector
// step loads eight elements of each the way the split above does and
// splits each row's pairs into their left (a, c) and right (b, d) elements,
// in output order, with the same two shuffles; then it sums
// ((((+0 + a) + b) + c) + d) — the accumulator always the first operand,
// as in Go's s += v — takes a quarter and clamps: VMAXPD with +0 first
// returns the second operand unless +0 is greater, so a NaN and a −0 pass
// through and only a value below zero becomes +0, and VMINPD with 1 first
// likewise lets through all but a value above 1. That is clamp01 exactly.
// The last n mod 4 outputs take the same steps on scalars.

// func halve2x64(dst, src []float64, n, rows, dn, sn int)
// dst[r*dn+i] = clamp01(((((0 + a) + b) + c) + d) * 0.25) with a, b =
// src[2r*sn+2i+0, 1] and c, d = src[(2r+1)*sn+2i+0, 1], i < n, r < rows;
// n, rows > 0
TEXT ·halve2x64(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         n+48(FP), CX
	MOVQ         rows+56(FP), DX
	MOVQ         dn+64(FP), R8
	SHLQ         $3, R8
	MOVQ         sn+72(FP), R9
	SHLQ         $3, R9
	MOVQ         CX, R10
	ANDQ         $-4, R10 // outputs in whole vector steps
	VXORPD       Y12, Y12, Y12
	MOVQ         $0x3FD0000000000000, AX // 0.25
	VMOVQ        AX, X13
	VBROADCASTSD X13, Y13
	MOVQ         $0x3FF0000000000000, AX // 1
	VMOVQ        AX, X14
	VBROADCASTSD X14, Y14

hrow:
	MOVQ SI, BX
	LEAQ (SI)(R9*1), R11
	XORQ AX, AX

hvec:
	CMPQ        AX, R10
	JGE         htail
	VMOVUPD     (BX), X0
	VINSERTF128 $1, 32(BX), Y0, Y0  // a0 b0 a2 b2
	VMOVUPD     16(BX), X1
	VINSERTF128 $1, 48(BX), Y1, Y1  // a1 b1 a3 b3
	VMOVUPD     (R11), X2
	VINSERTF128 $1, 32(R11), Y2, Y2 // c0 d0 c2 d2
	VMOVUPD     16(R11), X3
	VINSERTF128 $1, 48(R11), Y3, Y3 // c1 d1 c3 d3
	VUNPCKLPD   Y1, Y0, Y4          // a0 a1 a2 a3
	VUNPCKHPD   Y1, Y0, Y5          // b0 b1 b2 b3
	VUNPCKLPD   Y3, Y2, Y6          // c0 c1 c2 c3
	VUNPCKHPD   Y3, Y2, Y7          // d0 d1 d2 d3
	VADDPD      Y4, Y12, Y4
	VADDPD      Y5, Y4, Y4
	VADDPD      Y6, Y4, Y4
	VADDPD      Y7, Y4, Y4
	VMULPD      Y13, Y4, Y4
	VMAXPD      Y4, Y12, Y4
	VMINPD      Y4, Y14, Y4
	VMOVUPD     Y4, (DI)(AX*8)
	ADDQ        $64, BX
	ADDQ        $64, R11
	ADDQ        $4, AX
	JMP         hvec

htail:
	CMPQ   AX, CX
	JGE    hnext
	VMOVSD (BX), X4
	VADDSD X4, X12, X4
	VADDSD 8(BX), X4, X4
	VADDSD (R11), X4, X4
	VADDSD 8(R11), X4, X4
	VMULSD X13, X4, X4
	VMAXSD X4, X12, X4
	VMINSD X4, X14, X4
	VMOVSD X4, (DI)(AX*8)
	ADDQ   $16, BX
	ADDQ   $16, R11
	INCQ   AX
	JMP    htail

hnext:
	ADDQ R8, DI
	LEAQ (SI)(R9*2), SI
	DECQ DX
	JNZ  hrow
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
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
