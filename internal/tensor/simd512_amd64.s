// The AVX-512F register tile: tile4x64z does what tile4x64 (simd_amd64.s)
// does — same arguments, same k loop and table loop, same multiply-operand
// order, VMULPD+VADDPD and never FMA, bias then activation at the one store
// — on two zmm vectors a row: a column group is 16 float64. Every element
// takes the same operations in the same order as in the AVX2 tile, so the
// two are bit-identical; only AVX-512F instructions are used.
//
// The lane masks live in K1 and K2 for every group: all ones until the last
// group, the live lanes only when that group is partial. Every load and store
// of dst, cb and b goes through them — masked loads and stores cost what
// plain ones do — so the partial group runs the same loops as a full one.
// Dead lanes load as zero, fault on nothing and are not stored.
//
// The activation is a masked op under an ordered x < 0 in K3 (VCMPPD
// predicate LT_OQ, false for NaN and −0): ReLU xors those lanes to +0,
// LeakyReLU multiplies them by alpha.
//
// Registers: as in the AVX2 tile — DI dst tile, R8 dst row stride, SI
// a[0][0], R9/R10 its row and k strides, R11 three row strides, R13 b tile,
// R12 b row stride or the running table entry (strides in bytes), R14 nr, DX
// column groups left, CX k left, AX and BX the running a and b — with Z0–Z7
// the accumulators, Z8/Z9 the b vectors, Z10 the broadcast coefficient,
// Z11/Z12 the products (Z12 the zero of the activation's compare), Z15 alpha.

//go:build amd64

#include "textflag.h"

#define ZROW64(acoef, acc0, acc1) \
	VBROADCASTSD acoef, Z10; \
	VMULPD Z8, Z10, Z11;     \
	VMULPD Z9, Z10, Z12;     \
	VADDPD Z11, acc0, acc0;  \
	VADDPD Z12, acc1, acc1

// ZK64 is one k step after its b loads: every live row, then on to the next
// k, bstep moving b's row pointer or the table's. It leaves DECQ's flags for
// the loop branch.
#define ZK64(next, bstep) \
	ZROW64((AX), Z0, Z1);        \
	CMPQ R14, $2;                \
	JB   next;                   \
	ZROW64((AX)(R9*1), Z2, Z3);  \
	JE   next;                   \
	ZROW64((AX)(R9*2), Z4, Z5);  \
	CMPQ R14, $4;                \
	JB   next;                   \
	ZROW64((AX)(R11*1), Z6, Z7); \
next:                            \
	ADDQ R10, AX;                \
	bstep;                       \
	DECQ CX

#define BSTRIDE ADDQ R12, BX
#define BTABLE  ADDQ $8, R12

#define ZBIAS64(rbias, acc0, acc1) \
	VBROADCASTSD rbias, Z10; \
	VADDPD Z10, acc0, acc0;  \
	VADDPD Z10, acc1, acc1

#define ZRELU64(acc) \
	VCMPPD $0x11, Z12, acc, K3; \
	VPXORQ acc, acc, K3, acc

#define ZLEAKY64(acc) \
	VCMPPD $0x11, Z12, acc, K3; \
	VMULPD Z15, acc, K3, acc

// func tile4x64z(dst []float64, dn int, a []float64, ai, ak int, b []float64, bn int, boff []int, kn, w, nr int, cb, rb []float64, mode int, alpha float64)
// one k-block of rows r < nr ≤ 4, columns j < w (rowOps.tile in kernels.go); kn, w, nr > 0
TEXT ·tile4x64z(SB), NOSPLIT, $0-216
	MOVQ   dst_base+0(FP), DI
	MOVQ   dn+24(FP), R8
	SHLQ   $3, R8
	MOVQ   a_base+32(FP), SI
	MOVQ   ai+56(FP), R9
	SHLQ   $3, R9
	MOVQ   ak+64(FP), R10
	SHLQ   $3, R10
	LEAQ   (R9)(R9*2), R11
	MOVQ   b_base+72(FP), R13
	MOVQ   nr+144(FP), R14
	MOVQ   w+136(FP), DX
	ADDQ   $15, DX
	SHRQ   $4, DX
	JZ     done
	KXNORW K1, K1, K1
	KXNORW K2, K2, K2

cols:
	// The last group, if partial, keeps its first w mod 16 lanes: the low
	// eight bits of the run in K1, the rest in K2.
	CMPQ  DX, $1
	JNE   load
	MOVQ  w+136(FP), CX
	ANDQ  $15, CX
	JZ    load
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	SHRL  $8, AX
	KMOVW AX, K2

load:
	TESTQ     $1, mode+200(FP)
	JZ        loaddst
	MOVQ      cb_len+160(FP), AX
	TESTQ     AX, AX
	JZ        zero
	MOVQ      cb_base+152(FP), AX // cb keeps step with the dst tile
	ADDQ      DI, AX
	SUBQ      dst_base+0(FP), AX
	VMOVUPD.Z (AX), K1, Z0
	VMOVUPD.Z 64(AX), K2, Z1
	VMOVAPD   Z0, Z2
	VMOVAPD   Z1, Z3
	VMOVAPD   Z0, Z4
	VMOVAPD   Z1, Z5
	VMOVAPD   Z0, Z6
	VMOVAPD   Z1, Z7
	JMP       loaded

zero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    loaded

loaddst:
	MOVQ      DI, AX
	VMOVUPD.Z (AX), K1, Z0
	VMOVUPD.Z 64(AX), K2, Z1
	CMPQ      R14, $2
	JB        loaded
	LEAQ      (AX)(R8*1), AX
	VMOVUPD.Z (AX), K1, Z2
	VMOVUPD.Z 64(AX), K2, Z3
	JE        loaded
	LEAQ      (AX)(R8*1), AX
	VMOVUPD.Z (AX), K1, Z4
	VMOVUPD.Z 64(AX), K2, Z5
	CMPQ      R14, $4
	JB        loaded
	LEAQ      (AX)(R8*1), AX
	VMOVUPD.Z (AX), K1, Z6
	VMOVUPD.Z 64(AX), K2, Z7

loaded:
	MOVQ  kn+128(FP), CX
	MOVQ  SI, AX
	MOVQ  boff_len+112(FP), R12
	TESTQ R12, R12
	JNZ   table
	MOVQ  bn+96(FP), R12
	SHLQ  $3, R12
	MOVQ  R13, BX
	CMPQ  R14, $4
	JNE   kloop

	// The next group's two lines of this row of b are prefetched as in the
	// AVX2 tile, 128 bytes on instead of 64.
	PCALIGN $32
kloop4:
	VMOVUPD.Z  (BX), K1, Z8
	VMOVUPD.Z  64(BX), K2, Z9
	PREFETCHT0 128(BX)
	PREFETCHT0 192(BX)
	ZROW64((AX), Z0, Z1)
	ZROW64((AX)(R9*1), Z2, Z3)
	ZROW64((AX)(R9*2), Z4, Z5)
	ZROW64((AX)(R11*1), Z6, Z7)
	ADDQ       R10, AX
	ADDQ       R12, BX
	DECQ       CX
	JNZ        kloop4
	JMP        store

	PCALIGN $32
kloop:
	VMOVUPD.Z  (BX), K1, Z8
	VMOVUPD.Z  64(BX), K2, Z9
	PREFETCHT0 128(BX)
	PREFETCHT0 192(BX)
	ZK64(knext, BSTRIDE)
	JNZ        kloop
	JMP        store

table:
	MOVQ boff_base+104(FP), R12
	CMPQ R14, $4
	JNE  tloop

	PCALIGN $32
tloop4:
	MOVQ      (R12), BX
	LEAQ      (R13)(BX*8), BX
	VMOVUPD.Z (BX), K1, Z8
	VMOVUPD.Z 64(BX), K2, Z9
	ZROW64((AX), Z0, Z1)
	ZROW64((AX)(R9*1), Z2, Z3)
	ZROW64((AX)(R9*2), Z4, Z5)
	ZROW64((AX)(R11*1), Z6, Z7)
	ADDQ      R10, AX
	ADDQ      $8, R12
	DECQ      CX
	JNZ       tloop4
	JMP       store

	PCALIGN $32
tloop:
	MOVQ      (R12), BX
	LEAQ      (R13)(BX*8), BX
	VMOVUPD.Z (BX), K1, Z8
	VMOVUPD.Z 64(BX), K2, Z9
	ZK64(tnext, BTABLE)
	JNZ       tloop

store:
	MOVQ  rb_len+184(FP), AX
	TESTQ AX, AX
	JZ    activate
	MOVQ  rb_base+176(FP), AX
	ZBIAS64((AX), Z0, Z1)
	CMPQ  R14, $2
	JB    activate
	ZBIAS64(8(AX), Z2, Z3)
	JE    activate
	ZBIAS64(16(AX), Z4, Z5)
	CMPQ  R14, $4
	JB    activate
	ZBIAS64(24(AX), Z6, Z7)

activate:
	MOVQ   mode+200(FP), AX
	SHRQ   $1, AX
	JZ     put
	VPXORQ Z12, Z12, Z12
	CMPQ   AX, $1
	JE     relu
	VBROADCASTSD alpha+208(FP), Z15
	ZLEAKY64(Z0)
	ZLEAKY64(Z1)
	ZLEAKY64(Z2)
	ZLEAKY64(Z3)
	ZLEAKY64(Z4)
	ZLEAKY64(Z5)
	ZLEAKY64(Z6)
	ZLEAKY64(Z7)
	JMP    put

relu:
	ZRELU64(Z0)
	ZRELU64(Z1)
	ZRELU64(Z2)
	ZRELU64(Z3)
	ZRELU64(Z4)
	ZRELU64(Z5)
	ZRELU64(Z6)
	ZRELU64(Z7)

put:
	MOVQ    DI, AX
	VMOVUPD Z0, K1, (AX)
	VMOVUPD Z1, K2, 64(AX)
	CMPQ    R14, $2
	JB      stored
	LEAQ    (AX)(R8*1), AX
	VMOVUPD Z2, K1, (AX)
	VMOVUPD Z3, K2, 64(AX)
	JE      stored
	LEAQ    (AX)(R8*1), AX
	VMOVUPD Z4, K1, (AX)
	VMOVUPD Z5, K2, 64(AX)
	CMPQ    R14, $4
	JB      stored
	LEAQ    (AX)(R8*1), AX
	VMOVUPD Z6, K1, (AX)
	VMOVUPD Z7, K2, 64(AX)

stored:
	ADDQ $128, DI
	ADDQ $128, R13
	DECQ DX
	JNZ  cols

done:
	VZEROUPPER
	RET
