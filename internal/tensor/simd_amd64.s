// AVX2 row-update primitives for both backends. Each dst element is
// accumulated in the exact left-associated order of the pure-Go fallback
// expression (VMULPx+VADDPx, never FMA), so the vector path, the scalar
// tail, and the non-amd64 fallback all produce bit-identical results.

//go:build amd64

#include "textflag.h"

// func axpy4x32(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
// dst[j] = ((((dst[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j])
TEXT ·axpy4x32(SB), NOSPLIT, $0-136
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSS a0+120(FP), Y0
	VBROADCASTSS a1+124(FP), Y1
	VBROADCASTSS a2+128(FP), Y2
	VBROADCASTSS a3+132(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

loop16:
	CMPQ AX, DX
	JGE  loop8start
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y6
	VMOVUPS (R8)(AX*4), Y5
	VMOVUPS 32(R8)(AX*4), Y7
	VMULPS  Y0, Y5, Y5
	VMULPS  Y0, Y7, Y7
	VADDPS  Y5, Y4, Y4
	VADDPS  Y7, Y6, Y6
	VMOVUPS (R9)(AX*4), Y5
	VMOVUPS 32(R9)(AX*4), Y7
	VMULPS  Y1, Y5, Y5
	VMULPS  Y1, Y7, Y7
	VADDPS  Y5, Y4, Y4
	VADDPS  Y7, Y6, Y6
	VMOVUPS (R10)(AX*4), Y5
	VMOVUPS 32(R10)(AX*4), Y7
	VMULPS  Y2, Y5, Y5
	VMULPS  Y2, Y7, Y7
	VADDPS  Y5, Y4, Y4
	VADDPS  Y7, Y6, Y6
	VMOVUPS (R11)(AX*4), Y5
	VMOVUPS 32(R11)(AX*4), Y7
	VMULPS  Y3, Y5, Y5
	VMULPS  Y3, Y7, Y7
	VADDPS  Y5, Y4, Y4
	VADDPS  Y7, Y6, Y6
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y6, 32(DI)(AX*4)
	ADDQ    $16, AX
	JMP     loop16

loop8start:
	MOVQ CX, DX
	ANDQ $-8, DX

loop8:
	CMPQ AX, DX
	JGE  tail
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS (R8)(AX*4), Y5
	VMULPS  Y0, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R9)(AX*4), Y5
	VMULPS  Y1, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R10)(AX*4), Y5
	VMULPS  Y2, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R11)(AX*4), Y5
	VMULPS  Y3, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     loop8

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (DI)(AX*4), X4
	VMOVSS (R8)(AX*4), X5
	VMULSS X0, X5, X5
	VADDSS X5, X4, X4
	VMOVSS (R9)(AX*4), X5
	VMULSS X1, X5, X5
	VADDSS X5, X4, X4
	VMOVSS (R10)(AX*4), X5
	VMULSS X2, X5, X5
	VADDSS X5, X4, X4
	VMOVSS (R11)(AX*4), X5
	VMULSS X3, X5, X5
	VADDSS X5, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy1x32(dst, b []float32, a float32)
// dst[j] += a * b[j]
TEXT ·axpy1x32(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	VBROADCASTSS a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

loop8:
	CMPQ AX, DX
	JGE  tail
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS (R8)(AX*4), Y5
	VMULPS  Y0, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     loop8

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (DI)(AX*4), X4
	VMOVSS (R8)(AX*4), X5
	VMULSS X0, X5, X5
	VADDSS X5, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

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
