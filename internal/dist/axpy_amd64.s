#include "textflag.h"

// func axpyAVX2(row, q []float64, p float64)
//
// row[k] += p*q[k] for k < len(q): each product rounded by VMULPD (or
// VMULSD), then added by VADDPD (VADDSD), so every cell gets exactly
// the float64 the scalar loop row[k] += float64(p * q[k]) computes.
// A fused multiply-add would round once and differ.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         row_base+0(FP), DI
	MOVQ         q_base+24(FP), SI
	MOVQ         q_len+32(FP), CX
	VBROADCASTSD p+48(FP), Y0
	XORQ         AX, AX

	// 16 cells per iteration, in four independent registers.
	MOVQ CX, DX
	ANDQ $-16, DX

loop16:
	CMPQ    AX, DX
	JAE     tail4
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     loop16

tail4:
	MOVQ CX, DX
	ANDQ $-4, DX

loop4:
	CMPQ    AX, DX
	JAE     tail1
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

tail1:
	CMPQ   AX, CX
	JAE    done
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail1

done:
	VZEROUPPER
	RET

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
