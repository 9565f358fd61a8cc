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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func yeeRowAVX2(out, a, b, p, q, r, s *float64, n int)
//
// out[k] = a[k]*out[k] + b[k]*((p[k]-q[k]) - (r[k]-s[k])) for k in
// [0, n), four lanes at a time and then one.  Every lane performs
// yeeRowGeneric's operations on the same operands in the same order,
// with the same first source operand wherever NaN propagation depends
// on it (the compiler emits ((p-q)-(r-s))*b and a*out + that), and
// nothing is fused, so the bits are the Go loop's.  The caller
// guarantees every pointer addresses at least n elements.
TEXT ·yeeRowAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ p+24(FP), R10
	MOVQ q+32(FP), R11
	MOVQ r+40(FP), R12
	MOVQ s+48(FP), R13
	MOVQ n+56(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   tail

loop4:
	VMOVUPD (R8)(AX*8), Y0
	VMULPD  (DI)(AX*8), Y0, Y0
	VMOVUPD (R10)(AX*8), Y1
	VSUBPD  (R11)(AX*8), Y1, Y1
	VMOVUPD (R12)(AX*8), Y2
	VSUBPD  (R13)(AX*8), Y2, Y2
	VSUBPD  Y2, Y1, Y1
	VMULPD  (R9)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     loop4
	VZEROUPPER

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (R8)(AX*8), X0
	MULSD (DI)(AX*8), X0
	MOVSD (R10)(AX*8), X1
	SUBSD (R11)(AX*8), X1
	MOVSD (R12)(AX*8), X2
	SUBSD (R13)(AX*8), X2
	SUBSD X2, X1
	MULSD (R9)(AX*8), X1
	ADDSD X1, X0
	MOVSD X0, (DI)(AX*8)
	INCQ  AX
	JMP   tail

done:
	RET
