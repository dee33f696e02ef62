#include "textflag.h"

// func mulRows8AVX(dst, data []float64, stride int, x []float64)
//
// For each group of eight rows (len(dst)/8 groups) it sets
// dst[i] = Σⱼ data[i·stride+j]·x[j], one YMM lane per row: Y0 holds rows
// 0–3 of the group, Y1 rows 4–7. Each lane starts at +0 and adds the
// product for j = 0, 1, … in order with a separate VMULPD and VADDPD, so
// it rounds exactly like the Go loop in mulRowsGo. Two columns of four
// rows are loaded as 128-bit halves and transposed in registers; an odd
// last column is gathered with VMOVSD/VMOVHPD. R14, R15 and Y15 are left
// alone.
//
// Registers: AX dst, R9 groups left, R10 row 0 of the group, DX stride in
// bytes, R8 three strides, R12 x, R11 len(x), SI/DI rows 0 and 4 at
// column j, BX &x[j], CX column pairs left.
TEXT ·mulRows8AVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), AX
	MOVQ dst_len+8(FP), R9
	SHRQ $3, R9
	JZ   done
	MOVQ data_base+24(FP), R10
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R8
	MOVQ x_base+56(FP), R12
	MOVQ x_len+64(FP), R11

group:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R10, SI
	LEAQ   (R10)(DX*4), DI
	MOVQ   R12, BX
	MOVQ   R11, CX
	SHRQ   $1, CX
	JZ     tail

pair:
	// Y4, Y5 = columns j, j+1 of rows 0–3; Y8, Y9 the same of rows 4–7.
	VMOVUPD      (SI), X2
	VMOVUPD      (SI)(DX*1), X3
	VINSERTF128  $1, (SI)(DX*2), Y2, Y2
	VINSERTF128  $1, (SI)(R8*1), Y3, Y3
	VUNPCKLPD    Y3, Y2, Y4
	VUNPCKHPD    Y3, Y2, Y5
	VMOVUPD      (DI), X6
	VMOVUPD      (DI)(DX*1), X7
	VINSERTF128  $1, (DI)(DX*2), Y6, Y6
	VINSERTF128  $1, (DI)(R8*1), Y7, Y7
	VUNPCKLPD    Y7, Y6, Y8
	VUNPCKHPD    Y7, Y6, Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VMULPD       Y10, Y4, Y4
	VMULPD       Y10, Y8, Y8
	VMULPD       Y11, Y5, Y5
	VMULPD       Y11, Y9, Y9
	VADDPD       Y4, Y0, Y0
	VADDPD       Y8, Y1, Y1
	VADDPD       Y5, Y0, Y0
	VADDPD       Y9, Y1, Y1
	ADDQ         $16, SI
	ADDQ         $16, DI
	ADDQ         $16, BX
	DECQ         CX
	JNZ          pair

tail:
	TESTQ        $1, R11
	JZ           store
	VMOVSD       (SI), X2
	VMOVHPD      (SI)(DX*1), X2, X2
	VMOVSD       (SI)(DX*2), X3
	VMOVHPD      (SI)(R8*1), X3, X3
	VINSERTF128  $1, X3, Y2, Y2
	VMOVSD       (DI), X6
	VMOVHPD      (DI)(DX*1), X6, X6
	VMOVSD       (DI)(DX*2), X7
	VMOVHPD      (DI)(R8*1), X7, X7
	VINSERTF128  $1, X7, Y6, Y6
	VBROADCASTSD (BX), Y10
	VMULPD       Y10, Y2, Y2
	VMULPD       Y10, Y6, Y6
	VADDPD       Y2, Y0, Y0
	VADDPD       Y6, Y1, Y1

store:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    $64, AX
	LEAQ    (R10)(DX*8), R10
	DECQ    R9
	JNZ     group

done:
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
