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

// func rotatedSumMax16AVX(bg, h, w []float64, first int) float64
//
// With n = len(bg), a multiple of 16, and δ = len(w), it forms
// t[k] = bg[k] + Σᵢ w[i]·h[((first+i) mod δ)·n + k] one YMM lane per value,
// sixteen values per group in Y0–Y3: each lane adds the product for
// i = 0, 1, … in order with a separate VMULPD and VADDPD, and slots whose
// w[i] is ±0 are skipped, exactly as rotatedSumMaxGo. t is never stored.
// Y13 keeps the lane maxima, from −Inf, with VMAXPD taking the new value
// only when it is greater, so no NaN gets in. The groups run from the last
// down to the first, so Y0 ends holding t[0..3]. The result is t[0] when
// that is NaN (VecMax starts from it and no value is greater) and the
// largest t[k] otherwise: VecMax(t) bit for bit, except that a zero may
// carry the sign of another zero than the first. R14, R15 and Y15 are left
// alone.
//
// Registers: SI &bg and R8 &h at the group, CX groups left, DX row stride
// in bytes, R11 the first row's offset, R12 δ rows' bytes, AX the current
// row's offset, R9 &w, R10 δ, BX &w[i], DI slots left, R13 scratch.
TEXT ·rotatedSumMax16AVX(SB), NOSPLIT, $0-88
	MOVQ  bg_base+0(FP), SI
	MOVQ  bg_len+8(FP), CX
	MOVQ  h_base+24(FP), R8
	MOVQ  w_base+48(FP), R9
	MOVQ  w_len+56(FP), R10
	MOVQ  first+72(FP), R11
	MOVQ  CX, DX
	SHLQ  $3, DX
	IMULQ DX, R11
	MOVQ  R10, R12
	IMULQ DX, R12
	LEAQ  -128(SI)(DX*1), SI
	LEAQ  -128(R8)(DX*1), R8
	SHRQ  $4, CX

	MOVQ        $0xfff0000000000000, R13
	MOVQ        R13, X13
	VMOVDDUP    X13, X13
	VINSERTF128 $1, X13, Y13, Y13

group:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	MOVQ    R9, BX
	MOVQ    R10, DI
	MOVQ    R11, AX
	PCALIGN $32

slot:
	MOVQ         (BX), R13
	SHLQ         $1, R13
	JZ           next
	VBROADCASTSD (BX), Y12
	VMULPD       (R8)(AX*1), Y12, Y8
	VMULPD       32(R8)(AX*1), Y12, Y9
	VMULPD       64(R8)(AX*1), Y12, Y10
	VMULPD       96(R8)(AX*1), Y12, Y11
	VADDPD       Y8, Y0, Y0
	VADDPD       Y9, Y1, Y1
	VADDPD       Y10, Y2, Y2
	VADDPD       Y11, Y3, Y3

next:
	ADDQ DX, AX
	CMPQ AX, R12
	JNE  same
	XORQ AX, AX

same:
	ADDQ $8, BX
	DECQ DI
	JNZ  slot

	VMAXPD Y13, Y0, Y13
	VMAXPD Y13, Y1, Y13
	VMAXPD Y13, Y2, Y13
	VMAXPD Y13, Y3, Y13
	SUBQ   $128, SI
	SUBQ   $128, R8
	DECQ   CX
	JNZ    group

	VEXTRACTF128 $1, Y13, X12
	VMAXPD       X13, X12, X13
	VUNPCKHPD    X13, X13, X12
	VMAXSD       X13, X12, X13
	VUCOMISD     X0, X0
	JPC          done
	VMOVAPD      X0, X13

done:
	VMOVSD X13, ret+80(FP)
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
