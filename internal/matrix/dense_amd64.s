#include "textflag.h"

// func mulPanels16AVX(dst, panels, x []float64)
//
// For each whole panel g of dst (len(dst)/16 panels) it sets
// dst[16g+l] = Σⱼ panels[g·16·len(x) + j·16 + l]·x[j], one YMM lane per row:
// Y0–Y3 hold rows 0–3, 4–7, 8–11 and 12–15 of the panel. Each lane starts at
// +0 and adds the product for j = 0, 1, … in order with a separate VMULPD
// and VADDPD, so it rounds exactly like mulRowsGo. Column j of a panel is 16
// contiguous doubles, so the loop needs one broadcast of x[j] and no
// shuffle. len(x) ≥ 1 (Panels has no empty dimension). R14, R15 and Y15 are
// left alone.
//
// Registers: AX dst, R9 panels left, SI the current column of the panel,
// R12 x, R11 len(x), BX &x[j], CX columns left.
TEXT ·mulPanels16AVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), AX
	MOVQ dst_len+8(FP), R9
	SHRQ $4, R9
	JZ   done
	MOVQ panels_base+24(FP), SI
	MOVQ x_base+48(FP), R12
	MOVQ x_len+56(FP), R11
	PCALIGN $32

panel:
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	MOVQ    R12, BX
	MOVQ    R11, CX
	PCALIGN $32

column:
	VBROADCASTSD (BX), Y4
	VMULPD       (SI), Y4, Y5
	VMULPD       32(SI), Y4, Y6
	VMULPD       64(SI), Y4, Y7
	VMULPD       96(SI), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $128, SI
	ADDQ         $8, BX
	DECQ         CX
	JNZ          column

	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	ADDQ    $128, AX
	DECQ    R9
	JNZ     panel

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

// func rotatePair4AVX(x, y []float64, c, s float64)
//
// With n = len(x), a multiple of 4, and len(y) ≥ n, it sets
// x[i], y[i] = c·x[i] − s·y[i], s·x[i] + c·y[i], four elements per YMM:
// each product is a separate VMULPD and each sum or difference a VSUBPD or
// VADDPD, so it rounds exactly like rotatePairGo.
//
// Registers: SI &x[i], DI &y[i], CX groups of four left, Y0 c, Y1 s.
TEXT ·rotatePair4AVX(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         y_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	SHRQ         $2, CX
	JZ           done
	PCALIGN      $32

pair:
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VMULPD  Y2, Y1, Y6
	VMULPD  Y3, Y0, Y7
	VSUBPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y4, (SI)
	VMOVUPD Y6, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     pair

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
