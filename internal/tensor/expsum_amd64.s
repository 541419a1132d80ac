//go:build amd64

#include "textflag.h"

// ExpSum kernels (see expsum.go for the per-element program they share with
// the generic tier). Each processes len(x), a multiple of 8, elements and
// adds element i's term into acc[i mod 8]; the Go wrappers finish the tail
// and the lane reduction. Multiplies and adds are separate instructions
// (never FMA) so every rounding matches the generic reference. X15/Y15 are
// never touched (X15 is the ABIInternal zero register).

// expK holds the constants, each replicated across a 32-byte row so the
// AVX2 kernel can use them as memory operands and the SSE kernel can load a
// 16-byte prefix with MOVUPS.
#define ROW(off, bits) \
	DATA expK<>+(off+0)(SB)/4, $bits; \
	DATA expK<>+(off+4)(SB)/4, $bits; \
	DATA expK<>+(off+8)(SB)/4, $bits; \
	DATA expK<>+(off+12)(SB)/4, $bits; \
	DATA expK<>+(off+16)(SB)/4, $bits; \
	DATA expK<>+(off+20)(SB)/4, $bits; \
	DATA expK<>+(off+24)(SB)/4, $bits; \
	DATA expK<>+(off+28)(SB)/4, $bits

#define K_LO 0
#define K_LOG2E 32
#define K_MAGIC 64
#define K_C1 96
#define K_C2 128
#define K_P0 160
#define K_P1 192
#define K_P2 224
#define K_P3 256
#define K_P4 288
#define K_P5 320
#define K_ONE 352
#define K_BIAS 384

ROW(K_LO, 0xc2ae0000)    // -87
ROW(K_LOG2E, 0x3fb8aa3b) // log2(e)
ROW(K_MAGIC, 0x4b400000) // 1.5·2²³
ROW(K_C1, 0x3f318000)    // 0.693359375
ROW(K_C2, 0xb95e8083)    // -2.12194440e-4
ROW(K_P0, 0x39506967)
ROW(K_P1, 0x3ab743ce)
ROW(K_P2, 0x3c088908)
ROW(K_P3, 0x3d2aa9c1)
ROW(K_P4, 0x3e2aaaaa)
ROW(K_P5, 0x3f000000)
ROW(K_ONE, 0x3f800000)
ROW(K_BIAS, 0xb4c0007f)  // 127 - bits(1.5·2²³), mod 2³²
GLOBL expK<>(SB), RODATA|NOPTR, $416

// func expSumAVX2Asm(x []float32, m float32, acc *[8]float32)
TEXT ·expSumAVX2Asm(SB), NOSPLIT, $0-40
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), BX
	MOVQ         acc+32(FP), DI
	VBROADCASTSS m+24(FP), Y0
	VXORPS       Y1, Y1, Y1
	VMOVUPS      expK<>+K_LO(SB), Y2
	VMOVUPS      expK<>+K_LOG2E(SB), Y3
	VMOVUPS      expK<>+K_MAGIC(SB), Y4
	VMOVUPS      expK<>+K_BIAS(SB), Y12
	VMOVUPS      expK<>+K_ONE(SB), Y13
	VMOVUPS      (DI), Y14           // lane accumulators
	SHRQ         $3, BX              // number of 8-wide blocks
	JZ           done

loop8:
	VMOVUPS (SI), Y5
	VSUBPS  Y0, Y5, Y5               // y = x - m
	VMINPS  Y5, Y1, Y5               // y = 0 < y ? 0 : y (NaN stays)
	VCMPPS  $5, Y2, Y5, Y6           // keep = !(y < lo)
	VMULPS  Y3, Y5, Y7
	VADDPS  Y4, Y7, Y7               // t = y·log2e + magic
	VSUBPS  Y4, Y7, Y8               // k = t - magic
	VMULPS  expK<>+K_C1(SB), Y8, Y9
	VSUBPS  Y9, Y5, Y9               // r = y - k·C1
	VMULPS  expK<>+K_C2(SB), Y8, Y8
	VSUBPS  Y8, Y9, Y9               // r -= k·C2
	VMULPS  Y9, Y9, Y10              // z = r·r
	VMULPS  expK<>+K_P0(SB), Y9, Y11
	VADDPS  expK<>+K_P1(SB), Y11, Y11
	VMULPS  Y9, Y11, Y11
	VADDPS  expK<>+K_P2(SB), Y11, Y11
	VMULPS  Y9, Y11, Y11
	VADDPS  expK<>+K_P3(SB), Y11, Y11
	VMULPS  Y9, Y11, Y11
	VADDPS  expK<>+K_P4(SB), Y11, Y11
	VMULPS  Y9, Y11, Y11
	VADDPS  expK<>+K_P5(SB), Y11, Y11
	VMULPS  Y10, Y11, Y11            // p·z
	VADDPS  Y9, Y11, Y11             // + r
	VADDPS  Y13, Y11, Y11            // + 1
	VPADDD  Y12, Y7, Y7
	VPSLLD  $23, Y7, Y7              // 2^k
	VMULPS  Y7, Y11, Y11
	VANDPS  Y6, Y11, Y11             // dropped lanes contribute +0
	VADDPS  Y11, Y14, Y14
	ADDQ    $32, SI
	DECQ    BX
	JNZ     loop8

done:
	VMOVUPS Y14, (DI)
	VZEROUPPER
	RET

// EXPSUM4 evaluates the program on the 4 floats at off(SI) and adds the
// terms into ACC. X0 = m, X3 = log2e, X4 = magic; clobbers X5–X13.
#define EXPSUM4(off, ACC) \
	MOVUPS off(SI), X5; \
	SUBPS  X0, X5; \
	XORPS  X6, X6; \
	MINPS  X5, X6; \
	MOVAPS X6, X7; \
	MOVUPS expK<>+K_LO(SB), X8; \
	CMPPS  X8, X7, $5; \
	MOVAPS X6, X8; \
	MULPS  X3, X8; \
	ADDPS  X4, X8; \
	MOVAPS X8, X9; \
	SUBPS  X4, X9; \
	MOVUPS expK<>+K_C1(SB), X10; \
	MULPS  X9, X10; \
	MOVAPS X6, X11; \
	SUBPS  X10, X11; \
	MOVUPS expK<>+K_C2(SB), X10; \
	MULPS  X9, X10; \
	SUBPS  X10, X11; \
	MOVAPS X11, X12; \
	MULPS  X11, X12; \
	MOVUPS expK<>+K_P0(SB), X13; \
	MULPS  X11, X13; \
	MOVUPS expK<>+K_P1(SB), X10; \
	ADDPS  X10, X13; \
	MULPS  X11, X13; \
	MOVUPS expK<>+K_P2(SB), X10; \
	ADDPS  X10, X13; \
	MULPS  X11, X13; \
	MOVUPS expK<>+K_P3(SB), X10; \
	ADDPS  X10, X13; \
	MULPS  X11, X13; \
	MOVUPS expK<>+K_P4(SB), X10; \
	ADDPS  X10, X13; \
	MULPS  X11, X13; \
	MOVUPS expK<>+K_P5(SB), X10; \
	ADDPS  X10, X13; \
	MULPS  X12, X13; \
	ADDPS  X11, X13; \
	MOVUPS expK<>+K_ONE(SB), X10; \
	ADDPS  X10, X13; \
	MOVUPS expK<>+K_BIAS(SB), X10; \
	PADDL  X10, X8; \
	PSLLL  $23, X8; \
	MULPS  X8, X13; \
	ANDPS  X7, X13; \
	ADDPS  X13, ACC

// func expSumSSEAsm(x []float32, m float32, acc *[8]float32)
// SSE2 only. Lanes 0–3 live in X1 and lanes 4–7 in X2, so the 8-lane
// accumulation order matches the AVX2 and generic tiers.
TEXT ·expSumSSEAsm(SB), NOSPLIT, $0-40
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), BX
	MOVQ   acc+32(FP), DI
	MOVSS  m+24(FP), X0
	SHUFPS $0x00, X0, X0
	MOVUPS expK<>+K_LOG2E(SB), X3
	MOVUPS expK<>+K_MAGIC(SB), X4
	MOVUPS (DI), X1
	MOVUPS 16(DI), X2
	SHRQ   $3, BX                    // number of 8-wide blocks
	JZ     done

loop8:
	EXPSUM4(0, X1)
	EXPSUM4(16, X2)
	ADDQ $32, SI
	DECQ BX
	JNZ  loop8

done:
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	RET
