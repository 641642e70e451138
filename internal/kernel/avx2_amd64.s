//go:build amd64 && !purego

#include "textflag.h"

// AVX2/FMA micro-kernels, fused C update and packers for the avx2 backend.
//
// The micro-tile is MR×NR = 6×8 (float64) and 6×16 (float32): six rows, and
// one 64-byte row of C — two ymm — across. That is the orientation a
// row-major matrix.Mat wants: an accumulator register *is* half a row of the
// C tile, so the tile is updated with plain vector loads and stores and no
// transpose, and the packed B̃ row (NR elements, 64 bytes in either dtype) is
// loaded as the same two vectors. Per k-step the kernel loads one B̃ row as
// two ymm and broadcasts the six Ã values, retiring 12 FMA instructions —
// 96 (f64) / 192 (f32) flops — against 8 loads.
//
// Register plan (both dtypes): Y0–Y11 hold the 6×2 accumulator grid (row i,
// half h in Y(2i+h)), Y12/Y13 the two halves of the current B̃ row, Y14 the
// current Ã broadcast. After the rank-kc loop Y12–Y14 are free and carry the
// C-term coefficient and the two halves of the row being updated. Y15/X15 is
// never touched: under the Go internal ABI X15 is the fixed zero register.
//
// Bit rules the Go side and the test oracles rely on:
//   - every accumulator element is one FMA chain over p = 0…kc−1 from +0;
//   - the C update is a separate multiply and add, C += round(w·acc), which
//     is what scatterGeneric computes (w = 1 multiplies exactly);
//   - the packers form Σ coef·v from +0 in term order with a separate
//     multiply and add, or copy the first term when its coefficient is 1 —
//     exactly packAGeneric/packBGeneric, element for element.
//
// C-tile prefetch in the fused kernels: the rank-kc loop is cut into one
// segment per C term and each segment starts by requesting that term's six
// tile rows — never all 6·n rows ahead of the loop. Measured on the host this
// was tuned on (BenchmarkMicroScatterTerms), a burst of twelve or more C
// lines that all lie in the same half of their 128-byte line pairs stalls the
// core for about a third of the call: a second term cost +38 % where C's row
// stride is a multiple of 128 bytes (2048, 2064, 2880 doubles — FMM quadrants
// of such a matrix are whole line pairs apart, so every row of every term's
// tile is in the same half) against +6 % where it is an odd multiple of 64
// (2056), and prefetching alone, with the update's loads and stores removed,
// paid all of it. Six lines at a time, a memory latency apart, do not. See
// RANK_KC_PREFETCH_C (rankkc_amd64.h) for the schedule.
//
// Loads and stores use the unaligned forms throughout: C tiles and packing
// sources are views at arbitrary offsets, and on AVX2 hardware an unaligned
// instruction on aligned data (the 32-byte aligned packed buffers) costs the
// same as the aligned form.

#define ZERO_ACC \
	VXORPD Y0, Y0, Y0;   \
	VXORPD Y1, Y1, Y1;   \
	VXORPD Y2, Y2, Y2;   \
	VXORPD Y3, Y3, Y3;   \
	VXORPD Y4, Y4, Y4;   \
	VXORPD Y5, Y5, Y5;   \
	VXORPD Y6, Y6, Y6;   \
	VXORPD Y7, Y7, Y7;   \
	VXORPD Y8, Y8, Y8;   \
	VXORPD Y9, Y9, Y9;   \
	VXORPD Y10, Y10, Y10; \
	VXORPD Y11, Y11, Y11

// One float64 k-step: Ã column at byte offset a of SI (6 doubles), B̃ row at
// byte offset b of BX (8 doubles).
#define KSTEP_F64(a, b) \
	VMOVUPD      b(BX), Y12;      \
	VMOVUPD      (b+32)(BX), Y13; \
	VBROADCASTSD a(SI), Y14;      \
	VFMADD231PD  Y12, Y14, Y0;    \
	VFMADD231PD  Y13, Y14, Y1;    \
	VBROADCASTSD (a+8)(SI), Y14;  \
	VFMADD231PD  Y12, Y14, Y2;    \
	VFMADD231PD  Y13, Y14, Y3;    \
	VBROADCASTSD (a+16)(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y4;    \
	VFMADD231PD  Y13, Y14, Y5;    \
	VBROADCASTSD (a+24)(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y6;    \
	VFMADD231PD  Y13, Y14, Y7;    \
	VBROADCASTSD (a+32)(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y8;    \
	VFMADD231PD  Y13, Y14, Y9;    \
	VBROADCASTSD (a+40)(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y10;   \
	VFMADD231PD  Y13, Y14, Y11

// One float32 k-step: Ã column of 6 singles at a(SI), B̃ row of 16 at b(BX).
#define KSTEP_F32(a, b) \
	VMOVUPS      b(BX), Y12;      \
	VMOVUPS      (b+32)(BX), Y13; \
	VBROADCASTSS a(SI), Y14;      \
	VFMADD231PS  Y12, Y14, Y0;    \
	VFMADD231PS  Y13, Y14, Y1;    \
	VBROADCASTSS (a+4)(SI), Y14;  \
	VFMADD231PS  Y12, Y14, Y2;    \
	VFMADD231PS  Y13, Y14, Y3;    \
	VBROADCASTSS (a+8)(SI), Y14;  \
	VFMADD231PS  Y12, Y14, Y4;    \
	VFMADD231PS  Y13, Y14, Y5;    \
	VBROADCASTSS (a+12)(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y6;    \
	VFMADD231PS  Y13, Y14, Y7;    \
	VBROADCASTSS (a+16)(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y8;    \
	VFMADD231PS  Y13, Y14, Y9;    \
	VBROADCASTSS (a+20)(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y10;   \
	VFMADD231PS  Y13, Y14, Y11

// Four k-steps and one k-step of either dtype, with the panel pointers moved
// past them: the bodies of the rank-kc loops below.
#define TRIP4_F64 \
	KSTEP_F64(0, 0);     \
	KSTEP_F64(48, 64);   \
	KSTEP_F64(96, 128);  \
	KSTEP_F64(144, 192); \
	ADDQ $192, SI;       \
	ADDQ $256, BX

#define TRIP1_F64 \
	KSTEP_F64(0, 0); \
	ADDQ $48, SI;    \
	ADDQ $64, BX

#define TRIP4_F32 \
	KSTEP_F32(0, 0);    \
	KSTEP_F32(24, 64);  \
	KSTEP_F32(48, 128); \
	KSTEP_F32(72, 192); \
	ADDQ $96, SI;       \
	ADDQ $256, BX

#define TRIP1_F32 \
	KSTEP_F32(0, 0); \
	ADDQ $24, SI;    \
	ADDQ $64, BX

// Store the accumulator grid to acc (DI), row-major MR×NR: 64 bytes a row in
// either dtype.
#define STORE_ACC \
	VMOVUPD Y0, 0(DI);    \
	VMOVUPD Y1, 32(DI);   \
	VMOVUPD Y2, 64(DI);   \
	VMOVUPD Y3, 96(DI);   \
	VMOVUPD Y4, 128(DI);  \
	VMOVUPD Y5, 160(DI);  \
	VMOVUPD Y6, 192(DI);  \
	VMOVUPD Y7, 224(DI);  \
	VMOVUPD Y8, 256(DI);  \
	VMOVUPD Y9, 288(DI);  \
	VMOVUPD Y10, 320(DI); \
	VMOVUPD Y11, 352(DI)

// Prefetch the six 64-byte rows of one C-term tile: its tileRef at R10, which
// moves on to the next term. A tile row is 64 bytes but a peeled or blocked
// view is not line-aligned, so it can straddle two lines — touch its first
// and its last byte. Clobbers DI, DX.
#define PREFETCH_C_TERM \
	MOVQ (R10), DI;    \
	MOVQ 8(R10), DX;   \
	PREFETCHT0 (DI);   \
	PREFETCHT0 63(DI); \
	ADDQ DX, DI;       \
	PREFETCHT0 (DI);   \
	PREFETCHT0 63(DI); \
	ADDQ DX, DI;       \
	PREFETCHT0 (DI);   \
	PREFETCHT0 63(DI); \
	ADDQ DX, DI;       \
	PREFETCHT0 (DI);   \
	PREFETCHT0 63(DI); \
	ADDQ DX, DI;       \
	PREFETCHT0 (DI);   \
	PREFETCHT0 63(DI); \
	ADDQ DX, DI;       \
	PREFETCHT0 (DI);   \
	PREFETCHT0 63(DI); \
	ADDQ $24, R10

// RANK_KC and RANK_KC_PREFETCH_C, the plain and the fused kernels' rank-kc
// loops, with the segment schedule the C-prefetch note above describes.
#include "rankkc_amd64.h"

// One row of one C term from registers: C[i][:] += w·acc[i][:] with w
// broadcast in Y12, the row at DI, the row stride in DX.
#define CROW_F64(lo, hi) \
	VMULPD  lo, Y12, Y13;     \
	VMULPD  hi, Y12, Y14;     \
	VADDPD  (DI), Y13, Y13;   \
	VADDPD  32(DI), Y14, Y14; \
	VMOVUPD Y13, (DI);        \
	VMOVUPD Y14, 32(DI);      \
	ADDQ    DX, DI

#define CROW_F32(lo, hi) \
	VMULPS  lo, Y12, Y13;     \
	VMULPS  hi, Y12, Y14;     \
	VADDPS  (DI), Y13, Y13;   \
	VADDPS  32(DI), Y14, Y14; \
	VMOVUPS Y13, (DI);        \
	VMOVUPS Y14, 32(DI);      \
	ADDQ    DX, DI

// func microF64AVX2(kc int, ap, bp, acc *float64)
// acc[i*8+j] = Σ_p ap[p*6+i] · bp[p*8+j]; overwrites acc (kc==0 handled by
// the Go wrapper).
TEXT ·microF64AVX2(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ acc+24(FP), DI
	ZERO_ACC
	RANK_KC(TRIP4_F64, TRIP1_F64, m64loop4, m64tail, m64loop1, m64done)
	STORE_ACC
	VZEROUPPER
	RET

// func microF32AVX2(kc int, ap, bp, acc *float32)
// acc[i*16+j] = Σ_p ap[p*6+i] · bp[p*16+j]; overwrites acc.
TEXT ·microF32AVX2(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ acc+24(FP), DI
	ZERO_ACC
	RANK_KC(TRIP4_F32, TRIP1_F32, m32loop4, m32tail, m32loop1, m32done)
	STORE_ACC
	VZEROUPPER
	RET

// func microScatterF64AVX2(kc int, ap, bp *float64, refs *tileRef[float64], n, seg int)
// The fused micro-kernel of Figure 1 (right): the 6×8 rank-kc product stays
// in Y0–Y11 and is added, weighted, into each of the n C-term tiles refs
// describes (24 bytes each: pointer, row stride in bytes, coefficient),
// whose rows are prefetched one term per segment of the loop. kc ≥ 1, 1 ≤ n
// and seg = fusedSegTrips(kc, n) are the wrapper's.
TEXT ·microScatterF64AVX2(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ refs+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ seg+40(FP), R12
	ZERO_ACC
	RANK_KC_PREFETCH_C(TRIP4_F64, TRIP1_F64, ms64seg, ms64loop4, ms64next, ms64loop1, ms64done)

ms64term:
	MOVQ         (R8), DI
	MOVQ         8(R8), DX
	VBROADCASTSD 16(R8), Y12
	CROW_F64(Y0, Y1)
	CROW_F64(Y2, Y3)
	CROW_F64(Y4, Y5)
	CROW_F64(Y6, Y7)
	CROW_F64(Y8, Y9)
	CROW_F64(Y10, Y11)
	ADDQ         $24, R8
	DECQ         R9
	JNZ          ms64term

	VZEROUPPER
	RET

// func microScatterF32AVX2(kc int, ap, bp *float32, refs *tileRef[float32], n, seg int)
// The 6×16 float32 counterpart of microScatterF64AVX2.
TEXT ·microScatterF32AVX2(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ refs+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ seg+40(FP), R12
	ZERO_ACC
	RANK_KC_PREFETCH_C(TRIP4_F32, TRIP1_F32, ms32seg, ms32loop4, ms32next, ms32loop1, ms32done)

ms32term:
	MOVQ         (R8), DI
	MOVQ         8(R8), DX
	VBROADCASTSS 16(R8), Y12
	CROW_F32(Y0, Y1)
	CROW_F32(Y2, Y3)
	CROW_F32(Y4, Y5)
	CROW_F32(Y6, Y7)
	CROW_F32(Y8, Y9)
	CROW_F32(Y10, Y11)
	ADDQ         $24, R8
	DECQ         R9
	JNZ          ms32term

	VZEROUPPER
	RET

// func scatterF64AVX2(dst *float64, stride int, coef float64, acc *float64)
// Full-tile scatter from memory: dst points at C[r0][c0]; adds coef·acc[i*8+j]
// to the 6×8 region, a row (two ymm) at a time. Fringe tiles take the generic
// Go path (see the wrapper). The driver's hot loop does not come through
// here — it updates C from registers in microScatterF64AVX2.
TEXT ·scatterF64AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         stride+8(FP), DX
	VBROADCASTSD coef+16(FP), Y12
	MOVQ         acc+24(FP), SI
	MOVQ         $6, CX
	SHLQ         $3, DX // stride in bytes

s64row:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	CROW_F64(Y0, Y1)
	ADDQ    $64, SI
	DECQ    CX
	JNZ     s64row

	VZEROUPPER
	RET

// func scatterF32AVX2(dst *float32, stride int, coef float32, acc *float32)
// Full-tile 6×16 scatter from memory.
TEXT ·scatterF32AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         stride+8(FP), DX
	VBROADCASTSS coef+16(FP), Y12
	MOVQ         acc+24(FP), SI
	MOVQ         $6, CX
	SHLQ         $2, DX // stride in bytes

s32row:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	CROW_F32(Y0, Y1)
	ADDQ    $64, SI
	DECQ    CX
	JNZ     s32row

	VZEROUPPER
	RET

// The packers move one term of one panel per call; the Go wrappers walk
// panels and terms and pick the mode. Every packer takes the panel's extent
// in the source, rows × cols, and reads only those elements:
//
//	packCopy  dst = src            (first term of the list, coefficient 1)
//	packSet   dst = +0 + coef·src  (first term with a non-zero coefficient)
//	packAdd   dst = dst + coef·src (every later term)
//
// so an element's value is built in term order from +0 by a multiply and an
// add, rounded separately — the sequence packAGeneric/packBGeneric execute.
// packSet adds the product to +0 rather than storing it because that is
// where the two differ: −0 products come out +0, as they do in Go.

// func packBTermF64AVX2(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)
// One term of one full B̃ column-panel: rows (kc) rows of 8 doubles (two
// ymm) from src, stride bytes apart, into the dense panel at dst; cols is 8.
TEXT ·packBTermF64AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSD coef+24(FP), Y12
	MOVQ         rows+32(FP), CX
	MOVQ         mode+48(FP), AX
	CMPQ         AX, $1
	JEQ          pb64set
	JA           pb64add

pb64copy:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     pb64copy
	VZEROUPPER
	RET

pb64set:
	VXORPD Y13, Y13, Y13

pb64setrow:
	VMULPD  (SI), Y12, Y0
	VMULPD  32(SI), Y12, Y1
	VADDPD  Y13, Y0, Y0
	VADDPD  Y13, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     pb64setrow
	VZEROUPPER
	RET

pb64add:
	VMULPD  (SI), Y12, Y0
	VMULPD  32(SI), Y12, Y1
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     pb64add
	VZEROUPPER
	RET

// func packBTermF32AVX2(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)
// The float32 B̃ panel row is 16 singles — the same 64 bytes.
TEXT ·packBTermF32AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSS coef+24(FP), Y12
	MOVQ         rows+32(FP), CX
	MOVQ         mode+48(FP), AX
	CMPQ         AX, $1
	JEQ          pb32set
	JA           pb32add

pb32copy:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     pb32copy
	VZEROUPPER
	RET

pb32set:
	VXORPS Y13, Y13, Y13

pb32setrow:
	VMULPS  (SI), Y12, Y0
	VMULPS  32(SI), Y12, Y1
	VADDPS  Y13, Y0, Y0
	VADDPS  Y13, Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     pb32setrow
	VZEROUPPER
	RET

pb32add:
	VMULPS  (SI), Y12, Y0
	VMULPS  32(SI), Y12, Y1
	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     pb32add
	VZEROUPPER
	RET

// Ã packing transposes: the source is six rows (SI, stride DX; R8 = SI+3·DX
// addresses rows 3–5), the panel stores each k-column's six values together.
//
// float64, four columns a step. Rows R0–R5 arrive in Y0–Y5 as (c0 c1 c2 c3).
// A 4×4 transpose of R0–R3 (VUNPCK*PD pairs rows inside 128-bit lanes,
// VPERM2F128 regroups the lanes) gives Qc = rows 0–3 of column c; the 2×4
// pair U0 = (R4c0 R5c0 | R4c2 R5c2), U1 = (R4c1 R5c1 | R4c3 R5c3) carries
// rows 4–5. The 24 outputs — c0r0…c0r5 c1r0…c3r5 — are then six ymm:
//
//	Y0 = Q0            Y4 = (U0.lo Q1.lo)   Y5 = (Q1.hi U1.lo)
//	Y2 = Q2            Y6 = (U0.hi Q3.lo)   Y7 = (Q3.hi U1.hi)
#define TRANSPOSE_A_F64 \
	VUNPCKLPD  Y1, Y0, Y6;        \
	VUNPCKHPD  Y1, Y0, Y7;        \
	VUNPCKLPD  Y3, Y2, Y8;        \
	VUNPCKHPD  Y3, Y2, Y9;        \
	VUNPCKLPD  Y5, Y4, Y10;       \
	VUNPCKHPD  Y5, Y4, Y11;       \
	VPERM2F128 $0x20, Y8, Y6, Y0; \
	VPERM2F128 $0x20, Y9, Y7, Y1; \
	VPERM2F128 $0x31, Y8, Y6, Y2; \
	VPERM2F128 $0x31, Y9, Y7, Y3; \
	VPERM2F128 $0x20, Y1, Y10, Y4; \
	VPERM2F128 $0x21, Y11, Y1, Y5; \
	VPERM2F128 $0x21, Y3, Y10, Y6; \
	VPERM2F128 $0x31, Y11, Y3, Y7

#define LOAD_A_F64 \
	VMOVUPD (SI), Y0;       \
	VMOVUPD (SI)(DX*1), Y1; \
	VMOVUPD (SI)(DX*2), Y2; \
	VMOVUPD (R8), Y3;       \
	VMOVUPD (R8)(DX*1), Y4; \
	VMOVUPD (R8)(DX*2), Y5

#define MUL_A_F64 \
	VMULPD (SI), Y12, Y0;       \
	VMULPD (SI)(DX*1), Y12, Y1; \
	VMULPD (SI)(DX*2), Y12, Y2; \
	VMULPD (R8), Y12, Y3;       \
	VMULPD (R8)(DX*1), Y12, Y4; \
	VMULPD (R8)(DX*2), Y12, Y5

#define ADD_A_F64(z0, z1, z2, z3, z4, z5) \
	VADDPD z0, Y0, Y0; \
	VADDPD z1, Y4, Y4; \
	VADDPD z2, Y5, Y5; \
	VADDPD z3, Y2, Y2; \
	VADDPD z4, Y6, Y6; \
	VADDPD z5, Y7, Y7

#define STORE_A_F64 \
	VMOVUPD Y0, 0(DI);   \
	VMOVUPD Y4, 32(DI);  \
	VMOVUPD Y5, 64(DI);  \
	VMOVUPD Y2, 96(DI);  \
	VMOVUPD Y6, 128(DI); \
	VMOVUPD Y7, 160(DI); \
	ADDQ    $32, SI;     \
	ADDQ    $32, R8;     \
	ADDQ    $192, DI

// func packATermF64AVX2(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)
// One term of one full Ã row-panel: the six rows (rows is 6) at src, stride
// bytes apart, cols k-columns long (a multiple of four), into the panel at
// dst — cols/4 transpose steps of 24 doubles.
TEXT ·packATermF64AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSD coef+24(FP), Y12
	MOVQ         cols+40(FP), CX
	SHRQ         $2, CX // four-column steps
	MOVQ         mode+48(FP), AX
	LEAQ         (SI)(DX*2), R8
	ADDQ         DX, R8
	CMPQ         AX, $1
	JEQ          pa64set
	JA           pa64add

pa64copy:
	LOAD_A_F64
	TRANSPOSE_A_F64
	STORE_A_F64
	DECQ CX
	JNZ  pa64copy
	VZEROUPPER
	RET

pa64set:
	VXORPD Y13, Y13, Y13

pa64setstep:
	MUL_A_F64
	TRANSPOSE_A_F64
	ADD_A_F64(Y13, Y13, Y13, Y13, Y13, Y13)
	STORE_A_F64
	DECQ CX
	JNZ  pa64setstep
	VZEROUPPER
	RET

pa64add:
	MUL_A_F64
	TRANSPOSE_A_F64
	ADD_A_F64(0(DI), 32(DI), 64(DI), 96(DI), 128(DI), 160(DI))
	STORE_A_F64
	DECQ CX
	JNZ  pa64add
	VZEROUPPER
	RET

// float32, eight columns a step: each 128-bit lane of R0–R5 (Y0–Y5) holds
// four columns — c0–c3 low, c4–c7 high — and is transposed on its own.
// VUNPCK*PS pairs rows, VSHUFPS $0x44/$0xEE joins pairs: Qc = rows 0–3 of
// column c (and c+4), U0 = (R4c0 R5c0 R4c1 R5c1), U1 = (R4c2 R5c2 R4c3 R5c3).
// Per lane the 24 outputs c0r0…c0r5 c1r0…c3r5 are six xmm:
//
//	Y0 = Q0            Y4 = (U0[0:2] Q1[0:2])   Y5 = (Q1[2:4] U0[2:4])
//	Y2 = Q2            Y6 = (U1[0:2] Q3[0:2])   Y7 = (Q3[2:4] U1[2:4])
//
// The low lanes are columns 0–3 (panel bytes 0–95), the high lanes columns
// 4–7 (bytes 96–191).
#define TRANSPOSE_A_F32 \
	VUNPCKLPS Y1, Y0, Y6;        \
	VUNPCKHPS Y1, Y0, Y7;        \
	VUNPCKLPS Y3, Y2, Y8;        \
	VUNPCKHPS Y3, Y2, Y9;        \
	VUNPCKLPS Y5, Y4, Y10;       \
	VUNPCKHPS Y5, Y4, Y11;       \
	VSHUFPS   $0x44, Y8, Y6, Y0; \
	VSHUFPS   $0xEE, Y8, Y6, Y1; \
	VSHUFPS   $0x44, Y9, Y7, Y2; \
	VSHUFPS   $0xEE, Y9, Y7, Y3; \
	VSHUFPS   $0x44, Y1, Y10, Y4; \
	VSHUFPS   $0xEE, Y10, Y1, Y5; \
	VSHUFPS   $0x44, Y3, Y11, Y6; \
	VSHUFPS   $0xEE, Y11, Y3, Y7

#define LOAD_A_F32 \
	VMOVUPS (SI), Y0;       \
	VMOVUPS (SI)(DX*1), Y1; \
	VMOVUPS (SI)(DX*2), Y2; \
	VMOVUPS (R8), Y3;       \
	VMOVUPS (R8)(DX*1), Y4; \
	VMOVUPS (R8)(DX*2), Y5

#define MUL_A_F32 \
	VMULPS (SI), Y12, Y0;       \
	VMULPS (SI)(DX*1), Y12, Y1; \
	VMULPS (SI)(DX*2), Y12, Y2; \
	VMULPS (R8), Y12, Y3;       \
	VMULPS (R8)(DX*1), Y12, Y4; \
	VMULPS (R8)(DX*2), Y12, Y5

// Gather the panel's current values in the registers' lane arrangement (low
// lane from off(DI), high lane from off+96(DI)) and add them.
#define ADDMEM_A_F32(off, y) \
	VMOVUPS     off(DI), X13;            \
	VINSERTF128 $1, (off+96)(DI), Y13, Y13; \
	VADDPS      Y13, y, y

#define STOREPAIR_A_F32(off, x, y) \
	VMOVUPS      x, off(DI);        \
	VEXTRACTF128 $1, y, (off+96)(DI)

#define STORE_A_F32 \
	STOREPAIR_A_F32(0, X0, Y0);  \
	STOREPAIR_A_F32(16, X4, Y4); \
	STOREPAIR_A_F32(32, X5, Y5); \
	STOREPAIR_A_F32(48, X2, Y2); \
	STOREPAIR_A_F32(64, X6, Y6); \
	STOREPAIR_A_F32(80, X7, Y7); \
	ADDQ $32, SI;                \
	ADDQ $32, R8;                \
	ADDQ $192, DI

// func packATermF32AVX2(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)
// One term of one full float32 Ã row-panel: cols (a multiple of eight)/8
// steps of eight k-columns, 48 singles a step.
TEXT ·packATermF32AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSS coef+24(FP), Y12
	MOVQ         cols+40(FP), CX
	SHRQ         $3, CX // eight-column steps
	MOVQ         mode+48(FP), AX
	LEAQ         (SI)(DX*2), R8
	ADDQ         DX, R8
	CMPQ         AX, $1
	JEQ          pa32set
	JA           pa32add

pa32copy:
	LOAD_A_F32
	TRANSPOSE_A_F32
	STORE_A_F32
	DECQ CX
	JNZ  pa32copy
	VZEROUPPER
	RET

pa32set:
	VXORPS Y13, Y13, Y13

pa32setstep:
	MUL_A_F32
	TRANSPOSE_A_F32
	VADDPS Y13, Y0, Y0
	VADDPS Y13, Y4, Y4
	VADDPS Y13, Y5, Y5
	VADDPS Y13, Y2, Y2
	VADDPS Y13, Y6, Y6
	VADDPS Y13, Y7, Y7
	STORE_A_F32
	DECQ CX
	JNZ  pa32setstep
	VZEROUPPER
	RET

pa32add:
	MUL_A_F32
	TRANSPOSE_A_F32
	ADDMEM_A_F32(0, Y0)
	ADDMEM_A_F32(16, Y4)
	ADDMEM_A_F32(32, Y5)
	ADDMEM_A_F32(48, Y2)
	ADDMEM_A_F32(64, Y6)
	ADDMEM_A_F32(80, Y7)
	STORE_A_F32
	DECQ CX
	JNZ  pa32add
	VZEROUPPER
	RET

// Fringes: the partial tiles and panels at the right and bottom edges of a
// block — a tile of mr < 6 rows or nr < NR columns, an Ã panel of fewer than
// six rows or with a k-tail of kc mod 4 (mod 8 for float32) columns, a B̃
// panel of fewer than NR columns. They run the same arithmetic as the full
// routines, element for element; what they read and write is cut to the
// real extent with VMASKMOVPD/VMASKMOVPS lane masks (a lane whose mask bit
// is clear is neither read nor written, and loads as +0) and, for Ã rows,
// with row pointers clamped to the last real row and a mask that clears what
// they load.
//
// maskTab<>: 192 bytes of ones, then 192 bytes of zeros. The 32 bytes at
// maskTab<>+192−k·size are a lane mask with its first k lanes set (size 8
// for float64, 4 for float32); the 32 bytes at maskTab<>+192−32·r+32·i are
// all ones for i < r and all zeros otherwise.
DATA maskTab<>+0(SB)/8, $-1
DATA maskTab<>+8(SB)/8, $-1
DATA maskTab<>+16(SB)/8, $-1
DATA maskTab<>+24(SB)/8, $-1
DATA maskTab<>+32(SB)/8, $-1
DATA maskTab<>+40(SB)/8, $-1
DATA maskTab<>+48(SB)/8, $-1
DATA maskTab<>+56(SB)/8, $-1
DATA maskTab<>+64(SB)/8, $-1
DATA maskTab<>+72(SB)/8, $-1
DATA maskTab<>+80(SB)/8, $-1
DATA maskTab<>+88(SB)/8, $-1
DATA maskTab<>+96(SB)/8, $-1
DATA maskTab<>+104(SB)/8, $-1
DATA maskTab<>+112(SB)/8, $-1
DATA maskTab<>+120(SB)/8, $-1
DATA maskTab<>+128(SB)/8, $-1
DATA maskTab<>+136(SB)/8, $-1
DATA maskTab<>+144(SB)/8, $-1
DATA maskTab<>+152(SB)/8, $-1
DATA maskTab<>+160(SB)/8, $-1
DATA maskTab<>+168(SB)/8, $-1
DATA maskTab<>+176(SB)/8, $-1
DATA maskTab<>+184(SB)/8, $-1
GLOBL maskTab<>(SB), RODATA|NOPTR, $384

// Fringe tiles. Both kernels run the unsegmented rank-kc loop (a fringe
// tile's rows are not the six full lines PREFETCH_C_TERM requests) and then
// update, term by term, the tile's first mr rows from the registers, by the
// rule the full tile follows: C += round(w·acc).
//
// microScatterMask*: the full-width kernel, for NR/2 < nr ≤ NR or mr < 6.
// The low half of every row is whole; the high half's nr − NR/2 lanes are
// masked by Y13. The row update needs the coefficient, the mask, the
// product and the loaded C, one register more than Y12–Y14, so the
// coefficient is broadcast from the tileRef for each half.
#define CROW_MASK_F64(lo, hi) \
	VBROADCASTSD 16(R8), Y12;      \
	VMULPD       lo, Y12, Y12;     \
	VADDPD       (DI), Y12, Y12;   \
	VMOVUPD      Y12, (DI);        \
	VBROADCASTSD 16(R8), Y14;      \
	VMULPD       hi, Y14, Y14;     \
	VMASKMOVPD   32(DI), Y13, Y12; \
	VADDPD       Y12, Y14, Y14;    \
	VMASKMOVPD   Y14, Y13, 32(DI); \
	ADDQ         DX, DI

#define CROW_MASK_F32(lo, hi) \
	VBROADCASTSS 16(R8), Y12;      \
	VMULPS       lo, Y12, Y12;     \
	VADDPS       (DI), Y12, Y12;   \
	VMOVUPS      Y12, (DI);        \
	VBROADCASTSS 16(R8), Y14;      \
	VMULPS       hi, Y14, Y14;     \
	VMASKMOVPS   32(DI), Y13, Y12; \
	VADDPS       Y12, Y14, Y14;    \
	VMASKMOVPS   Y14, Y13, 32(DI); \
	ADDQ         DX, DI

// The first mr rows of one term's tile (tileRef at R8, mr in R11): each row
// but the sixth is followed by an exit once mr rows are done.
#define CTILE_ROWS(crow, out) \
	MOVQ (R8), DI;  \
	MOVQ 8(R8), DX; \
	MOVQ R11, AX;   \
	crow(Y0, Y1);   \
	DECQ AX;        \
	JZ   out;       \
	crow(Y2, Y3);   \
	DECQ AX;        \
	JZ   out;       \
	crow(Y4, Y5);   \
	DECQ AX;        \
	JZ   out;       \
	crow(Y6, Y7);   \
	DECQ AX;        \
	JZ   out;       \
	crow(Y8, Y9);   \
	DECQ AX;        \
	JZ   out;       \
	crow(Y10, Y11)

// func microScatterMaskF64AVX2(kc int, ap, bp *float64, refs *tileRef[float64], n, mr, nr int)
// The 6×8 rank-kc product added, weighted, into the first mr rows and nr
// columns (4 < nr ≤ 8, or nr = 8 with mr < 6) of each of the n C-term tiles
// refs describes. kc ≥ 1 and 1 ≤ n are the wrapper's.
TEXT ·microScatterMaskF64AVX2(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ refs+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ mr+40(FP), R11
	ZERO_ACC
	RANK_KC(TRIP4_F64, TRIP1_F64, mm64loop4, mm64tail, mm64loop1, mm64done)
	MOVQ    nr+48(FP), AX
	SHLQ    $3, AX
	LEAQ    maskTab<>+224(SB), DX // high half: nr−4 lanes
	SUBQ    AX, DX
	VMOVUPD (DX), Y13

mm64term:
	CTILE_ROWS(CROW_MASK_F64, mm64next)

mm64next:
	ADDQ $24, R8
	DECQ R9
	JNZ  mm64term

	VZEROUPPER
	RET

// func microScatterMaskF32AVX2(kc int, ap, bp *float32, refs *tileRef[float32], n, mr, nr int)
// The 6×16 float32 counterpart: 8 < nr ≤ 16, or nr = 16 with mr < 6.
TEXT ·microScatterMaskF32AVX2(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ refs+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ mr+40(FP), R11
	ZERO_ACC
	RANK_KC(TRIP4_F32, TRIP1_F32, mm32loop4, mm32tail, mm32loop1, mm32done)
	MOVQ    nr+48(FP), AX
	SHLQ    $2, AX
	LEAQ    maskTab<>+224(SB), DX // high half: nr−8 lanes
	SUBQ    AX, DX
	VMOVUPS (DX), Y13

mm32term:
	CTILE_ROWS(CROW_MASK_F32, mm32next)

mm32next:
	ADDQ $24, R8
	DECQ R9
	JNZ  mm32term

	VZEROUPPER
	RET

// microScatterHalf*: the half-width kernel for an n-fringe of nr ≤ NR/2
// columns. Each k-step loads only the first half of the B̃ row (the panel
// keeps its NR-wide rows) against the six broadcasts, so the tile is six
// accumulators, Y0–Y5, row i in Y(i), and half the FMAs of the full kernel;
// each is the same chain over p = 0…kc−1 from +0 as that column's
// accumulator in the full kernel. The update masks all nr lanes (Y13), with
// the coefficient in Y12 and Y6 free for the loaded C.
#define KSTEP_HALF_F64(a, b) \
	VMOVUPD      b(BX), Y12;      \
	VBROADCASTSD a(SI), Y14;      \
	VFMADD231PD  Y12, Y14, Y0;    \
	VBROADCASTSD (a+8)(SI), Y14;  \
	VFMADD231PD  Y12, Y14, Y1;    \
	VBROADCASTSD (a+16)(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y2;    \
	VBROADCASTSD (a+24)(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y3;    \
	VBROADCASTSD (a+32)(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y4;    \
	VBROADCASTSD (a+40)(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y5

#define KSTEP_HALF_F32(a, b) \
	VMOVUPS      b(BX), Y12;      \
	VBROADCASTSS a(SI), Y14;      \
	VFMADD231PS  Y12, Y14, Y0;    \
	VBROADCASTSS (a+4)(SI), Y14;  \
	VFMADD231PS  Y12, Y14, Y1;    \
	VBROADCASTSS (a+8)(SI), Y14;  \
	VFMADD231PS  Y12, Y14, Y2;    \
	VBROADCASTSS (a+12)(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y3;    \
	VBROADCASTSS (a+16)(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y4;    \
	VBROADCASTSS (a+20)(SI), Y14; \
	VFMADD231PS  Y12, Y14, Y5

#define TRIP4_HALF_F64 \
	KSTEP_HALF_F64(0, 0);     \
	KSTEP_HALF_F64(48, 64);   \
	KSTEP_HALF_F64(96, 128);  \
	KSTEP_HALF_F64(144, 192); \
	ADDQ $192, SI;            \
	ADDQ $256, BX

#define TRIP1_HALF_F64 \
	KSTEP_HALF_F64(0, 0); \
	ADDQ $48, SI;         \
	ADDQ $64, BX

#define TRIP4_HALF_F32 \
	KSTEP_HALF_F32(0, 0);    \
	KSTEP_HALF_F32(24, 64);  \
	KSTEP_HALF_F32(48, 128); \
	KSTEP_HALF_F32(72, 192); \
	ADDQ $96, SI;            \
	ADDQ $256, BX

#define TRIP1_HALF_F32 \
	KSTEP_HALF_F32(0, 0); \
	ADDQ $24, SI;         \
	ADDQ $64, BX

#define CROW_HALF_F64(acc) \
	VMULPD     acc, Y12, Y14;   \
	VMASKMOVPD (DI), Y13, Y6;   \
	VADDPD     Y6, Y14, Y14;    \
	VMASKMOVPD Y14, Y13, (DI);  \
	ADDQ       DX, DI

#define CROW_HALF_F32(acc) \
	VMULPS     acc, Y12, Y14;   \
	VMASKMOVPS (DI), Y13, Y6;   \
	VADDPS     Y6, Y14, Y14;    \
	VMASKMOVPS Y14, Y13, (DI);  \
	ADDQ       DX, DI

// The half-width tile's rows: accumulators Y0–Y5 in order.
#define CTILE_ROWS_HALF(crow, out) \
	MOVQ (R8), DI;  \
	MOVQ 8(R8), DX; \
	MOVQ R11, AX;   \
	crow(Y0);    \
	DECQ AX;        \
	JZ   out;       \
	crow(Y1);    \
	DECQ AX;        \
	JZ   out;       \
	crow(Y2);    \
	DECQ AX;        \
	JZ   out;       \
	crow(Y3);    \
	DECQ AX;        \
	JZ   out;       \
	crow(Y4);    \
	DECQ AX;        \
	JZ   out;       \
	crow(Y5)

// func microScatterHalfF64AVX2(kc int, ap, bp *float64, refs *tileRef[float64], n, mr, nr int)
// The 6×4 half-width kernel: 1 ≤ nr ≤ 4.
TEXT ·microScatterHalfF64AVX2(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ refs+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ mr+40(FP), R11
	ZERO_ACC
	RANK_KC(TRIP4_HALF_F64, TRIP1_HALF_F64, mh64loop4, mh64tail, mh64loop1, mh64done)
	MOVQ    nr+48(FP), AX
	SHLQ    $3, AX
	LEAQ    maskTab<>+192(SB), DX // nr lanes
	SUBQ    AX, DX
	VMOVUPD (DX), Y13

mh64term:
	VBROADCASTSD 16(R8), Y12
	CTILE_ROWS_HALF(CROW_HALF_F64, mh64next)

mh64next:
	ADDQ $24, R8
	DECQ R9
	JNZ  mh64term

	VZEROUPPER
	RET

// func microScatterHalfF32AVX2(kc int, ap, bp *float32, refs *tileRef[float32], n, mr, nr int)
// The 6×8 float32 half-width kernel: 1 ≤ nr ≤ 8.
TEXT ·microScatterHalfF32AVX2(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ refs+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ mr+40(FP), R11
	ZERO_ACC
	RANK_KC(TRIP4_HALF_F32, TRIP1_HALF_F32, mh32loop4, mh32tail, mh32loop1, mh32done)
	MOVQ    nr+48(FP), AX
	SHLQ    $2, AX
	LEAQ    maskTab<>+192(SB), DX // nr lanes
	SUBQ    AX, DX
	VMOVUPS (DX), Y13

mh32term:
	VBROADCASTSS 16(R8), Y12
	CTILE_ROWS_HALF(CROW_HALF_F32, mh32next)

mh32next:
	ADDQ $24, R8
	DECQ R9
	JNZ  mh32term

	VZEROUPPER
	RET

// Fringe B̃ panels: a panel of cols < NR source columns. Each row is read
// through the lane masks Y10/Y11 (its first cols lanes) and stored as a whole
// NR-wide panel row, so the columns past cols come out +0 — in the modes that
// multiply, the product is masked again, so that no coefficient (an infinite
// one times +0) can turn them into anything else.

// func packBFringeF64AVX2(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)
// One term of a B̃ panel of rows (kc) rows and 1 ≤ cols < 8 columns.
TEXT ·packBFringeF64AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSD coef+24(FP), Y12
	MOVQ         rows+32(FP), CX
	MOVQ         cols+40(FP), AX
	SHLQ         $3, AX
	LEAQ         maskTab<>+192(SB), BX
	SUBQ         AX, BX
	VMOVUPD      (BX), Y10
	VMOVUPD      32(BX), Y11
	MOVQ         mode+48(FP), AX
	CMPQ         AX, $1
	JEQ          pbf64set
	JA           pbf64add

pbf64copy:
	VMASKMOVPD (SI), Y10, Y0
	VMASKMOVPD 32(SI), Y11, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       DX, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        pbf64copy
	VZEROUPPER
	RET

pbf64set:
	VXORPD Y13, Y13, Y13

pbf64setrow:
	VMASKMOVPD (SI), Y10, Y0
	VMASKMOVPD 32(SI), Y11, Y1
	VMULPD     Y0, Y12, Y0
	VMULPD     Y1, Y12, Y1
	VANDPD     Y10, Y0, Y0
	VANDPD     Y11, Y1, Y1
	VADDPD     Y13, Y0, Y0
	VADDPD     Y13, Y1, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       DX, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        pbf64setrow
	VZEROUPPER
	RET

pbf64add:
	VMASKMOVPD (SI), Y10, Y0
	VMASKMOVPD 32(SI), Y11, Y1
	VMULPD     Y0, Y12, Y0
	VMULPD     Y1, Y12, Y1
	VANDPD     Y10, Y0, Y0
	VANDPD     Y11, Y1, Y1
	VADDPD     (DI), Y0, Y0
	VADDPD     32(DI), Y1, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       DX, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        pbf64add
	VZEROUPPER
	RET

// func packBFringeF32AVX2(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)
// One term of a float32 B̃ panel of rows (kc) rows and 1 ≤ cols < 16 columns.
TEXT ·packBFringeF32AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSS coef+24(FP), Y12
	MOVQ         rows+32(FP), CX
	MOVQ         cols+40(FP), AX
	SHLQ         $2, AX
	LEAQ         maskTab<>+192(SB), BX
	SUBQ         AX, BX
	VMOVUPS      (BX), Y10
	VMOVUPS      32(BX), Y11
	MOVQ         mode+48(FP), AX
	CMPQ         AX, $1
	JEQ          pbf32set
	JA           pbf32add

pbf32copy:
	VMASKMOVPS (SI), Y10, Y0
	VMASKMOVPS 32(SI), Y11, Y1
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y1, 32(DI)
	ADDQ       DX, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        pbf32copy
	VZEROUPPER
	RET

pbf32set:
	VXORPS Y13, Y13, Y13

pbf32setrow:
	VMASKMOVPS (SI), Y10, Y0
	VMASKMOVPS 32(SI), Y11, Y1
	VMULPS     Y0, Y12, Y0
	VMULPS     Y1, Y12, Y1
	VANDPS     Y10, Y0, Y0
	VANDPS     Y11, Y1, Y1
	VADDPS     Y13, Y0, Y0
	VADDPS     Y13, Y1, Y1
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y1, 32(DI)
	ADDQ       DX, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        pbf32setrow
	VZEROUPPER
	RET

pbf32add:
	VMASKMOVPS (SI), Y10, Y0
	VMASKMOVPS 32(SI), Y11, Y1
	VMULPS     Y0, Y12, Y0
	VMULPS     Y1, Y12, Y1
	VANDPS     Y10, Y0, Y0
	VANDPS     Y11, Y1, Y1
	VADDPS     (DI), Y0, Y0
	VADDPS     32(DI), Y1, Y1
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y1, 32(DI)
	ADDQ       DX, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        pbf32add
	VZEROUPPER
	RET

// Fringe Ã panels: a panel of 1 ≤ rows ≤ 6 source rows — the partial panel
// at the bottom of a block — or a k-tail, or both. Rows: row i is read
// through its own pointer, SI and R9–R13, clamped to the last real row
// (ROWPTR), and what it yields is ANDed with its row mask at 32·i(R8) — ones
// for a real row, zeros past it — so the padding rows come out +0 in every
// mode (after the product, as on B̃). Columns: ⌊cols/kStep⌋ whole transpose
// steps, then one over the t = cols mod kStep tail columns, whose loads take
// their first t lanes (mask Y14) and whose six output vectors — the panel's
// last 6·t elements and what would lie past them — are loaded and stored
// through the lane masks at 32·j(BX). Setup, for both dtypes: AX holds t,
// CX the whole steps.

// Row i's pointer: SI + min(i, AX)·DX, AX the last real row. Clobbers BX.
#define ROWPTR(i, r) \
	MOVQ    $i, BX;    \
	CMPQ    BX, AX;    \
	CMOVQGT AX, BX;    \
	IMULQ   DX, BX;    \
	LEAQ    (SI)(BX*1), r

// The row pointers and the row masks for rows (in AX) real rows.
#define AFRINGE_ROWS \
	DECQ AX;                     \
	ROWPTR(1, R9);               \
	ROWPTR(2, R10);              \
	ROWPTR(3, R11);              \
	ROWPTR(4, R12);              \
	ROWPTR(5, R13);              \
	SHLQ $5, AX;                 \
	LEAQ maskTab<>+160(SB), R8;  \
	SUBQ AX, R8

// Bitwise, so for either dtype: clear the rows past the real ones.
#define ANDROWS_A \
	VANDPS 0(R8), Y0, Y0;   \
	VANDPS 32(R8), Y1, Y1;  \
	VANDPS 64(R8), Y2, Y2;  \
	VANDPS 96(R8), Y3, Y3;  \
	VANDPS 128(R8), Y4, Y4; \
	VANDPS 160(R8), Y5, Y5

#define ADVANCE_A \
	ADDQ $32, SI;  \
	ADDQ $32, R9;  \
	ADDQ $32, R10; \
	ADDQ $32, R11; \
	ADDQ $32, R12; \
	ADDQ $32, R13; \
	ADDQ $192, DI

// The rows through the pointers: plain, multiplied by Y12, and masked to the
// tail's lanes (Y14).
#define ROWS_A(op) \
	op (SI), Y0;  \
	op (R9), Y1;  \
	op (R10), Y2; \
	op (R11), Y3; \
	op (R12), Y4; \
	op (R13), Y5

#define MULROWS_A(mul) \
	mul (SI), Y12, Y0;  \
	mul (R9), Y12, Y1;  \
	mul (R10), Y12, Y2; \
	mul (R11), Y12, Y3; \
	mul (R12), Y12, Y4; \
	mul (R13), Y12, Y5

#define MASKROWS_A(maskmov) \
	maskmov (SI), Y14, Y0;  \
	maskmov (R9), Y14, Y1;  \
	maskmov (R10), Y14, Y2; \
	maskmov (R11), Y14, Y3; \
	maskmov (R12), Y14, Y4; \
	maskmov (R13), Y14, Y5

#define MULREG_A(mul) \
	mul Y0, Y12, Y0; \
	mul Y1, Y12, Y1; \
	mul Y2, Y12, Y2; \
	mul Y3, Y12, Y3; \
	mul Y4, Y12, Y4; \
	mul Y5, Y12, Y5

// The tail's six output vectors y0…y5, 32 bytes each from DI, through their
// lane masks; MADDSTORE6_A adds the panel's current values first (loaded
// through the same masks into tmp).
#define MSTORE_A(maskmov, off, y) \
	VMOVUPS off(BX), Y14; \
	maskmov y, Y14, off(DI)

#define MSTORE6_A(maskmov, y0, y1, y2, y3, y4, y5) \
	MSTORE_A(maskmov, 0, y0);   \
	MSTORE_A(maskmov, 32, y1);  \
	MSTORE_A(maskmov, 64, y2);  \
	MSTORE_A(maskmov, 96, y3);  \
	MSTORE_A(maskmov, 128, y4); \
	MSTORE_A(maskmov, 160, y5)

#define MADDSTORE_A(maskmov, add, tmp, off, y) \
	VMOVUPS off(BX), Y14;      \
	maskmov off(DI), Y14, tmp; \
	add     tmp, y, y;         \
	maskmov y, Y14, off(DI)

#define MADDSTORE6_A(maskmov, add, tmp, y0, y1, y2, y3, y4, y5) \
	MADDSTORE_A(maskmov, add, tmp, 0, y0);   \
	MADDSTORE_A(maskmov, add, tmp, 32, y1);  \
	MADDSTORE_A(maskmov, add, tmp, 64, y2);  \
	MADDSTORE_A(maskmov, add, tmp, 96, y3);  \
	MADDSTORE_A(maskmov, add, tmp, 128, y4); \
	MADDSTORE_A(maskmov, add, tmp, 160, y5)

#define STORER_A_F64 \
	VMOVUPD Y0, 0(DI);   \
	VMOVUPD Y4, 32(DI);  \
	VMOVUPD Y5, 64(DI);  \
	VMOVUPD Y2, 96(DI);  \
	VMOVUPD Y6, 128(DI); \
	VMOVUPD Y7, 160(DI); \
	ADVANCE_A

// func packAFringeF64AVX2(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)
// One term of an Ã row-panel of rows source rows (1…6) and cols k-columns.
TEXT ·packAFringeF64AVX2(SB), NOSPLIT, $0-56
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSD coef+24(FP), Y12
	MOVQ         rows+32(FP), AX
	AFRINGE_ROWS
	MOVQ         cols+40(FP), CX
	MOVQ         CX, AX
	ANDQ         $3, AX // t
	SHRQ         $2, CX
	MOVQ         AX, BX
	SHLQ         $3, BX
	LEAQ         maskTab<>+192(SB), DI
	SUBQ         BX, DI
	VMOVUPD      (DI), Y14 // t lanes
	IMUL3Q       $48, AX, DI
	LEAQ         maskTab<>+192(SB), BX
	SUBQ         DI, BX // 6·t lanes from output vector 0 on
	MOVQ         dst+0(FP), DI
	CMPQ         mode+48(FP), $1
	JEQ          paf64set
	JA           paf64add

	TESTQ CX, CX
	JZ    paf64copytail

paf64copystep:
	ROWS_A(VMOVUPD)
	ANDROWS_A
	TRANSPOSE_A_F64
	STORER_A_F64
	DECQ CX
	JNZ  paf64copystep

paf64copytail:
	TESTQ AX, AX
	JZ    paf64done
	MASKROWS_A(VMASKMOVPD)
	ANDROWS_A
	TRANSPOSE_A_F64
	MSTORE6_A(VMASKMOVPD, Y0, Y4, Y5, Y2, Y6, Y7)

paf64done:
	VZEROUPPER
	RET

paf64set:
	VXORPD Y13, Y13, Y13
	TESTQ  CX, CX
	JZ     paf64settail

paf64setstep:
	MULROWS_A(VMULPD)
	ANDROWS_A
	TRANSPOSE_A_F64
	ADD_A_F64(Y13, Y13, Y13, Y13, Y13, Y13)
	STORER_A_F64
	DECQ CX
	JNZ  paf64setstep

paf64settail:
	TESTQ AX, AX
	JZ    paf64done
	MASKROWS_A(VMASKMOVPD)
	MULREG_A(VMULPD)
	ANDROWS_A
	TRANSPOSE_A_F64
	ADD_A_F64(Y13, Y13, Y13, Y13, Y13, Y13)
	MSTORE6_A(VMASKMOVPD, Y0, Y4, Y5, Y2, Y6, Y7)
	JMP paf64done

paf64add:
	TESTQ CX, CX
	JZ    paf64addtail

paf64addstep:
	MULROWS_A(VMULPD)
	ANDROWS_A
	TRANSPOSE_A_F64
	ADD_A_F64(0(DI), 32(DI), 64(DI), 96(DI), 128(DI), 160(DI))
	STORER_A_F64
	DECQ CX
	JNZ  paf64addstep

paf64addtail:
	TESTQ AX, AX
	JZ    paf64done
	MASKROWS_A(VMASKMOVPD)
	MULREG_A(VMULPD)
	ANDROWS_A
	TRANSPOSE_A_F64
	MADDSTORE6_A(VMASKMOVPD, VADDPD, Y8, Y0, Y4, Y5, Y2, Y6, Y7)
	JMP paf64done

#define STORER_A_F32 \
	STOREPAIR_A_F32(0, X0, Y0);  \
	STOREPAIR_A_F32(16, X4, Y4); \
	STOREPAIR_A_F32(32, X5, Y5); \
	STOREPAIR_A_F32(48, X2, Y2); \
	STOREPAIR_A_F32(64, X6, Y6); \
	STOREPAIR_A_F32(80, X7, Y7); \
	ADVANCE_A

// The float32 tail step's outputs in panel order, one 32-byte vector each:
// Y8 = (Y0 Y4 low lanes), Y9 = (Y5 Y2), Y10 = (Y6 Y7), then the high lanes
// in Y11, Y1, Y3 (see TRANSPOSE_A_F32 for where each lane belongs).
#define LINEAR_A_F32 \
	VPERM2F128 $0x20, Y4, Y0, Y8;  \
	VPERM2F128 $0x20, Y2, Y5, Y9;  \
	VPERM2F128 $0x20, Y7, Y6, Y10; \
	VPERM2F128 $0x31, Y4, Y0, Y11; \
	VPERM2F128 $0x31, Y2, Y5, Y1;  \
	VPERM2F128 $0x31, Y7, Y6, Y3

#define ADDZ_A_F32(y0, y1, y2, y3, y4, y5) \
	VADDPS Y13, y0, y0; \
	VADDPS Y13, y1, y1; \
	VADDPS Y13, y2, y2; \
	VADDPS Y13, y3, y3; \
	VADDPS Y13, y4, y4; \
	VADDPS Y13, y5, y5

// func packAFringeF32AVX2(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)
// One term of a float32 Ã row-panel of rows source rows (1…6) and cols
// k-columns.
TEXT ·packAFringeF32AVX2(SB), NOSPLIT, $0-56
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSS coef+24(FP), Y12
	MOVQ         rows+32(FP), AX
	AFRINGE_ROWS
	MOVQ         cols+40(FP), CX
	MOVQ         CX, AX
	ANDQ         $7, AX // t
	SHRQ         $3, CX
	MOVQ         AX, BX
	SHLQ         $2, BX
	LEAQ         maskTab<>+192(SB), DI
	SUBQ         BX, DI
	VMOVUPS      (DI), Y14 // t lanes
	IMUL3Q       $24, AX, DI
	LEAQ         maskTab<>+192(SB), BX
	SUBQ         DI, BX // 6·t lanes from output vector 0 on
	MOVQ         dst+0(FP), DI
	CMPQ         mode+48(FP), $1
	JEQ          paf32set
	JA           paf32add

	TESTQ CX, CX
	JZ    paf32copytail

paf32copystep:
	ROWS_A(VMOVUPS)
	ANDROWS_A
	TRANSPOSE_A_F32
	STORER_A_F32
	DECQ CX
	JNZ  paf32copystep

paf32copytail:
	TESTQ AX, AX
	JZ    paf32done
	MASKROWS_A(VMASKMOVPS)
	ANDROWS_A
	TRANSPOSE_A_F32
	LINEAR_A_F32
	MSTORE6_A(VMASKMOVPS, Y8, Y9, Y10, Y11, Y1, Y3)

paf32done:
	VZEROUPPER
	RET

paf32set:
	VXORPS Y13, Y13, Y13
	TESTQ  CX, CX
	JZ     paf32settail

paf32setstep:
	MULROWS_A(VMULPS)
	ANDROWS_A
	TRANSPOSE_A_F32
	ADDZ_A_F32(Y0, Y4, Y5, Y2, Y6, Y7)
	STORER_A_F32
	DECQ CX
	JNZ  paf32setstep

paf32settail:
	TESTQ AX, AX
	JZ    paf32done
	MASKROWS_A(VMASKMOVPS)
	MULREG_A(VMULPS)
	ANDROWS_A
	TRANSPOSE_A_F32
	LINEAR_A_F32
	ADDZ_A_F32(Y8, Y9, Y10, Y11, Y1, Y3)
	MSTORE6_A(VMASKMOVPS, Y8, Y9, Y10, Y11, Y1, Y3)
	JMP paf32done

paf32add:
	TESTQ CX, CX
	JZ    paf32addtail

paf32addstep:
	MULROWS_A(VMULPS)
	ANDROWS_A
	TRANSPOSE_A_F32
	ADDMEM_A_F32(0, Y0)
	ADDMEM_A_F32(16, Y4)
	ADDMEM_A_F32(32, Y5)
	ADDMEM_A_F32(48, Y2)
	ADDMEM_A_F32(64, Y6)
	ADDMEM_A_F32(80, Y7)
	STORER_A_F32
	DECQ CX
	JNZ  paf32addstep

paf32addtail:
	TESTQ AX, AX
	JZ    paf32done
	MASKROWS_A(VMASKMOVPS)
	MULREG_A(VMULPS)
	ANDROWS_A
	TRANSPOSE_A_F32
	LINEAR_A_F32
	MADDSTORE6_A(VMASKMOVPS, VADDPS, Y0, Y8, Y9, Y10, Y11, Y1, Y3)
	JMP paf32done
