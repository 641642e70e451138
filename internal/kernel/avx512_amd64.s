//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 micro-kernels, fused C update and B̃ packers for the avx512
// backend: avx2_amd64.s at twice the vector width. Everything that file says
// about orientation, bit rules and the C-term prefetch schedule holds here;
// only the widths differ.
//
// The micro-tile is MR×NR = 6×16 (float64) and 6×32 (float32): six rows, and
// one 128-byte row of C — two zmm — across. Per k-step the kernel loads one
// B̃ row as two zmm and broadcasts the six Ã values, retiring 12 FMA
// instructions — 192 (f64) / 384 (f32) flops — against 8 loads.
//
// Register plan (both dtypes): Z0–Z11 hold the 6×2 accumulator grid (row i,
// half h in Z(2i+h)), Z12/Z13 the two halves of the current B̃ row, Z14 the
// current Ã broadcast; after the rank-kc loop Z12 carries the C-term
// coefficient and Z13/Z14 the row being updated. Z15 is never touched (X15 is
// the Go internal ABI's zero register), nor are Z16–Z31 or the opmask
// registers. Every routine ends in VZEROUPPER: the Go code around it is
// SSE-encoded.
//
// The only instructions used are AVX-512F ones (zeroing is VPXORQ, not the
// DQ-only VXORPD on zmm), so the probe requires AVX-512F and no other
// AVX-512 subset (the Ã packer it shares with avx2 needs AVX2).
//
// A tile row here is 128 bytes, both halves of a line pair when C's rows are
// 128-byte aligned, so the prefetch touches its first, middle and last byte
// (three lines when the row straddles). The schedule is avx2's — one term's
// six rows per segment of the loop, fusedSegTrips long. Measured on the
// AVX-512 host it was sized on (BenchmarkMicroScatterTerms, medians of three
// runs): the wide row pays no same-half stall — a second term costs alike at
// every row stride, 128-byte multiple or not — but it still wants the
// stagger: staggered, a second term cost +5–14 % of the call; requested with
// the first, before the loop, +18–24 %.

#define ZERO_ACC \
	VPXORQ Z0, Z0, Z0;    \
	VPXORQ Z1, Z1, Z1;    \
	VPXORQ Z2, Z2, Z2;    \
	VPXORQ Z3, Z3, Z3;    \
	VPXORQ Z4, Z4, Z4;    \
	VPXORQ Z5, Z5, Z5;    \
	VPXORQ Z6, Z6, Z6;    \
	VPXORQ Z7, Z7, Z7;    \
	VPXORQ Z8, Z8, Z8;    \
	VPXORQ Z9, Z9, Z9;    \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11

// One float64 k-step: Ã column at byte offset a of SI (6 doubles), B̃ row at
// byte offset b of BX (16 doubles).
#define KSTEP_F64(a, b) \
	VMOVUPD      b(BX), Z12;      \
	VMOVUPD      (b+64)(BX), Z13; \
	VBROADCASTSD a(SI), Z14;      \
	VFMADD231PD  Z12, Z14, Z0;    \
	VFMADD231PD  Z13, Z14, Z1;    \
	VBROADCASTSD (a+8)(SI), Z14;  \
	VFMADD231PD  Z12, Z14, Z2;    \
	VFMADD231PD  Z13, Z14, Z3;    \
	VBROADCASTSD (a+16)(SI), Z14; \
	VFMADD231PD  Z12, Z14, Z4;    \
	VFMADD231PD  Z13, Z14, Z5;    \
	VBROADCASTSD (a+24)(SI), Z14; \
	VFMADD231PD  Z12, Z14, Z6;    \
	VFMADD231PD  Z13, Z14, Z7;    \
	VBROADCASTSD (a+32)(SI), Z14; \
	VFMADD231PD  Z12, Z14, Z8;    \
	VFMADD231PD  Z13, Z14, Z9;    \
	VBROADCASTSD (a+40)(SI), Z14; \
	VFMADD231PD  Z12, Z14, Z10;   \
	VFMADD231PD  Z13, Z14, Z11

// One float32 k-step: Ã column of 6 singles at a(SI), B̃ row of 32 at b(BX).
#define KSTEP_F32(a, b) \
	VMOVUPS      b(BX), Z12;      \
	VMOVUPS      (b+64)(BX), Z13; \
	VBROADCASTSS a(SI), Z14;      \
	VFMADD231PS  Z12, Z14, Z0;    \
	VFMADD231PS  Z13, Z14, Z1;    \
	VBROADCASTSS (a+4)(SI), Z14;  \
	VFMADD231PS  Z12, Z14, Z2;    \
	VFMADD231PS  Z13, Z14, Z3;    \
	VBROADCASTSS (a+8)(SI), Z14;  \
	VFMADD231PS  Z12, Z14, Z4;    \
	VFMADD231PS  Z13, Z14, Z5;    \
	VBROADCASTSS (a+12)(SI), Z14; \
	VFMADD231PS  Z12, Z14, Z6;    \
	VFMADD231PS  Z13, Z14, Z7;    \
	VBROADCASTSS (a+16)(SI), Z14; \
	VFMADD231PS  Z12, Z14, Z8;    \
	VFMADD231PS  Z13, Z14, Z9;    \
	VBROADCASTSS (a+20)(SI), Z14; \
	VFMADD231PS  Z12, Z14, Z10;   \
	VFMADD231PS  Z13, Z14, Z11

// Four k-steps and one k-step of either dtype, with the panel pointers moved
// past them.
#define TRIP4_F64 \
	KSTEP_F64(0, 0);     \
	KSTEP_F64(48, 128);  \
	KSTEP_F64(96, 256);  \
	KSTEP_F64(144, 384); \
	ADDQ $192, SI;       \
	ADDQ $512, BX

#define TRIP1_F64 \
	KSTEP_F64(0, 0); \
	ADDQ $48, SI;    \
	ADDQ $128, BX

#define TRIP4_F32 \
	KSTEP_F32(0, 0);    \
	KSTEP_F32(24, 128); \
	KSTEP_F32(48, 256); \
	KSTEP_F32(72, 384); \
	ADDQ $96, SI;       \
	ADDQ $512, BX

#define TRIP1_F32 \
	KSTEP_F32(0, 0); \
	ADDQ $24, SI;    \
	ADDQ $128, BX

// Store the accumulator grid to acc (DI), row-major MR×NR: 128 bytes a row
// in either dtype.
#define STORE_ACC \
	VMOVUPD Z0, 0(DI);    \
	VMOVUPD Z1, 64(DI);   \
	VMOVUPD Z2, 128(DI);  \
	VMOVUPD Z3, 192(DI);  \
	VMOVUPD Z4, 256(DI);  \
	VMOVUPD Z5, 320(DI);  \
	VMOVUPD Z6, 384(DI);  \
	VMOVUPD Z7, 448(DI);  \
	VMOVUPD Z8, 512(DI);  \
	VMOVUPD Z9, 576(DI);  \
	VMOVUPD Z10, 640(DI); \
	VMOVUPD Z11, 704(DI)

// Prefetch one 128-byte tile row at DI: its first, middle and last byte.
#define PREFETCH_C_ROW \
	PREFETCHT0 (DI);   \
	PREFETCHT0 64(DI); \
	PREFETCHT0 127(DI)

// Prefetch the six rows of one C-term tile: its tileRef at R10, which moves on
// to the next term. Clobbers DI, DX.
#define PREFETCH_C_TERM \
	MOVQ (R10), DI;  \
	MOVQ 8(R10), DX; \
	PREFETCH_C_ROW;  \
	ADDQ DX, DI;     \
	PREFETCH_C_ROW;  \
	ADDQ DX, DI;     \
	PREFETCH_C_ROW;  \
	ADDQ DX, DI;     \
	PREFETCH_C_ROW;  \
	ADDQ DX, DI;     \
	PREFETCH_C_ROW;  \
	ADDQ DX, DI;     \
	PREFETCH_C_ROW;  \
	ADDQ $24, R10

// RANK_KC and RANK_KC_PREFETCH_C: avx2's rank-kc loops and segment schedule,
// with the trips above and this file's PREFETCH_C_TERM.
#include "rankkc_amd64.h"

// One row of one C term from registers: C[i][:] += w·acc[i][:] with w
// broadcast in Z12, the row at DI, the row stride in DX.
#define CROW_F64(lo, hi) \
	VMULPD  lo, Z12, Z13;     \
	VMULPD  hi, Z12, Z14;     \
	VADDPD  (DI), Z13, Z13;   \
	VADDPD  64(DI), Z14, Z14; \
	VMOVUPD Z13, (DI);        \
	VMOVUPD Z14, 64(DI);      \
	ADDQ    DX, DI

#define CROW_F32(lo, hi) \
	VMULPS  lo, Z12, Z13;     \
	VMULPS  hi, Z12, Z14;     \
	VADDPS  (DI), Z13, Z13;   \
	VADDPS  64(DI), Z14, Z14; \
	VMOVUPS Z13, (DI);        \
	VMOVUPS Z14, 64(DI);      \
	ADDQ    DX, DI

// func microF64AVX512(kc int, ap, bp, acc *float64)
// acc[i*16+j] = Σ_p ap[p*6+i] · bp[p*16+j]; overwrites acc (kc==0 handled by
// the Go wrapper).
TEXT ·microF64AVX512(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ acc+24(FP), DI
	ZERO_ACC
	RANK_KC(TRIP4_F64, TRIP1_F64, m64loop4, m64tail, m64loop1, m64done)
	STORE_ACC
	VZEROUPPER
	RET

// func microF32AVX512(kc int, ap, bp, acc *float32)
// acc[i*32+j] = Σ_p ap[p*6+i] · bp[p*32+j]; overwrites acc.
TEXT ·microF32AVX512(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ acc+24(FP), DI
	ZERO_ACC
	RANK_KC(TRIP4_F32, TRIP1_F32, m32loop4, m32tail, m32loop1, m32done)
	STORE_ACC
	VZEROUPPER
	RET

// func microScatterF64AVX512(kc int, ap, bp *float64, refs *tileRef[float64], n, seg int)
// The fused 6×16 micro-kernel: the rank-kc product stays in Z0–Z11 and is
// added, weighted, into each of the n C-term tiles refs describes, whose rows
// are prefetched one term per segment of the loop. kc ≥ 1, 1 ≤ n and
// seg = fusedSegTrips(kc, n) are the wrapper's.
TEXT ·microScatterF64AVX512(SB), NOSPLIT, $0-48
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
	VBROADCASTSD 16(R8), Z12
	CROW_F64(Z0, Z1)
	CROW_F64(Z2, Z3)
	CROW_F64(Z4, Z5)
	CROW_F64(Z6, Z7)
	CROW_F64(Z8, Z9)
	CROW_F64(Z10, Z11)
	ADDQ         $24, R8
	DECQ         R9
	JNZ          ms64term

	VZEROUPPER
	RET

// func microScatterF32AVX512(kc int, ap, bp *float32, refs *tileRef[float32], n, seg int)
// The 6×32 float32 counterpart of microScatterF64AVX512.
TEXT ·microScatterF32AVX512(SB), NOSPLIT, $0-48
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
	VBROADCASTSS 16(R8), Z12
	CROW_F32(Z0, Z1)
	CROW_F32(Z2, Z3)
	CROW_F32(Z4, Z5)
	CROW_F32(Z6, Z7)
	CROW_F32(Z8, Z9)
	CROW_F32(Z10, Z11)
	ADDQ         $24, R8
	DECQ         R9
	JNZ          ms32term

	VZEROUPPER
	RET

// The B̃ term packers, in the modes of avx2_amd64.s (packCopy dst = src,
// packSet dst = +0 + coef·src, packAdd dst += coef·src): one term of one
// full column-panel, rows (kc) rows of 128 bytes — two zmm — from src,
// stride bytes apart, into the dense panel at dst; cols is NR.

// func packBTermF64AVX512(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)
TEXT ·packBTermF64AVX512(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSD coef+24(FP), Z12
	MOVQ         rows+32(FP), CX
	MOVQ         mode+48(FP), AX
	CMPQ         AX, $1
	JEQ          pb64set
	JA           pb64add

pb64copy:
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    DX, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     pb64copy
	VZEROUPPER
	RET

pb64set:
	VPXORQ Z13, Z13, Z13

pb64setrow:
	VMULPD  (SI), Z12, Z0
	VMULPD  64(SI), Z12, Z1
	VADDPD  Z13, Z0, Z0
	VADDPD  Z13, Z1, Z1
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    DX, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     pb64setrow
	VZEROUPPER
	RET

pb64add:
	VMULPD  (SI), Z12, Z0
	VMULPD  64(SI), Z12, Z1
	VADDPD  (DI), Z0, Z0
	VADDPD  64(DI), Z1, Z1
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    DX, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     pb64add
	VZEROUPPER
	RET

// func packBTermF32AVX512(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)
// The float32 B̃ panel row is 32 singles — the same 128 bytes.
TEXT ·packBTermF32AVX512(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         stride+16(FP), DX
	VBROADCASTSS coef+24(FP), Z12
	MOVQ         rows+32(FP), CX
	MOVQ         mode+48(FP), AX
	CMPQ         AX, $1
	JEQ          pb32set
	JA           pb32add

pb32copy:
	VMOVUPS (SI), Z0
	VMOVUPS 64(SI), Z1
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    DX, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     pb32copy
	VZEROUPPER
	RET

pb32set:
	VPXORD Z13, Z13, Z13

pb32setrow:
	VMULPS  (SI), Z12, Z0
	VMULPS  64(SI), Z12, Z1
	VADDPS  Z13, Z0, Z0
	VADDPS  Z13, Z1, Z1
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    DX, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     pb32setrow
	VZEROUPPER
	RET

pb32add:
	VMULPS  (SI), Z12, Z0
	VMULPS  64(SI), Z12, Z1
	VADDPS  (DI), Z0, Z0
	VADDPS  64(DI), Z1, Z1
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    DX, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     pb32add
	VZEROUPPER
	RET
