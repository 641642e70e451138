//go:build amd64 && !purego

package kernel

import "fmmfam/internal/matrix"

// The avx2 backend: hand-written AVX2/FMA assembly micro-kernels
// (avx2_amd64.s) behind the same Backend seam the pure-Go kernel uses. The
// register blocking follows the paper's Haswell numbers — MR×NR = 8×6 for
// float64, and 16×6 for float32 (twice the SIMD lanes per 256-bit register,
// so twice the rows per broadcast of B). Packing reuses the canonical
// generic packers — the layouts are identical to go4x4's, only the panel
// sizes differ — while Micro and the full-tile Scatter run in
// assembly; fringe scatters take the generic Go path.
//
// Registration is gated at init on the CPUID probe (cpufeat_amd64.go): on an
// amd64 host without AVX2+FMA (or with OS-disabled YMM state) the backend
// marks itself unavailable with the reason instead of registering, so
// Config.Kernel="avx2" fails validation with a clear error and dispatch
// falls back to the pure-Go backend.
const (
	mrAVX2F64 = 8
	mrAVX2F32 = 16
	nrAVX2    = 6

	// alignAVX2Bytes is the packed-buffer alignment the kernels are tuned
	// for: one full 256-bit vector. Align() converts to elements per dtype.
	alignAVX2Bytes = 32
)

func init() {
	if !hostAVX2 {
		unavailable[AVX2Backend] = "host CPU lacks AVX2+FMA (or the OS does not enable YMM state); the pure-Go backend remains available"
		return
	}
	register[float64](avx2F64{})
	register[float32](avx2F32{})
}

// Assembly entry points (avx2_amd64.s). The wrappers below establish every
// bounds invariant before the call: the assembly trusts its pointers.

func microF64AVX2(kc int, ap, bp, acc *float64)
func microF32AVX2(kc int, ap, bp, acc *float32)
func scatterF64AVX2(dst *float64, stride int, coef float64, acc *float64)
func scatterF32AVX2(dst *float32, stride int, coef float32, acc *float32)

// avx2F64 is the float64 half of the avx2 backend: 8×6 doubles per
// micro-tile, 12 ymm accumulators.
type avx2F64 struct{}

func (avx2F64) Name() string { return AVX2Backend }
func (avx2F64) MR() int      { return mrAVX2F64 }
func (avx2F64) NR() int      { return nrAVX2 }
func (avx2F64) Align() int   { return alignAVX2Bytes / 8 }

func (avx2F64) PackA(dst []float64, terms []Term[float64], r0, c0, mc, kc int) int {
	return packAGeneric(mrAVX2F64, dst, terms, r0, c0, mc, kc)
}

func (avx2F64) PackB(dst []float64, terms []Term[float64], r0, c0, kc, nc int) int {
	return packBGeneric(nrAVX2, dst, terms, r0, c0, kc, nc)
}

func (avx2F64) PackBRange(dst []float64, terms []Term[float64], r0, c0, kc, nc, panelLo, panelHi int) {
	packBRangeGeneric(nrAVX2, dst, terms, r0, c0, kc, nc, panelLo, panelHi)
}

// Micro dispatches the 8×6 rank-kc FMA kernel. The reslicings are the bounds
// proof for the assembly: they panic exactly where the pure-Go kernel would
// on short panels, and after them the assembly can touch only in-range
// memory. kc==0 must still overwrite acc (the conformance contract), which
// the zero loop handles without calling into assembly on empty panels.
//
//fmm:hotpath
func (avx2F64) Micro(kc int, ap, bp, acc []float64) {
	acc = acc[: mrAVX2F64*nrAVX2 : mrAVX2F64*nrAVX2]
	if kc <= 0 {
		for i := range acc {
			acc[i] = 0
		}
		return
	}
	ap = ap[: kc*mrAVX2F64 : kc*mrAVX2F64]
	bp = bp[: kc*nrAVX2 : kc*nrAVX2]
	microF64AVX2(kc, &ap[0], &bp[0], &acc[0])
}

// Scatter adds coef·acc into C: full 8×6 tiles ride the vectorized assembly
// path, fringe tiles (mr < MR or nr < NR) fall back to the generic scalar
// scatter — same arithmetic, no masked tail logic to get wrong. The indexing
// of the tile's first and last elements is the bounds proof for the strided
// assembly stores.
//
//fmm:hotpath
func (avx2F64) Scatter(m matrix.Mat[float64], r0, c0 int, coef float64, acc []float64, mr, nr int) {
	if mr == mrAVX2F64 && nr == nrAVX2 {
		acc = acc[: mrAVX2F64*nrAVX2 : mrAVX2F64*nrAVX2]
		_ = m.Data[(r0+mrAVX2F64-1)*m.Stride+c0+nrAVX2-1]
		scatterF64AVX2(&m.Data[r0*m.Stride+c0], m.Stride, coef, &acc[0])
		return
	}
	scatterGeneric(nrAVX2, m, r0, c0, coef, acc, mr, nr)
}

func (avx2F64) PackABufLen(mc, kc int) int { return packABufLen(mrAVX2F64, mc, kc) }
func (avx2F64) PackBBufLen(kc, nc int) int { return packBBufLen(nrAVX2, kc, nc) }

// avx2F32 is the float32 half: 16×6 singles per micro-tile — the same 12
// accumulator registers as the float64 kernel, each carrying 8 lanes.
type avx2F32 struct{}

func (avx2F32) Name() string { return AVX2Backend }
func (avx2F32) MR() int      { return mrAVX2F32 }
func (avx2F32) NR() int      { return nrAVX2 }
func (avx2F32) Align() int   { return alignAVX2Bytes / 4 }

func (avx2F32) PackA(dst []float32, terms []Term[float32], r0, c0, mc, kc int) int {
	return packAGeneric(mrAVX2F32, dst, terms, r0, c0, mc, kc)
}

func (avx2F32) PackB(dst []float32, terms []Term[float32], r0, c0, kc, nc int) int {
	return packBGeneric(nrAVX2, dst, terms, r0, c0, kc, nc)
}

func (avx2F32) PackBRange(dst []float32, terms []Term[float32], r0, c0, kc, nc, panelLo, panelHi int) {
	packBRangeGeneric(nrAVX2, dst, terms, r0, c0, kc, nc, panelLo, panelHi)
}

// Micro dispatches the 16×6 rank-kc FMA kernel; see avx2F64.Micro for the
// bounds-proof shape.
//
//fmm:hotpath
func (avx2F32) Micro(kc int, ap, bp, acc []float32) {
	acc = acc[: mrAVX2F32*nrAVX2 : mrAVX2F32*nrAVX2]
	if kc <= 0 {
		for i := range acc {
			acc[i] = 0
		}
		return
	}
	ap = ap[: kc*mrAVX2F32 : kc*mrAVX2F32]
	bp = bp[: kc*nrAVX2 : kc*nrAVX2]
	microF32AVX2(kc, &ap[0], &bp[0], &acc[0])
}

// Scatter: full 16×6 tiles in assembly, fringes through the generic path;
// see avx2F64.Scatter.
//
//fmm:hotpath
func (avx2F32) Scatter(m matrix.Mat[float32], r0, c0 int, coef float32, acc []float32, mr, nr int) {
	if mr == mrAVX2F32 && nr == nrAVX2 {
		acc = acc[: mrAVX2F32*nrAVX2 : mrAVX2F32*nrAVX2]
		_ = m.Data[(r0+mrAVX2F32-1)*m.Stride+c0+nrAVX2-1]
		scatterF32AVX2(&m.Data[r0*m.Stride+c0], m.Stride, coef, &acc[0])
		return
	}
	scatterGeneric(nrAVX2, m, r0, c0, coef, acc, mr, nr)
}

func (avx2F32) PackABufLen(mc, kc int) int { return packABufLen(mrAVX2F32, mc, kc) }
func (avx2F32) PackBBufLen(kc, nc int) int { return packBBufLen(nrAVX2, kc, nc) }
