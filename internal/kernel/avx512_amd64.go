//go:build amd64 && !purego

package kernel

import "fmmfam/internal/matrix"

// The avx512 backend: the avx2 backend's design at twice the width
// (avx512_amd64.s). The micro-tile is MR×NR = 6×16 for float64 and 6×32 for
// float32: six Ã values broadcast against one B̃ row held as two zmm, so each
// pair of the twelve accumulators is a 128-byte row of the C tile — a whole
// line pair — and the fused update of Figure 1 (right) is plain vector loads
// and stores straight from the registers, with each term's tile prefetched
// under the rank-kc loop on the avx2 schedule (fusedSegTrips).
//
// Only what the width changes is new assembly: Micro, the fused MicroScatter
// and the B̃ term packer (a two-zmm row copy). MR is six in both backends, so
// the Ã layout is the same and PackA is avx2's transpose packer unchanged.
// Scatter is scatterGeneric — the driver updates C from registers and never
// calls it. Fringe tiles, over-long C-term lists and fringe panels take the
// generic paths as they do on avx2, by the same arithmetic, so every bit rule
// of avx2_amd64.s holds here too.
//
// Registration is gated at init on the AVX-512 probe (cpufeat_amd64.go): a
// host without AVX-512F, or whose OS does not enable ZMM state, records the
// reason instead of registering, and Fastest moves on to avx2.
const (
	nrAVX512F64 = 16
	nrAVX512F32 = 32

	// alignAVX512Bytes is one full 512-bit vector; Align() converts to
	// elements per dtype.
	alignAVX512Bytes = 64
)

func init() {
	if !hostAVX512 {
		unavailable[AVX512Backend] = avx512Missing + "; the avx2 (where registered) and pure-Go backends remain available"
		return
	}
	register[float64](avx512F64{})
	register[float32](avx512F32{})
}

// Assembly entry points (avx512_amd64.s), //go:noescape for the reason the
// avx2 ones are.

//go:noescape
func microF64AVX512(kc int, ap, bp, acc *float64)

//go:noescape
func microF32AVX512(kc int, ap, bp, acc *float32)

//go:noescape
func microScatterF64AVX512(kc int, ap, bp *float64, refs *tileRef[float64], n, seg int)

//go:noescape
func microScatterF32AVX512(kc int, ap, bp *float32, refs *tileRef[float32], n, seg int)

//go:noescape
func packBTermF64AVX512(dst, src *float64, stride uintptr, coef float64, kc, mode int)

//go:noescape
func packBTermF32AVX512(dst, src *float32, stride uintptr, coef float32, kc, mode int)

// avx512F64 is the float64 half of the avx512 backend: 6×16 doubles per
// micro-tile, 12 zmm accumulators.
type avx512F64 struct{}

func (avx512F64) Name() string { return AVX512Backend }
func (avx512F64) MR() int      { return mrAVX2 }
func (avx512F64) NR() int      { return nrAVX512F64 }
func (avx512F64) Align() int   { return alignAVX512Bytes / 8 }

func (avx512F64) PackA(dst []float64, terms []Term[float64], r0, c0, mc, kc int) int {
	return packAAVX2(packATermF64AVX2, kStepAVX2F64, dst, terms, r0, c0, mc, kc)
}

func (b avx512F64) PackB(dst []float64, terms []Term[float64], r0, c0, kc, nc int) int {
	panels := (nc + nrAVX512F64 - 1) / nrAVX512F64
	b.PackBRange(dst, terms, r0, c0, kc, nc, 0, panels)
	return panels * kc * nrAVX512F64
}

func (avx512F64) PackBRange(dst []float64, terms []Term[float64], r0, c0, kc, nc, panelLo, panelHi int) {
	packBRangeAVX2(packBTermF64AVX512, nrAVX512F64, dst, terms, r0, c0, kc, nc, panelLo, panelHi)
}

// Micro dispatches the 6×16 rank-kc FMA kernel; see avx2F64.Micro for the
// bounds-proof shape.
//
//fmm:hotpath
func (avx512F64) Micro(kc int, ap, bp, acc []float64) {
	acc = acc[: mrAVX2*nrAVX512F64 : mrAVX2*nrAVX512F64]
	if kc <= 0 {
		clear(acc)
		return
	}
	ap = ap[: kc*mrAVX2 : kc*mrAVX2]
	bp = bp[: kc*nrAVX512F64 : kc*nrAVX512F64]
	microF64AVX512(kc, &ap[0], &bp[0], &acc[0])
}

//fmm:hotpath
func (avx512F64) Scatter(m matrix.Mat[float64], r0, c0 int, coef float64, acc []float64, mr, nr int) {
	scatterGeneric(nrAVX512F64, m, r0, c0, coef, acc, mr, nr)
}

// MicroScatter: the fused 6×16 kernel; see avx2F64.MicroScatter.
//
//fmm:hotpath
func (b avx512F64) MicroScatter(kc int, ap, bp, acc []float64, cTerms []Term[float64], r0, c0, mr, nr int) {
	n := len(cTerms)
	if mr != mrAVX2 || nr != nrAVX512F64 || kc <= 0 || n == 0 || n > MaxFusedTerms {
		b.Micro(kc, ap, bp, acc)
		scatterTerms(nrAVX512F64, cTerms, r0, c0, acc, mr, nr)
		return
	}
	ap = ap[: kc*mrAVX2 : kc*mrAVX2]
	bp = bp[: kc*nrAVX512F64 : kc*nrAVX512F64]
	var refs [MaxFusedTerms]tileRef[float64]
	fusedTiles(&refs, cTerms, r0, c0, mrAVX2, nrAVX512F64)
	microScatterF64AVX512(kc, &ap[0], &bp[0], &refs[0], n, fusedSegTrips(kc, n))
}

func (avx512F64) PackABufLen(mc, kc int) int { return packABufLen(mrAVX2, mc, kc) }
func (avx512F64) PackBBufLen(kc, nc int) int { return packBBufLen(nrAVX512F64, kc, nc) }

// avx512F32 is the float32 half: 6×32 singles per micro-tile — the same 12
// accumulator registers, each carrying 16 lanes, and the same 128-byte tile
// row.
type avx512F32 struct{}

func (avx512F32) Name() string { return AVX512Backend }
func (avx512F32) MR() int      { return mrAVX2 }
func (avx512F32) NR() int      { return nrAVX512F32 }
func (avx512F32) Align() int   { return alignAVX512Bytes / 4 }

func (avx512F32) PackA(dst []float32, terms []Term[float32], r0, c0, mc, kc int) int {
	return packAAVX2(packATermF32AVX2, kStepAVX2F32, dst, terms, r0, c0, mc, kc)
}

func (b avx512F32) PackB(dst []float32, terms []Term[float32], r0, c0, kc, nc int) int {
	panels := (nc + nrAVX512F32 - 1) / nrAVX512F32
	b.PackBRange(dst, terms, r0, c0, kc, nc, 0, panels)
	return panels * kc * nrAVX512F32
}

func (avx512F32) PackBRange(dst []float32, terms []Term[float32], r0, c0, kc, nc, panelLo, panelHi int) {
	packBRangeAVX2(packBTermF32AVX512, nrAVX512F32, dst, terms, r0, c0, kc, nc, panelLo, panelHi)
}

// Micro dispatches the 6×32 rank-kc FMA kernel.
//
//fmm:hotpath
func (avx512F32) Micro(kc int, ap, bp, acc []float32) {
	acc = acc[: mrAVX2*nrAVX512F32 : mrAVX2*nrAVX512F32]
	if kc <= 0 {
		clear(acc)
		return
	}
	ap = ap[: kc*mrAVX2 : kc*mrAVX2]
	bp = bp[: kc*nrAVX512F32 : kc*nrAVX512F32]
	microF32AVX512(kc, &ap[0], &bp[0], &acc[0])
}

//fmm:hotpath
func (avx512F32) Scatter(m matrix.Mat[float32], r0, c0 int, coef float32, acc []float32, mr, nr int) {
	scatterGeneric(nrAVX512F32, m, r0, c0, coef, acc, mr, nr)
}

// MicroScatter: the fused 6×32 kernel; see avx2F64.MicroScatter.
//
//fmm:hotpath
func (b avx512F32) MicroScatter(kc int, ap, bp, acc []float32, cTerms []Term[float32], r0, c0, mr, nr int) {
	n := len(cTerms)
	if mr != mrAVX2 || nr != nrAVX512F32 || kc <= 0 || n == 0 || n > MaxFusedTerms {
		b.Micro(kc, ap, bp, acc)
		scatterTerms(nrAVX512F32, cTerms, r0, c0, acc, mr, nr)
		return
	}
	ap = ap[: kc*mrAVX2 : kc*mrAVX2]
	bp = bp[: kc*nrAVX512F32 : kc*nrAVX512F32]
	var refs [MaxFusedTerms]tileRef[float32]
	fusedTiles(&refs, cTerms, r0, c0, mrAVX2, nrAVX512F32)
	microScatterF32AVX512(kc, &ap[0], &bp[0], &refs[0], n, fusedSegTrips(kc, n))
}

func (avx512F32) PackABufLen(mc, kc int) int { return packABufLen(mrAVX2, mc, kc) }
func (avx512F32) PackBBufLen(kc, nc int) int { return packBBufLen(nrAVX512F32, kc, nc) }
