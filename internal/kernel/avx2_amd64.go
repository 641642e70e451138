//go:build amd64 && !purego

package kernel

import (
	"unsafe"

	"fmmfam/internal/matrix"
)

// The avx2 backend: hand-written AVX2/FMA assembly (avx2_amd64.s) behind the
// same Backend seam the pure-Go kernel uses. The micro-tile is MR×NR = 6×8
// for float64 and 6×16 for float32 — the paper's twelve-accumulator Haswell
// blocking turned to the orientation a row-major matrix.Mat wants: six Ã
// values are broadcast against one B̃ row held as two ymm, so each pair of
// accumulators is a 64-byte row of the C tile and the fused update of
// Figure 1 (right) is plain vector loads and stores straight from the
// registers (MicroScatter), with the tiles' rows prefetched under the
// rank-kc loop, one C term per segment of it. The packers vectorise too: a
// B̃ panel row is a two-ymm copy, an Ã panel a 6×4 (6×8 for float32)
// in-register transpose, each with the term's coefficient broadcast.
//
// Fringes stay in assembly, cut to their real extent by lane masks: a fringe
// tile (mr < MR or nr < NR) takes a masked fused kernel, or for nr ≤ NR/2 a
// half-width one (6×4, 6×8 for float32) that runs half the FMAs; a fringe
// B̃ panel and an Ã panel of fewer than six rows or with a k-tail (kc mod 4,
// mod 8 for float32) take masked packers. Only C-term lists longer than
// MaxFusedTerms are the generic Go path, Micro into acc + scatterGeneric.
// Every path keeps the generic arithmetic — one FMA chain per C element in
// k order, C += round(w·acc), and packed elements built from +0, in term
// order, multiply and add rounded separately, a leading coefficient-1 term
// copied — so the bits do not depend on which path ran, and the generic
// routines are the test oracle.
//
// Registration is gated at init on the CPUID probe (cpufeat_amd64.go): on an
// amd64 host without AVX2+FMA (or with OS-disabled YMM state) the backend
// marks itself unavailable with the reason instead of registering, so
// Config.Kernel="avx2" fails validation with a clear error and dispatch
// falls back to the pure-Go backend.
const (
	mrAVX2    = 6
	nrAVX2F64 = 8
	nrAVX2F32 = 16

	// kStepAVX2F64/F32 are the k-columns one Ã transpose step packs: one ymm
	// of a source row.
	kStepAVX2F64 = 4
	kStepAVX2F32 = 8

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

// tileRef describes one strided operand to the assembly: the C-term tile a
// fused micro-kernel call updates. The layout — pointer, row stride in
// bytes, coefficient; 24 bytes for either dtype — is what avx2_amd64.s reads.
type tileRef[E matrix.Element] struct {
	p      *E
	stride uintptr
	coef   E
}

// Packer modes of the assembly packers (see avx2_amd64.s).
const (
	packCopy = iota // dst = src
	packSet         // dst = +0 + coef·src
	packAdd         // dst += coef·src
)

// packTermFunc is the signature the assembly packers share: one term of one
// panel — the rows×cols block at src, rows stride bytes apart — into the
// dense panel at dst, in the given mode. The full-panel packers take whole
// panels (six rows and a multiple of kStep columns for Ã, NR columns for
// B̃); the fringe ones any extent up to that.
type packTermFunc[E matrix.Element] func(dst, src *E, stride uintptr, coef E, rows, cols, mode int)

// packPanelTerms writes one panel through the assembly, one call per
// contributing term, choosing each call's mode so that the packed value is
// built exactly as the generic packers build it: zero-coefficient terms are
// skipped, the list's first term is copied when its coefficient is 1, the
// first term that contributes otherwise starts from +0, later ones
// accumulate, and a panel nothing contributes to is zero. (row, col) is the
// panel's origin in every term and (rows, cols) its real extent there —
// indexing its last element is the bounds proof for the assembly's strided
// reads, which stop there on fringes too. out is exactly the panel the call
// writes.
//
//fmm:hotpath
func packPanelTerms[E matrix.Element](pack packTermFunc[E], out []E, terms []Term[E], row, col, rows, cols int) {
	first := true
	for t := range terms {
		coef, m := terms[t].Coef, &terms[t].M
		if coef == 0 {
			continue
		}
		base := row*m.Stride + col
		_ = m.Data[base+(rows-1)*m.Stride+cols-1]
		mode := packAdd
		switch {
		case t == 0 && coef == 1:
			mode = packCopy
		case first:
			mode = packSet
		}
		pack(&out[0], &m.Data[base], uintptr(m.Stride)*unsafe.Sizeof(coef), coef, rows, cols, mode)
		first = false
	}
	if first {
		clear(out)
	}
}

// packAAVX2 packs every Ã panel in assembly: a full 6-row panel's whole
// kStep-column steps with the full packer (pack) and its kc mod kStep tail
// columns with the fringe packer (the layout inside a panel is k-major, so
// the tail is a panel of its own), and the partial panel of the block's last
// mc mod 6 rows with the fringe packer, tail included.
//
//fmm:hotpath
func packAAVX2[E matrix.Element](pack, fringe packTermFunc[E], kStep int, dst []E, terms []Term[E], r0, c0, mc, kc int) int {
	const mr = mrAVX2
	n := packABufLen(mr, mc, kc)
	dst = dst[:n]
	full := mc / mr
	kv := kc - kc%kStep
	for j := 0; j < full; j++ {
		panel := dst[j*mr*kc : (j+1)*mr*kc]
		if kv > 0 {
			packPanelTerms(pack, panel[:mr*kv], terms, r0+j*mr, c0, mr, kv)
		}
		if kv < kc {
			packPanelTerms(fringe, panel[mr*kv:], terms, r0+j*mr, c0+kv, mr, kc-kv)
		}
	}
	if rows := mc - full*mr; rows > 0 && kc > 0 {
		packPanelTerms(fringe, dst[full*mr*kc:], terms, r0+full*mr, c0, rows, kc)
	}
	return n
}

// packBRangeAVX2 packs the nr-column panels of [panelLo, panelHi) in
// assembly: a full panel row is a two-vector row copy scaled by the term's
// coefficient, and the fringe panel of the block's last nc mod nr columns
// takes the fringe packer — or, where that is nil (avx512), the generic one.
//
//fmm:hotpath
func packBRangeAVX2[E matrix.Element](pack, fringe packTermFunc[E], nr int, dst []E, terms []Term[E], r0, c0, kc, nc, panelLo, panelHi int) {
	full := min(panelHi, nc/nr)
	for panel := panelLo; panel < full && kc > 0; panel++ {
		packPanelTerms(pack, dst[panel*kc*nr:(panel+1)*kc*nr], terms, r0, c0+panel*nr, kc, nr)
	}
	switch lo := max(panelLo, full); {
	case lo >= panelHi || kc <= 0:
	case fringe == nil:
		packBRangeGeneric(nr, dst, terms, r0, c0, kc, nc, lo, panelHi)
	default:
		packPanelTerms(fringe, dst[lo*kc*nr:(lo+1)*kc*nr], terms, r0, c0+lo*nr, kc, nc-lo*nr)
	}
}

// fusedSegTrips is the prefetch schedule of the fused micro-kernels
// (RANK_KC_PREFETCH_C in avx2_amd64.s, which says why): the kc/4 four-step
// trips of the rank-kc loop run as n segments with one C term's tile
// requested ahead of each, and every segment but the last is
// fusedSegTrips(kc, n) trips long — 1/n of the loop, or fusedSegCap trips
// where that is shorter. The last segment takes the remainder, which is the
// whole loop when n is 1: plain GEMM divides nothing.
const fusedSegCap = 24

//fmm:hotpath
func fusedSegTrips(kc, n int) int {
	trips := kc >> 2
	if n == 1 {
		return trips
	}
	return min(fusedSegCap, trips/n)
}

// fusedTiles describes each C term's mr×nr tile at (r0, c0) to a fused
// assembly kernel, in refs (the caller's stack array; len(cTerms) ≤
// MaxFusedTerms). Indexing a tile's first and last element is the bounds proof
// for the assembly's strided loads and stores.
//
//fmm:hotpath
func fusedTiles[E matrix.Element](refs *[MaxFusedTerms]tileRef[E], cTerms []Term[E], r0, c0, mr, nr int) {
	for t := range cTerms {
		m, coef := &cTerms[t].M, cTerms[t].Coef
		base := r0*m.Stride + c0
		_ = m.Data[base+(mr-1)*m.Stride+nr-1]
		refs[t] = tileRef[E]{p: &m.Data[base], stride: uintptr(m.Stride) * unsafe.Sizeof(coef), coef: coef}
	}
}

// Assembly entry points (avx2_amd64.s). The wrappers below establish every
// bounds invariant before the call: the assembly trusts its pointers. All are
// //go:noescape — they keep no pointer past the call, and without the
// annotation the per-tile tileRef array MicroScatter builds on its stack
// would be heap-allocated once per tile.

//go:noescape
func microF64AVX2(kc int, ap, bp, acc *float64)

//go:noescape
func microF32AVX2(kc int, ap, bp, acc *float32)

//go:noescape
func scatterF64AVX2(dst *float64, stride int, coef float64, acc *float64)

//go:noescape
func scatterF32AVX2(dst *float32, stride int, coef float32, acc *float32)

//go:noescape
func microScatterF64AVX2(kc int, ap, bp *float64, refs *tileRef[float64], n, seg int)

//go:noescape
func microScatterF32AVX2(kc int, ap, bp *float32, refs *tileRef[float32], n, seg int)

//go:noescape
func microScatterMaskF64AVX2(kc int, ap, bp *float64, refs *tileRef[float64], n, mr, nr int)

//go:noescape
func microScatterMaskF32AVX2(kc int, ap, bp *float32, refs *tileRef[float32], n, mr, nr int)

//go:noescape
func microScatterHalfF64AVX2(kc int, ap, bp *float64, refs *tileRef[float64], n, mr, nr int)

//go:noescape
func microScatterHalfF32AVX2(kc int, ap, bp *float32, refs *tileRef[float32], n, mr, nr int)

//go:noescape
func packATermF64AVX2(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)

//go:noescape
func packATermF32AVX2(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)

//go:noescape
func packAFringeF64AVX2(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)

//go:noescape
func packAFringeF32AVX2(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)

//go:noescape
func packBTermF64AVX2(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)

//go:noescape
func packBTermF32AVX2(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)

//go:noescape
func packBFringeF64AVX2(dst, src *float64, stride uintptr, coef float64, rows, cols, mode int)

//go:noescape
func packBFringeF32AVX2(dst, src *float32, stride uintptr, coef float32, rows, cols, mode int)

// avx2F64 is the float64 half of the avx2 backend: 6×8 doubles per
// micro-tile, 12 ymm accumulators.
type avx2F64 struct{}

func (avx2F64) Name() string { return AVX2Backend }
func (avx2F64) MR() int      { return mrAVX2 }
func (avx2F64) NR() int      { return nrAVX2F64 }
func (avx2F64) Align() int   { return alignAVX2Bytes / 8 }

func (avx2F64) PackA(dst []float64, terms []Term[float64], r0, c0, mc, kc int) int {
	return packAAVX2(packATermF64AVX2, packAFringeF64AVX2, kStepAVX2F64, dst, terms, r0, c0, mc, kc)
}

func (b avx2F64) PackB(dst []float64, terms []Term[float64], r0, c0, kc, nc int) int {
	panels := (nc + nrAVX2F64 - 1) / nrAVX2F64
	b.PackBRange(dst, terms, r0, c0, kc, nc, 0, panels)
	return panels * kc * nrAVX2F64
}

func (avx2F64) PackBRange(dst []float64, terms []Term[float64], r0, c0, kc, nc, panelLo, panelHi int) {
	packBRangeAVX2(packBTermF64AVX2, packBFringeF64AVX2, nrAVX2F64, dst, terms, r0, c0, kc, nc, panelLo, panelHi)
}

// Micro dispatches the 6×8 rank-kc FMA kernel. The reslicings are the bounds
// proof for the assembly: they panic exactly where the pure-Go kernel would
// on short panels, and after them the assembly can touch only in-range
// memory. kc==0 must still overwrite acc (the conformance contract), which
// the zero loop handles without calling into assembly on empty panels.
//
//fmm:hotpath
func (avx2F64) Micro(kc int, ap, bp, acc []float64) {
	acc = acc[: mrAVX2*nrAVX2F64 : mrAVX2*nrAVX2F64]
	if kc <= 0 {
		clear(acc)
		return
	}
	ap = ap[: kc*mrAVX2 : kc*mrAVX2]
	bp = bp[: kc*nrAVX2F64 : kc*nrAVX2F64]
	microF64AVX2(kc, &ap[0], &bp[0], &acc[0])
}

// Scatter adds coef·acc into C: full 6×8 tiles ride the vectorized assembly
// path, fringe tiles (mr < MR or nr < NR) the generic scalar scatter — same
// arithmetic. The GEMM driver never calls it (MicroScatter updates C from
// the registers, fringes included); it is the conformance suite's
// reference. The indexing of the tile's last element is the bounds proof for
// the strided assembly stores.
//
//fmm:hotpath
func (avx2F64) Scatter(m matrix.Mat[float64], r0, c0 int, coef float64, acc []float64, mr, nr int) {
	if mr == mrAVX2 && nr == nrAVX2F64 {
		acc = acc[: mrAVX2*nrAVX2F64 : mrAVX2*nrAVX2F64]
		_ = m.Data[(r0+mrAVX2-1)*m.Stride+c0+nrAVX2F64-1]
		scatterF64AVX2(&m.Data[r0*m.Stride+c0], m.Stride, coef, &acc[0])
		return
	}
	scatterGeneric(nrAVX2F64, m, r0, c0, coef, acc, mr, nr)
}

// MicroScatter is the fused micro-kernel: for a C-term list within
// MaxFusedTerms it describes each term's mr×nr tile to the assembly
// (fusedTiles), which runs the rank-kc loop and updates every term from the
// accumulator registers; acc is not touched. A full tile prefetches one
// term's tile per segment of the loop (fusedSegTrips). A fringe tile takes
// the masked kernel, which updates the first mr rows and nr columns, or,
// for nr ≤ NR/2, the half-width one, which also skips the padded half of
// the FMAs — the choice reads nr alone. refs lives on this frame — the stubs
// are //go:noescape. Longer lists (and kc ≤ 0) are Micro + the generic
// scatter.
//
//fmm:hotpath
func (b avx2F64) MicroScatter(kc int, ap, bp, acc []float64, cTerms []Term[float64], r0, c0, mr, nr int) {
	n := len(cTerms)
	if kc <= 0 || n == 0 || n > MaxFusedTerms || mr < 1 || mr > mrAVX2 || nr < 1 || nr > nrAVX2F64 {
		b.Micro(kc, ap, bp, acc)
		scatterTerms(nrAVX2F64, cTerms, r0, c0, acc, mr, nr)
		return
	}
	ap = ap[: kc*mrAVX2 : kc*mrAVX2]
	bp = bp[: kc*nrAVX2F64 : kc*nrAVX2F64]
	var refs [MaxFusedTerms]tileRef[float64]
	fusedTiles(&refs, cTerms, r0, c0, mr, nr)
	switch {
	case mr == mrAVX2 && nr == nrAVX2F64:
		microScatterF64AVX2(kc, &ap[0], &bp[0], &refs[0], n, fusedSegTrips(kc, n))
	case nr <= nrAVX2F64/2:
		microScatterHalfF64AVX2(kc, &ap[0], &bp[0], &refs[0], n, mr, nr)
	default:
		microScatterMaskF64AVX2(kc, &ap[0], &bp[0], &refs[0], n, mr, nr)
	}
}

func (avx2F64) PackABufLen(mc, kc int) int { return packABufLen(mrAVX2, mc, kc) }
func (avx2F64) PackBBufLen(kc, nc int) int { return packBBufLen(nrAVX2F64, kc, nc) }

// avx2F32 is the float32 half: 6×16 singles per micro-tile — the same 12
// accumulator registers as the float64 kernel, each carrying 8 lanes, and the
// same 64-byte tile row.
type avx2F32 struct{}

func (avx2F32) Name() string { return AVX2Backend }
func (avx2F32) MR() int      { return mrAVX2 }
func (avx2F32) NR() int      { return nrAVX2F32 }
func (avx2F32) Align() int   { return alignAVX2Bytes / 4 }

func (avx2F32) PackA(dst []float32, terms []Term[float32], r0, c0, mc, kc int) int {
	return packAAVX2(packATermF32AVX2, packAFringeF32AVX2, kStepAVX2F32, dst, terms, r0, c0, mc, kc)
}

func (b avx2F32) PackB(dst []float32, terms []Term[float32], r0, c0, kc, nc int) int {
	panels := (nc + nrAVX2F32 - 1) / nrAVX2F32
	b.PackBRange(dst, terms, r0, c0, kc, nc, 0, panels)
	return panels * kc * nrAVX2F32
}

func (avx2F32) PackBRange(dst []float32, terms []Term[float32], r0, c0, kc, nc, panelLo, panelHi int) {
	packBRangeAVX2(packBTermF32AVX2, packBFringeF32AVX2, nrAVX2F32, dst, terms, r0, c0, kc, nc, panelLo, panelHi)
}

// Micro dispatches the 6×16 rank-kc FMA kernel; see avx2F64.Micro for the
// bounds-proof shape.
//
//fmm:hotpath
func (avx2F32) Micro(kc int, ap, bp, acc []float32) {
	acc = acc[: mrAVX2*nrAVX2F32 : mrAVX2*nrAVX2F32]
	if kc <= 0 {
		clear(acc)
		return
	}
	ap = ap[: kc*mrAVX2 : kc*mrAVX2]
	bp = bp[: kc*nrAVX2F32 : kc*nrAVX2F32]
	microF32AVX2(kc, &ap[0], &bp[0], &acc[0])
}

// Scatter: full 6×16 tiles in assembly, fringes through the generic path;
// see avx2F64.Scatter.
//
//fmm:hotpath
func (avx2F32) Scatter(m matrix.Mat[float32], r0, c0 int, coef float32, acc []float32, mr, nr int) {
	if mr == mrAVX2 && nr == nrAVX2F32 {
		acc = acc[: mrAVX2*nrAVX2F32 : mrAVX2*nrAVX2F32]
		_ = m.Data[(r0+mrAVX2-1)*m.Stride+c0+nrAVX2F32-1]
		scatterF32AVX2(&m.Data[r0*m.Stride+c0], m.Stride, coef, &acc[0])
		return
	}
	scatterGeneric(nrAVX2F32, m, r0, c0, coef, acc, mr, nr)
}

// MicroScatter: the fused 6×16 kernel, with the 6×8 half-width one for
// nr ≤ 8; see avx2F64.MicroScatter.
//
//fmm:hotpath
func (b avx2F32) MicroScatter(kc int, ap, bp, acc []float32, cTerms []Term[float32], r0, c0, mr, nr int) {
	n := len(cTerms)
	if kc <= 0 || n == 0 || n > MaxFusedTerms || mr < 1 || mr > mrAVX2 || nr < 1 || nr > nrAVX2F32 {
		b.Micro(kc, ap, bp, acc)
		scatterTerms(nrAVX2F32, cTerms, r0, c0, acc, mr, nr)
		return
	}
	ap = ap[: kc*mrAVX2 : kc*mrAVX2]
	bp = bp[: kc*nrAVX2F32 : kc*nrAVX2F32]
	var refs [MaxFusedTerms]tileRef[float32]
	fusedTiles(&refs, cTerms, r0, c0, mr, nr)
	switch {
	case mr == mrAVX2 && nr == nrAVX2F32:
		microScatterF32AVX2(kc, &ap[0], &bp[0], &refs[0], n, fusedSegTrips(kc, n))
	case nr <= nrAVX2F32/2:
		microScatterHalfF32AVX2(kc, &ap[0], &bp[0], &refs[0], n, mr, nr)
	default:
		microScatterMaskF32AVX2(kc, &ap[0], &bp[0], &refs[0], n, mr, nr)
	}
}

func (avx2F32) PackABufLen(mc, kc int) int { return packABufLen(mrAVX2, mc, kc) }
func (avx2F32) PackBBufLen(kc, nc int) int { return packBBufLen(nrAVX2F32, kc, nc) }
