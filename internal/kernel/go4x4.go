package kernel

import "fmmfam/internal/matrix"

// go4x4 is the default backend: the original MR=NR=4 pure-Go kernel, present
// on every build. Packing and scatter are the shared generic routines at a
// 4-row/4-column panel; only the register-blocked Micro is its own. Its
// float64 output stays bit-identical to every release since the seed (pinned
// by tests). One generic implementation serves both element types; each
// instantiation is fully specialized scalar code.
type go4x4[E matrix.Element] struct{}

// Micro-tile dimensions of go4x4; they play the role of the paper's
// mR×nR = 8×4 register block.
const (
	mr4x4 = 4
	nr4x4 = 4
)

func init() {
	register[float64](go4x4[float64]{})
	register[float32](go4x4[float32]{})
}

func (go4x4[E]) Name() string { return DefaultBackend }
func (go4x4[E]) MR() int      { return mr4x4 }
func (go4x4[E]) NR() int      { return nr4x4 }
func (go4x4[E]) Align() int   { return 1 }

func (go4x4[E]) PackA(dst []E, terms []Term[E], r0, c0, mc, kc int) int {
	return packAGeneric(mr4x4, dst, terms, r0, c0, mc, kc)
}

func (go4x4[E]) PackB(dst []E, terms []Term[E], r0, c0, kc, nc int) int {
	return packBGeneric(nr4x4, dst, terms, r0, c0, kc, nc)
}

func (go4x4[E]) PackBRange(dst []E, terms []Term[E], r0, c0, kc, nc, panelLo, panelHi int) {
	packBRangeGeneric(nr4x4, dst, terms, r0, c0, kc, nc, panelLo, panelHi)
}

// Micro computes the 4×4 rank-kc product of an Ã row-panel and a B̃
// column-panel into acc (row-major 4×4, overwritten). ap holds kc 4-element
// slices (a[p*4+i]); bp holds kc 4-element slices (b[p*4+j]). The 16
// accumulators live in registers for the duration of the p-loop, and the
// array-pointer view of acc keeps the epilogue stores free of bounds checks
// — at the plan path's short kc that is a measurable fraction of the call.
//
//fmm:hotpath
func (go4x4[E]) Micro(kc int, ap, bp, acc []E) {
	out := (*[mr4x4 * nr4x4]E)(acc)
	var c00, c01, c02, c03 E
	var c10, c11, c12, c13 E
	var c20, c21, c22, c23 E
	var c30, c31, c32, c33 E
	for p := 0; p < kc; p++ {
		a := ap[p*mr4x4 : p*mr4x4+mr4x4 : p*mr4x4+mr4x4]
		b := bp[p*nr4x4 : p*nr4x4+nr4x4 : p*nr4x4+nr4x4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	out[0], out[1], out[2], out[3] = c00, c01, c02, c03
	out[4], out[5], out[6], out[7] = c10, c11, c12, c13
	out[8], out[9], out[10], out[11] = c20, c21, c22, c23
	out[12], out[13], out[14], out[15] = c30, c31, c32, c33
}

// Scatter adds coef·acc[0:mr, 0:nr] into m at (r0, c0), fringe tiles included.
//
//fmm:hotpath
func (go4x4[E]) Scatter(m matrix.Mat[E], r0, c0 int, coef E, acc []E, mr, nr int) {
	scatterGeneric(nr4x4, m, r0, c0, coef, acc, mr, nr)
}

// MicroScatter is Micro followed by the generic scatter of every C-side term
// in list order — the definition of the fused call, and the arithmetic the
// float64 golden fingerprints pin.
//
//fmm:hotpath
func (g go4x4[E]) MicroScatter(kc int, ap, bp, acc []E, cTerms []Term[E], r0, c0, mr, nr int) {
	g.Micro(kc, ap, bp, acc)
	scatterTerms(nr4x4, cTerms, r0, c0, acc, mr, nr)
}

func (go4x4[E]) PackABufLen(mc, kc int) int { return packABufLen(mr4x4, mc, kc) }
func (go4x4[E]) PackBBufLen(kc, nc int) int { return packBBufLen(nr4x4, kc, nc) }
