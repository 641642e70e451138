// Package kernel provides the two building blocks of Figure 1 of the paper
// that everything else is assembled from:
//
//   - packing routines that write the *linear combination* of a list of
//     equally-sized submatrices into the contiguous micro-panel layouts Ã
//     (mR-row panels) and B̃ (nR-column panels) — the paper's key trick of
//     fusing the FMM operand additions into the packing (Fig. 1, right), and
//   - the mR×nR micro-kernel, a register-blocked rank-kC update whose result
//     can be scattered, with weights, into several submatrices of C (the ABC
//     variant's fused micro-kernel).
//
// The kernel is pure Go (the paper uses SSE2/AVX assembly; the substitution
// slows every variant by the same factor, so the experiments keep their
// shape — the avx2 backend is the assembly counterpart) and generic over
// the element type (float32 or float64): each instantiation compiles to
// fully specialized scalar code, so the float64 loops are the same machine
// code as the historical non-generic kernel (pinned by golden tests) and the
// float32 loops halve the memory traffic per element.
//
// Implementations are pluggable: the free functions below are the default
// MR=NR=4 backend, and the Backend interface (backend.go) abstracts micro-tile
// shape, packing, and the micro-kernel so alternative register blockings —
// the 8×4 pure-Go backend in go8x4.go today, AVX/asm or cgo backends later —
// can be registered per (name, dtype) and selected by name without touching
// the driver.
package kernel

import "fmmfam/internal/matrix"

// Micro-tile dimensions of the default backend. Its packing layouts and
// micro-kernel agree on these; they play the role of the paper's mR×nR = 8×4
// register block. Other backends carry their own tile shape via Backend.MR
// and Backend.NR.
const (
	MR = 4
	NR = 4
)

// Term is one weighted operand of a fused linear combination: Coef·M. All
// terms of a list have identical dimensions.
type Term[E matrix.Element] struct {
	Coef E
	M    matrix.Mat[E]
}

// SingleTerm wraps a matrix as the trivial combination 1.0·M.
func SingleTerm[E matrix.Element](m matrix.Mat[E]) []Term[E] { return []Term[E]{{Coef: 1, M: m}} }

// PackA writes the mc×kc linear combination Σ Coef·M[r0:r0+mc, c0:c0+kc] of
// the A-side terms into dst in Ã layout: ⌈mc/MR⌉ consecutive row-panels,
// each storing its MR rows column-major (dst[panel*MR*kc + p*MR + i]). Rows
// beyond mc are zero-padded so the micro-kernel never reads garbage.
// Returns the number of elements written (⌈mc/MR⌉·MR·kc).
//
//fmm:hotpath
func PackA[E matrix.Element](dst []E, terms []Term[E], r0, c0, mc, kc int) int {
	panels := (mc + MR - 1) / MR
	n := panels * MR * kc
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	for t, term := range terms {
		m := term.M
		coef := term.Coef
		if coef == 0 {
			continue
		}
		for i := 0; i < mc; i++ {
			panel := i / MR
			lane := i % MR
			src := m.Data[(r0+i)*m.Stride+c0 : (r0+i)*m.Stride+c0+kc]
			d := dst[panel*MR*kc+lane:]
			if t == 0 && coef == 1 {
				for p, v := range src {
					d[p*MR] = v
				}
			} else {
				for p, v := range src {
					d[p*MR] += coef * v
				}
			}
		}
	}
	return n
}

// PackB writes the kc×nc linear combination of the B-side terms into dst in
// B̃ layout: ⌈nc/NR⌉ consecutive column-panels, each storing its NR columns
// row-major (dst[panel*kc*NR + p*NR + j]), zero-padded beyond nc.
// Returns the number of elements written.
//
//fmm:hotpath
func PackB[E matrix.Element](dst []E, terms []Term[E], r0, c0, kc, nc int) int {
	panels := (nc + NR - 1) / NR
	PackBRange(dst, terms, r0, c0, kc, nc, 0, panels)
	return panels * kc * NR
}

// PackBRange packs only column-panels [panelLo, panelHi) of the B̃ layout
// (panel j covers source columns [j·NR, (j+1)·NR)). Distinct panel ranges
// write disjoint regions of dst, so ranges can be packed concurrently.
//
//fmm:hotpath
func PackBRange[E matrix.Element](dst []E, terms []Term[E], r0, c0, kc, nc, panelLo, panelHi int) {
	for panel := panelLo; panel < panelHi; panel++ {
		j0 := panel * NR
		w := NR
		if j0+w > nc {
			w = nc - j0
		}
		out := dst[panel*kc*NR : (panel+1)*kc*NR]
		for i := range out {
			out[i] = 0
		}
		for t, term := range terms {
			m := term.M
			coef := term.Coef
			if coef == 0 {
				continue
			}
			for p := 0; p < kc; p++ {
				src := m.Data[(r0+p)*m.Stride+c0+j0 : (r0+p)*m.Stride+c0+j0+w]
				d := out[p*NR : p*NR+w]
				if t == 0 && coef == 1 {
					copy(d, src)
				} else {
					for j, v := range src {
						d[j] += coef * v
					}
				}
			}
		}
	}
}

// Micro computes the MR×NR rank-kc product of an Ã row-panel and a B̃
// column-panel into acc (row-major MR×NR, overwritten). ap holds kc
// MR-element slices (a[p*MR+i]); bp holds kc NR-element slices (b[p*NR+j]).
// The 16 accumulators live in registers for the duration of the p-loop. The
// array-pointer signature keeps the epilogue stores free of bounds checks —
// at the plan path's short kc this is a measurable fraction of the call —
// while the go4x4 Backend adapter converts the interface's slice form.
//
//fmm:hotpath
func Micro[E matrix.Element](kc int, ap, bp []E, acc *[MR * NR]E) {
	var c00, c01, c02, c03 E
	var c10, c11, c12, c13 E
	var c20, c21, c22, c23 E
	var c30, c31, c32, c33 E
	for p := 0; p < kc; p++ {
		a := ap[p*MR : p*MR+MR : p*MR+MR]
		b := bp[p*NR : p*NR+NR : p*NR+NR]
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
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

// Scatter adds coef·acc[0:mr,0:nr] (acc row-major with row stride NR) to the
// mr×nr region of target m with top-left corner (r0, c0). Called once per
// C-side term — the ABC variant's "update multiple submatrices of C from
// registers".
//
//fmm:hotpath
func Scatter[E matrix.Element](m matrix.Mat[E], r0, c0 int, coef E, acc *[MR * NR]E, mr, nr int) {
	for i := 0; i < mr; i++ {
		row := m.Data[(r0+i)*m.Stride+c0 : (r0+i)*m.Stride+c0+nr]
		a := acc[i*NR : i*NR+nr]
		if coef == 1 {
			for j, v := range a {
				row[j] += v
			}
		} else {
			for j, v := range a {
				row[j] += coef * v
			}
		}
	}
}

// PackABufLen and PackBBufLen size the packing buffers for block dimensions
// (mc, kc) and (kc, nc), in elements.
func PackABufLen(mc, kc int) int { return ((mc + MR - 1) / MR) * MR * kc }

// PackBBufLen sizes a B̃ buffer; see PackABufLen.
func PackBBufLen(kc, nc int) int { return ((nc + NR - 1) / NR) * NR * kc }
