// Package kernel provides the two building blocks of Figure 1 of the paper
// that everything else is assembled from:
//
//   - packing routines that write the *linear combination* of a list of
//     equally-sized submatrices into the contiguous micro-panel layouts Ã
//     (mR-row panels) and B̃ (nR-column panels) — the paper's key trick of
//     fusing the FMM operand additions into the packing (Fig. 1, right), and
//   - the mR×nR micro-kernel, a register-blocked rank-kC update whose result
//     is added, with weights, into several submatrices of C (the ABC
//     variant's fused micro-kernel, Backend.MicroScatter).
//
// As in the paper, there is one packing routine (this file, parameterized by
// the panel height or width) and one micro-kernel per architecture: the
// Backend interface (backend.go) abstracts micro-tile shape, packing, and the
// micro-kernel, and the GEMM driver reaches every backend through it. The
// set of backends is closed — go4x4 (go4x4.go), the pure-Go 4×4 kernel that
// runs on every build; avx2 (avx2_amd64.go), the assembly counterpart of the
// paper's kernels, present when the build and host CPU allow it: a 6×8
// (float64) / 6×16 (float32) tile whose accumulator registers are rows of
// the row-major C tile, so C is updated from the registers, with assembly
// packers for full panels; and avx512 (avx512_amd64.go), the same design on
// zmm registers — a 6×16 / 6×32 tile — where the host has AVX-512F. Fastest
// picks the widest registered, by the static order avx512, avx2, go4x4. The
// routines in this file are the definition the assembly is held to, bit for
// bit — a packed element is built from +0 in
// term order by a separately rounded multiply and add (a leading
// coefficient-1 term is copied), a C element receives round(w·acc) — and
// they remain go4x4's whole path, the purego build, the test oracle and
// avx512's fringe path (its fringe tiles and B̃ panels; its Ã packer is
// avx2's). On avx2 every tile and panel is assembly, fringes included:
// masked and half-width fused kernels, masked packers. Pure Go slows every variant by the same factor, so the experiments
// keep their shape. Everything is generic over the element type (float32 or float64):
// each instantiation compiles to fully specialized code, so the float64
// loops produce the same bits as the historical non-generic kernel (pinned
// by golden tests) and the float32 loops halve the memory traffic per
// element.
package kernel

import (
	"sync/atomic"
	"unsafe"

	"fmmfam/internal/matrix"
)

// Prefetch asks the core to bring every cache line s occupies into L1
// (PREFETCHT0 on amd64) and returns without waiting for them. It is a hint:
// it reads nothing in the language's sense, may be dropped, and never changes
// a result. Without amd64 assembly (purego, other GOARCHes) it does nothing.
//
//fmm:hotpath
func Prefetch[E matrix.Element](s []E) {
	if len(s) == 0 {
		return
	}
	prefetchLines(unsafe.Pointer(&s[0]), uintptr(len(s))*unsafe.Sizeof(s[0]))
}

// pageSize is the page granule TouchPages walks: 4 KiB, the base page of
// every platform the module builds for.
const pageSize = 4096

// TouchPages write-touches m before a product reads it: row by row, in
// address order, it adds zero (sync/atomic) to the 4-byte word that starts
// the row and to the first word of every 4 KiB page that begins inside it.
// A fresh, never-written page of C otherwise faults twice: the
// micro-kernel's first load maps the shared zero page and the store after it
// takes a copy-on-write fault. Touched first, it faults once, on the
// goroutine that runs the product. The add is on the element's bits, never a
// float add, so no bit changes (−0, NaN payloads and subnormals included).
// Every word touched lies inside a row — a row starts and ends on an element
// boundary, and elements are at least 4-byte aligned — so nothing in the
// gaps of a strided view, which may belong to another goroutine's tile, is
// written. A page two tiles share can still fault once per tile when both
// touch it at the same moment. On a warm C the walk costs one add per page.
//
//fmm:hotpath
func TouchPages[E matrix.Element](m matrix.Mat[E]) {
	if m.Rows <= 0 || m.Cols <= 0 {
		return
	}
	_ = m.Data[(m.Rows-1)*m.Stride+m.Cols-1] // the view's last element
	sz := unsafe.Sizeof(m.Data[0])
	base := unsafe.Pointer(&m.Data[0])
	rowBytes, stride := uintptr(m.Cols)*sz, uintptr(m.Stride)*sz
	rows := m.Rows
	if m.Stride == m.Cols { // no gaps: the rows are one range
		rowBytes, rows = uintptr(m.Rows)*rowBytes, 1
	}
	for i := 0; i < rows; i++ {
		row := unsafe.Add(base, uintptr(i)*stride)
		// off steps from the row's start to each next page boundary.
		for off := uintptr(0); off < rowBytes; off = (uintptr(row)+off)&^(pageSize-1) + pageSize - uintptr(row) {
			atomic.AddUint32((*uint32)(unsafe.Add(row, off)), 0)
		}
	}
}

// Term is one weighted operand of a fused linear combination: Coef·M. All
// terms of a list have identical dimensions.
type Term[E matrix.Element] struct {
	Coef E
	M    matrix.Mat[E]
}

// SingleTerm wraps a matrix as the trivial combination 1.0·M.
func SingleTerm[E matrix.Element](m matrix.Mat[E]) []Term[E] { return []Term[E]{{Coef: 1, M: m}} }

// MaxFusedTerms is the longest C-side term list a backend's fused
// micro-kernel (Backend.MicroScatter) updates straight from its registers:
// an assembly backend describes that many tiles to its kernel in a fixed
// array on the stack. Longer lists are still correct — they take the
// accumulator tile and the generic scatter. Every candidate the selector can
// serve stays within it (two Strassen levels need 4; three would need 8).
const MaxFusedTerms = 8

// packABufLen / packBBufLen size the packing buffers for block dimensions
// (mc, kc) and (kc, nc) at panel height mr and panel width nr, zero padding
// included, in elements.
func packABufLen(mr, mc, kc int) int { return ((mc + mr - 1) / mr) * mr * kc }
func packBBufLen(nr, kc, nc int) int { return ((nc + nr - 1) / nr) * nr * kc }

// packAGeneric writes the mc×kc linear combination Σ Coef·M[r0:r0+mc,
// c0:c0+kc] of the A-side terms into dst in Ã layout: ⌈mc/mr⌉ consecutive
// row-panels, each storing its mr rows column-major (dst[panel*mr*kc + p*mr +
// lane]). Rows beyond mc are zero-padded so the micro-kernel never reads
// garbage. Returns the number of elements written (⌈mc/mr⌉·mr·kc).
//
//fmm:hotpath
func packAGeneric[E matrix.Element](mr int, dst []E, terms []Term[E], r0, c0, mc, kc int) int {
	n := packABufLen(mr, mc, kc)
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
			panel := i / mr
			lane := i % mr
			src := m.Data[(r0+i)*m.Stride+c0 : (r0+i)*m.Stride+c0+kc]
			d := dst[panel*mr*kc+lane:]
			if t == 0 && coef == 1 {
				for p, v := range src {
					d[p*mr] = v
				}
			} else {
				for p, v := range src {
					d[p*mr] += coef * v
				}
			}
		}
	}
	return n
}

// packBGeneric writes the kc×nc linear combination of the B-side terms into
// dst in B̃ layout: ⌈nc/nr⌉ consecutive column-panels, each storing its nr
// columns row-major (dst[panel*kc*nr + p*nr + lane]), zero-padded beyond nc.
// Returns the number of elements written.
//
//fmm:hotpath
func packBGeneric[E matrix.Element](nr int, dst []E, terms []Term[E], r0, c0, kc, nc int) int {
	panels := (nc + nr - 1) / nr
	packBRangeGeneric(nr, dst, terms, r0, c0, kc, nc, 0, panels)
	return panels * kc * nr
}

// packBRangeGeneric packs only column-panels [panelLo, panelHi) of the B̃
// layout (panel j covers source columns [j·nr, (j+1)·nr)). Distinct panel
// ranges write disjoint regions of dst, so ranges can be packed concurrently.
//
//fmm:hotpath
func packBRangeGeneric[E matrix.Element](nr int, dst []E, terms []Term[E], r0, c0, kc, nc, panelLo, panelHi int) {
	for panel := panelLo; panel < panelHi; panel++ {
		j0 := panel * nr
		w := nr
		if j0+w > nc {
			w = nc - j0
		}
		out := dst[panel*kc*nr : (panel+1)*kc*nr]
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
				d := out[p*nr : p*nr+w]
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

// scatterTerms adds the accumulator tile, weighted, into the mr×nr region at
// (r0, c0) of every C-side term in list order: the reference form of the
// fused update, and the path of C-term lists over MaxFusedTerms, of go4x4
// and of avx512's fringe tiles.
//
//fmm:hotpath
func scatterTerms[E matrix.Element](nrFull int, cTerms []Term[E], r0, c0 int, acc []E, mr, nr int) {
	for _, ct := range cTerms {
		scatterGeneric(nrFull, ct.M, r0, c0, ct.Coef, acc, mr, nr)
	}
}

// scatterGeneric adds coef·acc[0:mr, 0:nr] (acc row-major with row stride
// nrFull) to the mr×nr region of target m with top-left corner (r0, c0).
// Called once per C-side term — the ABC variant's "update multiple
// submatrices of C from registers".
//
//fmm:hotpath
func scatterGeneric[E matrix.Element](nrFull int, m matrix.Mat[E], r0, c0 int, coef E, acc []E, mr, nr int) {
	for i := 0; i < mr; i++ {
		row := m.Data[(r0+i)*m.Stride+c0 : (r0+i)*m.Stride+c0+nr]
		a := acc[i*nrFull : i*nrFull+nr]
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
