package gemm

import (
	"fmt"
	"testing"
	"unsafe"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

// alignStub is a minimal Backend whose only interesting property is its
// declared tile shape and alignment: exactly what workspace construction
// consults. Pack/Micro/Scatter are never called here.
type alignStub[E matrix.Element] struct {
	mr, nr, align int
}

func (s alignStub[E]) Name() string { return "alignstub" }
func (s alignStub[E]) MR() int      { return s.mr }
func (s alignStub[E]) NR() int      { return s.nr }
func (s alignStub[E]) Align() int   { return s.align }
func (s alignStub[E]) PackA(dst []E, terms []kernel.Term[E], r0, c0, mc, kc int) int {
	return 0
}
func (s alignStub[E]) PackB(dst []E, terms []kernel.Term[E], r0, c0, kc, nc int) int {
	return 0
}
func (s alignStub[E]) PackBRange(dst []E, terms []kernel.Term[E], r0, c0, kc, nc, lo, hi int) {}
func (s alignStub[E]) Micro(kc int, ap, bp, acc []E)                                          {}
func (s alignStub[E]) Scatter(m matrix.Mat[E], r0, c0 int, coef E, acc []E, mr, nr int)       {}
func (s alignStub[E]) MicroScatter(kc int, ap, bp, acc []E, cTerms []kernel.Term[E], r0, c0, mr, nr int) {
}
func (s alignStub[E]) PackABufLen(mc, kc int) int {
	return ((mc + s.mr - 1) / s.mr) * s.mr * kc
}
func (s alignStub[E]) PackBBufLen(kc, nc int) int {
	return ((nc + s.nr - 1) / s.nr) * s.nr * kc
}

// elemAligned reports whether the first element of buf sits on an
// align-element boundary.
func elemAligned[E matrix.Element](buf []E, align int) bool {
	if len(buf) == 0 || align <= 1 {
		return true
	}
	return uintptr(unsafe.Pointer(&buf[0]))%(uintptr(align)*unsafe.Sizeof(buf[0])) == 0
}

// testWorkspacePanelAlignment is the property the SIMD backends stand on:
// for any Align ∈ {1, 4, 8} elements (1 = scalar, 4 = 32 bytes of float64,
// 8 = 32 bytes of float32), every packed buffer newWorkspace hands a backend
// starts on an Align-element boundary, and every Ã row-panel start inside
// the buffer does too whenever the backend's panel stride (MR·kc) is a
// multiple of Align — which holds for both avx2 tile shapes at any kc. B̃
// column-panel starts are additionally checked when the stride kc·NR happens
// to be Align-divisible; the avx2 kernels only broadcast single elements
// from B̃, so only the buffer start carries a hard guarantee there.
func testWorkspacePanelAlignment[E matrix.Element](t *testing.T) {
	shapes := []struct{ mr, nr int }{
		{8, 6},  // avx2 float64 tile
		{16, 6}, // avx2 float32 tile
		{16, 8}, // B̃-panel-aligned shape: kc·NR divisible by every tested Align
	}
	for _, align := range []int{1, 4, 8} {
		for _, sh := range shapes {
			for _, blk := range []struct{ mc, kc, nc, threads int }{
				{sh.mr, 1, sh.nr, 1},
				{2*sh.mr + 1, 7, 2*sh.nr + 3, 3},
				{3 * sh.mr, 5, 3 * sh.nr, 2},
			} {
				name := fmt.Sprintf("align%d/mr%d_nr%d/mc%d_kc%d_nc%d_t%d",
					align, sh.mr, sh.nr, blk.mc, blk.kc, blk.nc, blk.threads)
				bk := alignStub[E]{mr: sh.mr, nr: sh.nr, align: align}
				cfg := Config{MC: blk.mc, KC: blk.kc, NC: blk.nc, Threads: blk.threads, Kernel: "alignstub"}
				ws := newWorkspace[E](cfg, bk)
				if !elemAligned(ws.bbuf, align) {
					t.Fatalf("%s: B̃ buffer start misaligned", name)
				}
				for w, abuf := range ws.abufs {
					if !elemAligned(abuf, align) {
						t.Fatalf("%s: Ã buffer %d start misaligned", name, w)
					}
					if (sh.mr*blk.kc)%align == 0 {
						for off := 0; off < len(abuf); off += sh.mr * blk.kc {
							if !elemAligned(abuf[off:], align) {
								t.Fatalf("%s: Ã panel at element %d misaligned", name, off)
							}
						}
					}
					if !elemAligned(ws.accs[w], align) {
						t.Fatalf("%s: acc tile %d start misaligned", name, w)
					}
				}
				if (blk.kc*sh.nr)%align == 0 {
					for off := 0; off < len(ws.bbuf); off += blk.kc * sh.nr {
						if !elemAligned(ws.bbuf[off:], align) {
							t.Fatalf("%s: B̃ panel at element %d misaligned", name, off)
						}
					}
				}
			}
		}
	}
}

// TestWorkspacePanelAlignment asserts (not just computes) the Backend.Align
// contract for both element types; the construction-time assertAligned check
// backs the same property in production builds.
func TestWorkspacePanelAlignment(t *testing.T) {
	t.Run("float64", testWorkspacePanelAlignment[float64])
	t.Run("float32", testWorkspacePanelAlignment[float32])
}

// TestWorkspaceBackendAlignment pins the property on the real registered
// backends, including avx2 where this host registers it: the workspaces the
// driver actually rents satisfy each backend's own declared alignment.
func TestWorkspaceBackendAlignment(t *testing.T) {
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		bk := kernel.MustResolve[float64](name)
		cfg := Config{MC: 2 * bk.MR(), KC: 7, NC: 2 * bk.NR(), Threads: 2, Kernel: name}
		ws := newWorkspace[float64](cfg, bk)
		if !elemAligned(ws.bbuf, bk.Align()) {
			t.Fatalf("%s: B̃ start misaligned", name)
		}
		for w, abuf := range ws.abufs {
			if !elemAligned(abuf, bk.Align()) {
				t.Fatalf("%s: Ã %d start misaligned", name, w)
			}
		}
	}
}
