// Package conformance is the shared acceptance suite every micro-kernel
// backend must pass to be registered (see kernel.Backend). It drives a
// backend — by registry name and element type, exactly as Config.Kernel and
// the typed entry points will — through the pack-layout invariants, the
// micro-kernel and scatter contracts, the fused MicroScatter call against
// Micro + Scatter bit for bit, fused multi-term products against a naive
// reference, edge problem shapes around the backend's own MR/NR, the
// driver's determinism guarantees, and a differential fuzz target. All
// comparison tolerances are FLOP-scaled in units of the element type's
// machine epsilon, so the same suite gates float64 and float32 conformance.
// A new backend is added inside internal/kernel (one register line per dtype)
// and must pass, once per dtype it registers — TestRegisteredBackendsConform
// iterates the registry, so Run needs no new call; the fuzz target is one
// line per (backend, dtype):
//
//	func FuzzConformAVX512F32(f *testing.F) { conformance.FuzzDifferential[float32](f, "avx512") }
//
// The suite is intentionally written against the Backend interface and the
// public gemm driver only, so it cannot accidentally depend on an
// implementation detail of one backend.
package conformance

import (
	"math"
	"math/rand"
	"testing"

	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

// Run drives the full conformance suite against the named registered
// backend at element type E. Every subtest failure names the backend, so a
// matrix run over kernel.Backends() × dtypes pinpoints the offender.
func Run[E matrix.Element](t *testing.T, name string) {
	t.Helper()
	bk, err := kernel.Resolve[E](name)
	if err != nil {
		t.Fatalf("conformance: %v", err)
	}
	t.Run("Registration", func(t *testing.T) { checkRegistration(t, bk) })
	t.Run("BufLens", func(t *testing.T) { checkBufLens(t, bk) })
	t.Run("PackLayout", func(t *testing.T) { checkPackLayout(t, bk) })
	t.Run("PackLinearCombination", func(t *testing.T) { checkPackLinearCombination(t, bk) })
	t.Run("PackBRange", func(t *testing.T) { checkPackBRange(t, bk) })
	t.Run("MicroVsReference", func(t *testing.T) { checkMicro(t, bk) })
	t.Run("Scatter", func(t *testing.T) { checkScatter(t, bk) })
	t.Run("MicroScatter", func(t *testing.T) { checkMicroScatter(t, bk) })
	t.Run("EdgeShapes", func(t *testing.T) { checkEdgeShapes(t, bk) })
	t.Run("FusedMultiTerm", func(t *testing.T) { checkFusedMultiTerm(t, bk) })
	t.Run("DriverDeterminism", func(t *testing.T) { checkDriverDeterminism(t, bk) })
}

func checkRegistration[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	if bk.Name() == "" {
		t.Fatal("empty backend name")
	}
	if bk.MR() < 1 || bk.NR() < 1 {
		t.Fatalf("degenerate micro-tile %d×%d", bk.MR(), bk.NR())
	}
	if bk.Align() < 1 {
		t.Fatalf("degenerate alignment %d", bk.Align())
	}
	again, err := kernel.Resolve[E](bk.Name())
	if err != nil || again.Name() != bk.Name() {
		t.Fatalf("backend does not resolve to itself: %v", err)
	}
}

func checkBufLens[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	mr, nr := bk.MR(), bk.NR()
	for _, d := range []struct{ blk, kc int }{{1, 1}, {mr - 1, 3}, {mr, 7}, {mr + 1, 8}, {3*mr + 2, 17}} {
		if d.blk < 1 {
			continue
		}
		if got, want := bk.PackABufLen(d.blk, d.kc), ((d.blk+mr-1)/mr)*mr*d.kc; got != want {
			t.Errorf("PackABufLen(%d,%d)=%d, layout implies %d", d.blk, d.kc, got, want)
		}
		if got, want := bk.PackBBufLen(d.kc, d.blk), ((d.blk+nr-1)/nr)*nr*d.kc; got != want {
			t.Errorf("PackBBufLen(%d,%d)=%d, layout implies %d", d.kc, d.blk, got, want)
		}
	}
}

// unpackA reads an Ã buffer back into a dense mc×kc matrix using the
// canonical panel layout with the backend's MR.
func unpackA[E matrix.Element](bk kernel.Backend[E], buf []E, mc, kc int) matrix.Mat[E] {
	mr := bk.MR()
	out := matrix.New[E](mc, kc)
	for i := 0; i < mc; i++ {
		for p := 0; p < kc; p++ {
			out.Set(i, p, buf[(i/mr)*mr*kc+p*mr+i%mr])
		}
	}
	return out
}

// unpackB reads a B̃ buffer back into a dense kc×nc matrix.
func unpackB[E matrix.Element](bk kernel.Backend[E], buf []E, kc, nc int) matrix.Mat[E] {
	nr := bk.NR()
	out := matrix.New[E](kc, nc)
	for p := 0; p < kc; p++ {
		for j := 0; j < nc; j++ {
			out.Set(p, j, buf[(j/nr)*kc*nr+p*nr+j%nr])
		}
	}
	return out
}

// nan returns a NaN of the element type, for poisoning buffers that must be
// fully overwritten.
func nan[E matrix.Element]() E { return E(math.NaN()) }

// checkPackLayout: a single-term pack is a pure relayout (round-trips through
// unpack), the padding rows/columns are zero, and the reported write count
// matches PackABufLen/PackBBufLen.
func checkPackLayout[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	rng := rand.New(rand.NewSource(101))
	mr, nr := bk.MR(), bk.NR()
	for _, d := range []struct{ mc, kc int }{{1, 1}, {mr, 3}, {mr + 1, 5}, {2*mr + 1, 8}} {
		src := matrix.New[E](d.mc+3, d.kc+2)
		src.FillRand(rng)
		buf := make([]E, bk.PackABufLen(d.mc, d.kc))
		for i := range buf {
			buf[i] = nan[E]() // padding must be written, not inherited
		}
		n := bk.PackA(buf, kernel.SingleTerm(src), 2, 1, d.mc, d.kc)
		if n != len(buf) {
			t.Fatalf("PackA(mc=%d,kc=%d) wrote %d, want %d", d.mc, d.kc, n, len(buf))
		}
		if unpackA(bk, buf, d.mc, d.kc).MaxAbsDiff(src.View(2, 1, d.mc, d.kc).Clone()) != 0 {
			t.Fatalf("single-term PackA(mc=%d,kc=%d) is not a relayout", d.mc, d.kc)
		}
		panels := (d.mc + mr - 1) / mr
		for i := d.mc; i < panels*mr; i++ { // zero padding beyond mc
			for p := 0; p < d.kc; p++ {
				if v := buf[(i/mr)*mr*d.kc+p*mr+i%mr]; v != 0 {
					t.Fatalf("PackA padding row %d col %d = %v, want 0", i, p, v)
				}
			}
		}
	}
	for _, d := range []struct{ kc, nc int }{{1, 1}, {3, nr}, {5, nr + 1}, {8, 2*nr + 1}} {
		src := matrix.New[E](d.kc+2, d.nc+3)
		src.FillRand(rng)
		buf := make([]E, bk.PackBBufLen(d.kc, d.nc))
		for i := range buf {
			buf[i] = nan[E]()
		}
		n := bk.PackB(buf, kernel.SingleTerm(src), 1, 2, d.kc, d.nc)
		if n != len(buf) {
			t.Fatalf("PackB(kc=%d,nc=%d) wrote %d, want %d", d.kc, d.nc, n, len(buf))
		}
		if unpackB(bk, buf, d.kc, d.nc).MaxAbsDiff(src.View(1, 2, d.kc, d.nc).Clone()) != 0 {
			t.Fatalf("single-term PackB(kc=%d,nc=%d) is not a relayout", d.kc, d.nc)
		}
		panels := (d.nc + nr - 1) / nr
		for j := d.nc; j < panels*nr; j++ { // zero padding beyond nc
			for p := 0; p < d.kc; p++ {
				if v := buf[(j/nr)*d.kc*nr+p*nr+j%nr]; v != 0 {
					t.Fatalf("PackB padding col %d row %d = %v, want 0", j, p, v)
				}
			}
		}
	}
}

// checkPackLinearCombination: packing a term list equals packing the
// explicitly accumulated combination, and zero-coefficient terms are inert.
func checkPackLinearCombination[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	rng := rand.New(rand.NewSource(102))
	mr := bk.MR()
	mc, kc := 2*mr+1, 6
	x, y, z := matrix.New[E](mc, kc), matrix.New[E](mc, kc), matrix.New[E](mc, kc)
	x.FillRand(rng)
	y.FillRand(rng)
	z.FillRand(rng)
	terms := []kernel.Term[E]{{Coef: 1, M: x}, {Coef: -0.5, M: y}, {Coef: 0, M: z}}
	want := x.Clone()
	want.AddScaled(-0.5, y)
	buf := make([]E, bk.PackABufLen(mc, kc))
	bk.PackA(buf, terms, 0, 0, mc, kc)
	// Both sides accumulate the two-term combination in one order, so the
	// only admissible gap is a couple of rounding units.
	limit := 4 * matrix.Eps[E]()
	if d := unpackA(bk, buf, mc, kc).MaxAbsDiff(want); d > limit {
		t.Fatalf("fused A combination differs from explicit sum by %g", d)
	}
	bbuf := make([]E, bk.PackBBufLen(mc, kc))
	bk.PackB(bbuf, []kernel.Term[E]{{Coef: 0.25, M: x}, {Coef: 2, M: y}}, 0, 0, mc, kc)
	wantB := matrix.New[E](mc, kc)
	wantB.AddScaled(0.25, x)
	wantB.AddScaled(2, y)
	if d := unpackB(bk, bbuf, mc, kc).MaxAbsDiff(wantB); d > limit {
		t.Fatalf("fused B combination differs from explicit sum by %g", d)
	}
}

// checkPackBRange: packing panel sub-ranges covers exactly the whole-pack
// result — the invariant the driver's parallel packB relies on.
func checkPackBRange[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	rng := rand.New(rand.NewSource(103))
	nr := bk.NR()
	kc, nc := 9, 4*nr+3
	x, y := matrix.New[E](kc+1, nc+2), matrix.New[E](kc+1, nc+2)
	x.FillRand(rng)
	y.FillRand(rng)
	terms := []kernel.Term[E]{{Coef: 1, M: x}, {Coef: 0.5, M: y}}
	whole := make([]E, bk.PackBBufLen(kc, nc))
	bk.PackB(whole, terms, 1, 2, kc, nc)
	parts := make([]E, bk.PackBBufLen(kc, nc))
	panels := (nc + nr - 1) / nr
	for lo := 0; lo < panels; { // uneven chunks
		hi := lo + 1 + lo%2
		if hi > panels {
			hi = panels
		}
		bk.PackBRange(parts, terms, 1, 2, kc, nc, lo, hi)
		lo = hi
	}
	for i := range whole {
		if whole[i] != parts[i] {
			t.Fatalf("chunked PackBRange differs from whole pack at %d", i)
		}
	}
}

// checkMicro: the micro-kernel's MR×NR rank-kc product matches the reference
// triple loop, overwrites acc completely (kc=0 must yield a zero tile), and
// never reads past kc panels.
func checkMicro[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	rng := rand.New(rand.NewSource(104))
	mr, nr := bk.MR(), bk.NR()
	for _, kc := range []int{0, 1, 2, 3, 7, 64} {
		a, b := matrix.New[E](mr, max(kc, 1)), matrix.New[E](max(kc, 1), nr)
		a.FillRand(rng)
		b.FillRand(rng)
		abuf := make([]E, bk.PackABufLen(mr, max(kc, 1)))
		bbuf := make([]E, bk.PackBBufLen(max(kc, 1), nr))
		bk.PackA(abuf, kernel.SingleTerm(a), 0, 0, mr, max(kc, 1))
		bk.PackB(bbuf, kernel.SingleTerm(b), 0, 0, max(kc, 1), nr)
		acc := make([]E, mr*nr)
		for i := range acc {
			// Poison with a huge finite value (not NaN: the |acc−want| > limit
			// guard below is inert for NaN) — a kernel that accumulates into
			// acc instead of overwriting it, or skips elements, blows the
			// tolerance by ~30 orders of magnitude in either dtype.
			acc[i] = E(1e30)
		}
		bk.Micro(kc, abuf, bbuf, acc)
		want := matrix.New[E](mr, nr)
		if kc > 0 {
			matrix.MulAdd(want, a, b)
		}
		// Both sides are E-precision dot products of length kc over operands
		// in [-1, 1); the association orders may differ.
		limit := 8 * matrix.Eps[E]() * float64(kc+16)
		for i := 0; i < mr; i++ {
			for j := 0; j < nr; j++ {
				if d := math.Abs(float64(acc[i*nr+j]) - float64(want.At(i, j))); d > limit {
					t.Fatalf("kc=%d micro mismatch at (%d,%d): %g", kc, i, j, d)
				}
			}
		}
	}
}

// checkScatter: full and partial tiles accumulate coef·acc into exactly the
// target region — neighbors of a view must be untouched.
func checkScatter[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	mr, nr := bk.MR(), bk.NR()
	acc := make([]E, mr*nr)
	for i := range acc {
		acc[i] = E(i + 1)
	}
	host := matrix.New[E](mr+4, nr+4)
	host.Fill(5)
	bk.Scatter(host, 2, 3, -2, acc, mr, nr)
	for i := 0; i < host.Rows; i++ {
		for j := 0; j < host.Cols; j++ {
			want := E(5)
			if i >= 2 && i < 2+mr && j >= 3 && j < 3+nr {
				want = 5 - 2*acc[(i-2)*nr+(j-3)]
			}
			if host.At(i, j) != want {
				t.Fatalf("full-tile scatter (%d,%d)=%v, want %v", i, j, host.At(i, j), want)
			}
		}
	}
	// Partial fringe tile: mr-1 × nr-1 (when the tile has room to shrink).
	pm, pn := max(mr-1, 1), max(nr-1, 1)
	host2 := matrix.New[E](mr+2, nr+2)
	bk.Scatter(host2, 0, 0, 1, acc, pm, pn)
	for i := 0; i < host2.Rows; i++ {
		for j := 0; j < host2.Cols; j++ {
			want := E(0)
			if i < pm && j < pn {
				want = acc[i*nr+j]
			}
			if host2.At(i, j) != want {
				t.Fatalf("partial scatter (%d,%d)=%v, want %v", i, j, host2.At(i, j), want)
			}
		}
	}
}

// scatterKCs and scatterTermCounts are the rank-kc lengths and C-term list
// lengths checkMicroScatter crosses. A backend may cut its rank-kc loop into
// one stretch per term (avx2 prefetches one term's tile ahead of each), so
// the pairs cover every edge of such a cut for unrollings up to four: fewer
// unrolled trips than terms (stretches of zero), a trip count the term count
// does not divide, kc off the unrolling, the driver's KC and its neighbours,
// and lists at the fused cap and one past it.
var (
	scatterKCs        = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 255, 256, 257}
	scatterTermCounts = []int{1, 2, 3, 4, 7, kernel.MaxFusedTerms, kernel.MaxFusedTerms + 1}
)

// scatterLayout places the C terms of one checkMicroScatter case in
// canary-filled hosts: a term's view starts one row down and off columns
// into a host whose row stride is the smallest multiple of strideUnit with
// room for the view and a canary column after it; stacked puts every term in
// one host, one below the other, instead of a host each.
type scatterLayout struct {
	name            string
	off, strideUnit int
	stacked         bool
}

// scatterLayouts: each term alone in a host with room for the canary ring
// only; each at an odd column offset of a wider host; and all of them views
// of one host, stacked at one column origin a whole 128-byte line pair in,
// with rows a page apart — every row of every term's tile then has the same
// offset in its line pair and in its page, as the quadrants of a matrix with
// a power-of-two row stride have, which is the layout a prefetch schedule is
// most sensitive to.
func scatterLayouts[E matrix.Element]() []scatterLayout {
	size := matrix.DtypeOf[E]().Size()
	return []scatterLayout{
		{name: "whole", off: 1, strideUnit: 1},
		{name: "oddview", off: 7, strideUnit: 13},
		{name: "onehost", off: 128 / size, strideUnit: 4096 / size, stacked: true},
	}
}

// checkMicroScatter: the fused micro-kernel leaves in C exactly the bits that
// Micro followed by one Scatter per term, in list order, leaves — on full and
// fringe tiles, across scatterKCs × scatterTermCounts, for coefficients that
// multiply exactly and ones that round, and in every scatterLayouts
// placement. Everything outside the mr×nr tiles is canary, so a store outside
// a tile shows as a changed canary.
func checkMicroScatter[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	rng := rand.New(rand.NewSource(108))
	mr, nr := bk.MR(), bk.NR()
	const canary = 77
	const r0, c0 = 2, 3 // the tile's origin inside each term
	coefs := []E{1, -1, 0.5, -0.375, 3, 1.0 / 3}
	layouts := scatterLayouts[E]()
	for _, kc := range scatterKCs {
		a, b := matrix.New[E](mr, kc), matrix.New[E](kc, nr)
		a.FillRand(rng)
		b.FillRand(rng)
		ap := make([]E, bk.PackABufLen(mr, kc))
		bp := make([]E, bk.PackBBufLen(kc, nr))
		bk.PackA(ap, kernel.SingleTerm(a), 0, 0, mr, kc)
		bk.PackB(bp, kernel.SingleTerm(b), 0, 0, kc, nr)
		for _, tile := range [][2]int{{mr, nr}, {max(mr-1, 1), nr}, {mr, max(nr-1, 1)}, {1, 1}} {
			tm, tn := tile[0], tile[1]
			rows, cols := r0+tm, c0+tn
			for _, nTerms := range scatterTermCounts {
				for _, layout := range layouts {
					count, hostRows := nTerms, rows+2
					if layout.stacked {
						count, hostRows = 1, nTerms*(rows+2)
					}
					hostCols := (layout.off + cols + layout.strideUnit) / layout.strideUnit * layout.strideUnit
					view := func(hosts []matrix.Mat[E], i int) matrix.Mat[E] {
						if layout.stacked {
							return hosts[0].View(1+i*(rows+2), layout.off, rows, cols)
						}
						return hosts[i].View(1, layout.off, rows, cols)
					}
					fused := make([]matrix.Mat[E], count)
					for h := range fused {
						fused[h] = matrix.New[E](hostRows, hostCols)
						fused[h].Fill(canary)
					}
					fTerms := make([]kernel.Term[E], nTerms)
					for i := range fTerms {
						fTerms[i] = kernel.Term[E]{Coef: coefs[(i+nTerms)%len(coefs)], M: view(fused, i)}
						fTerms[i].M.View(r0, c0, tm, tn).FillRand(rng)
					}
					split := make([]matrix.Mat[E], count)
					for h := range split {
						split[h] = fused[h].Clone()
					}
					sTerms := make([]kernel.Term[E], nTerms)
					for i := range sTerms {
						sTerms[i] = kernel.Term[E]{Coef: fTerms[i].Coef, M: view(split, i)}
					}
					acc := make([]E, mr*nr)
					bk.MicroScatter(kc, ap, bp, acc, fTerms, r0, c0, tm, tn)
					bk.Micro(kc, ap, bp, acc)
					for _, st := range sTerms {
						bk.Scatter(st.M, r0, c0, st.Coef, acc, tm, tn)
					}
					// Tiles bit for bit, then blanked so that what is left of
					// every host must be canary.
					for i := range fTerms {
						for r := r0; r < rows; r++ {
							for c := c0; c < cols; c++ {
								got, want := fTerms[i].M.At(r, c), sTerms[i].M.At(r, c)
								if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
									t.Fatalf("kc=%d tile %d×%d terms=%d %s: term %d (%d,%d) fused %v, Micro+Scatter %v",
										kc, tm, tn, nTerms, layout.name, i, r-r0, c-c0, got, want)
								}
								fTerms[i].M.Set(r, c, canary)
							}
						}
					}
					for h := range fused {
						for r := 0; r < hostRows; r++ {
							for c := 0; c < hostCols; c++ {
								if got := fused[h].At(r, c); got != canary {
									t.Fatalf("kc=%d tile %d×%d terms=%d %s: host %d canary at (%d,%d) overwritten with %v",
										kc, tm, tn, nTerms, layout.name, h, r, c, got)
								}
							}
						}
					}
				}
			}
		}
	}
}

// driverConfigs are the blocking configurations the driver-level checks run
// under: minimal (every loop degenerate), deliberately unaligned to the
// micro-tile, and parallel.
func driverConfigs[E matrix.Element](bk kernel.Backend[E]) []gemm.Config {
	mr, nr := bk.MR(), bk.NR()
	return []gemm.Config{
		{MC: mr, KC: 1, NC: nr, Threads: 1, Kernel: bk.Name()},
		{MC: 2*mr + 1, KC: 7, NC: 2*nr + 3, Threads: 1, Kernel: bk.Name()},
		{MC: 3 * mr, KC: 5, NC: 3 * nr, Threads: 3, Kernel: bk.Name()},
	}
}

// checkEdgeShapes sweeps the driver over every combination of edge dimensions
// around the backend's own micro-tile — m,n,k ∈ {1, MR−1, MR, MR+1, …} — the
// shapes where fringe handling, padding, and partial panels all bite.
func checkEdgeShapes[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	rng := rand.New(rand.NewSource(105))
	mr, nr := bk.MR(), bk.NR()
	dims := EdgeDims(mr, nr)
	for _, cfg := range driverConfigs(bk) {
		ctx, err := gemm.NewContext[E](cfg)
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		for _, m := range dims {
			for _, k := range dims {
				for _, n := range dims {
					a, b := matrix.New[E](m, k), matrix.New[E](k, n)
					a.FillRand(rng)
					b.FillRand(rng)
					c := matrix.New[E](m, n)
					c.FillRand(rng)
					want := c.Clone()
					matrix.MulAdd(want, a, b)
					ctx.MulAdd(c, a, b)
					if d := c.MaxAbsDiff(want); d > tol[E](k, 1, 1) {
						t.Fatalf("cfg MC=%d KC=%d NC=%d threads=%d shape %d×%d×%d: diff %g",
							cfg.MC, cfg.KC, cfg.NC, cfg.Threads, m, k, n, d)
					}
				}
			}
		}
	}
}

// EdgeDims returns the deduplicated positive edge sizes around a backend's
// micro-tile mr×nr: the fringe dimensions the driver-level checks sweep, also
// used by the executor's zero-level plan test.
func EdgeDims(mr, nr int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range []int{1, mr - 1, mr, mr + 1, nr - 1, nr, nr + 1, 2*mr + 3, 33} {
		if v >= 1 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// checkFusedMultiTerm: the generalized fused operation — several weighted A,
// B, and C terms, the paper's Figure-1 (right) building block — matches the
// explicit naive evaluation.
func checkFusedMultiTerm[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	rng := rand.New(rand.NewSource(106))
	mr, nr := bk.MR(), bk.NR()
	m, k, n := 2*mr+3, 13, 2*nr+5
	for _, cfg := range driverConfigs(bk) {
		ctx := gemm.MustNewContext[E](cfg)
		for trial := 0; trial < 4; trial++ {
			aTerms := randTerms[E](rng, 1+trial%3, m, k)
			bTerms := randTerms[E](rng, 1+(trial+1)%3, k, n)
			cTerms := randTerms[E](rng, 1+(trial+2)%3, m, n)
			// Explicit reference: asum·bsum scattered into every C term.
			asum, bsum := matrix.New[E](m, k), matrix.New[E](k, n)
			for _, tm := range aTerms {
				asum.AddScaled(tm.Coef, tm.M)
			}
			for _, tm := range bTerms {
				bsum.AddScaled(tm.Coef, tm.M)
			}
			prod := matrix.New[E](m, n)
			matrix.MulAdd(prod, asum, bsum)
			wants := make([]matrix.Mat[E], len(cTerms))
			for i, tm := range cTerms {
				wants[i] = tm.M.Clone()
				wants[i].AddScaled(tm.Coef, prod)
			}
			ctx.FusedMulAdd(cTerms, aTerms, bTerms)
			for i, tm := range cTerms {
				if d := tm.M.MaxAbsDiff(wants[i]); d > tol[E](k, len(aTerms), len(bTerms)) {
					t.Fatalf("trial %d C-term %d: fused vs explicit diff %g", trial, i, d)
				}
			}
		}
	}
}

// checkDriverDeterminism: serial and parallel executions of the same fused
// call must agree bit-for-bit, and repeated runs must be bit-identical —
// the invariants the serving layer's determinism contracts stand on. These
// hold structurally for any conforming backend and either dtype: each C
// element is written by exactly one micro-tile, whichever worker computes it.
func checkDriverDeterminism[E matrix.Element](t *testing.T, bk kernel.Backend[E]) {
	rng := rand.New(rand.NewSource(107))
	mr, nr := bk.MR(), bk.NR()
	m, k, n := 5*mr+1, 23, 5*nr+1
	a, b := matrix.New[E](m, k), matrix.New[E](k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	serial := gemm.MustNewContext[E](gemm.Config{MC: 2 * mr, KC: 6, NC: 2 * nr, Threads: 1, Kernel: bk.Name()})
	parallel := gemm.MustNewContext[E](gemm.Config{MC: 2 * mr, KC: 6, NC: 2 * nr, Threads: 4, Kernel: bk.Name()})
	c1, c2, c3 := matrix.New[E](m, n), matrix.New[E](m, n), matrix.New[E](m, n)
	serial.MulAdd(c1, a, b)
	parallel.MulAdd(c2, a, b)
	parallel.MulAdd(c3, a, b)
	if d := c1.MaxAbsDiff(c2); d != 0 {
		t.Fatalf("parallel result differs from serial by %g (must be bit-identical)", d)
	}
	if d := c2.MaxAbsDiff(c3); d != 0 {
		t.Fatalf("repeated parallel runs differ by %g (must be bit-identical)", d)
	}
}

// randTerms builds n random r×c terms with coefficients from a small exact
// set (so reference accumulation stays comparable in either dtype).
func randTerms[E matrix.Element](rng *rand.Rand, n, r, c int) []kernel.Term[E] {
	coefs := []E{1, -1, 0.5, -0.5, 2, 0.25}
	out := make([]kernel.Term[E], n)
	for i := range out {
		m := matrix.New[E](r, c)
		m.FillRand(rng)
		out[i] = kernel.Term[E]{Coef: coefs[rng.Intn(len(coefs))], M: m}
	}
	return out
}

// tol is the FLOP-scaled comparison tolerance for |fused − naive|: both
// sides are E-precision evaluations of the same polynomial in different
// association orders, so the gap grows with the reduction depth k and the
// term counts, scaled by the element type's machine epsilon (≈2.2e-16 for
// float64 — matching the historical 1e-14-based bound — and ≈1.2e-7 for
// float32). Operands are in [−1, 1) and coefficients bounded by 2, so
// per-element magnitude is bounded by 2·nA·2·nB·k ≈ 4·nA·nB·k.
func tol[E matrix.Element](k, nA, nB int) float64 {
	return 45 * matrix.Eps[E]() * float64(k+16) * 4 * float64(nA) * float64(nB)
}

// FuzzDifferential registers a differential fuzz target for the named
// backend at element type E: random shapes, coefficients, and term counts,
// driven through the fused driver and compared against the naive reference
// with the FLOP-scaled tolerance of the element type. The seed corpus pins
// the edge tiles plus a K-dominant shape. A backend this build knows but
// this host or build cannot run (kernel.UnavailableReason) skips the target
// with the recorded reason, so fuzz discovery stays green on purego and
// non-AVX2 hosts; an unknown name is a test bug and stays fatal.
func FuzzDifferential[E matrix.Element](f *testing.F, name string) {
	bk, err := kernel.Resolve[E](name)
	if err != nil {
		if reason := kernel.UnavailableReason(name); reason != "" {
			f.Skipf("conformance: backend %q unavailable: %s", name, reason)
		}
		f.Fatalf("conformance: %v", err)
	}
	mr, nr := bk.MR(), bk.NR()
	f.Add(int64(1), uint16(1), uint16(1), uint16(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(2), uint16(mr+1), uint16(7), uint16(nr+1), uint8(2), uint8(2), uint8(3))
	f.Add(int64(3), uint16(2*mr+3), uint16(96), uint16(2*nr+1), uint8(3), uint8(1), uint8(2))
	f.Add(int64(4), uint16(40), uint16(513), uint16(52), uint8(2), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m16, k16, n16 uint16, nA8, nB8, nC8 uint8) {
		DifferentialCheck[E](t, name, seed, m16, k16, n16, nA8, nB8, nC8)
	})
}

// DifferentialCheck is one differential-fuzz execution: it normalizes the
// raw fuzz inputs into a bounded fused problem, runs it through the
// backend's driver at element type E, and compares against the naive
// reference. Exported so backend packages can replay interesting inputs as
// plain tests.
func DifferentialCheck[E matrix.Element](t *testing.T, name string, seed int64, m16, k16, n16 uint16, nA8, nB8, nC8 uint8) {
	t.Helper()
	bk, err := kernel.Resolve[E](name)
	if err != nil {
		t.Fatalf("conformance: %v", err)
	}
	m := 1 + int(m16)%96
	k := 1 + int(k16)%600
	n := 1 + int(n16)%96
	for m*k*n > 1<<21 { // bound the naive reference's cost per execution
		k = k/2 + 1
	}
	nA := 1 + int(nA8)%3
	nB := 1 + int(nB8)%3
	nC := 1 + int(nC8)%3
	rng := rand.New(rand.NewSource(seed))
	aTerms := randTerms[E](rng, nA, m, k)
	bTerms := randTerms[E](rng, nB, k, n)
	cTerms := randTerms[E](rng, nC, m, n)

	asum, bsum := matrix.New[E](m, k), matrix.New[E](k, n)
	for _, tm := range aTerms {
		asum.AddScaled(tm.Coef, tm.M)
	}
	for _, tm := range bTerms {
		bsum.AddScaled(tm.Coef, tm.M)
	}
	prod := matrix.New[E](m, n)
	matrix.MulAdd(prod, asum, bsum)
	wants := make([]matrix.Mat[E], len(cTerms))
	for i, tm := range cTerms {
		wants[i] = tm.M.Clone()
		wants[i].AddScaled(tm.Coef, prod)
	}

	mr, nr := bk.MR(), bk.NR()
	us := uint64(seed)
	cfg := gemm.Config{
		MC:      mr * (1 + int((us>>1)%3)),
		KC:      1 + int((us>>3)%24),
		NC:      nr * (1 + int((us>>5)%3)),
		Threads: 1 + int((us>>7)%3),
		Kernel:  bk.Name(),
	}
	ctx, err := gemm.NewContext[E](cfg)
	if err != nil {
		t.Fatalf("config %+v: %v", cfg, err)
	}
	ctx.FusedMulAdd(cTerms, aTerms, bTerms)
	limit := tol[E](k, nA, nB)
	for i, tm := range cTerms {
		if d := tm.M.MaxAbsDiff(wants[i]); d > limit {
			t.Fatalf("backend %s/%s shape %d×%d×%d terms %d/%d/%d cfg %+v: C-term %d fused vs naive diff %g > %g",
				name, matrix.DtypeOf[E](), m, k, n, nA, nB, nC, cfg, i, d, limit)
		}
	}
}
