package kernel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRegistryBuiltins(t *testing.T) {
	names := Backends()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Backends() not sorted: %v", names)
	}
	// Empty name resolves to the default backend, which every build carries.
	def, err := Resolve[float64]("")
	if err != nil || def.Name() != DefaultBackend {
		t.Fatalf("Resolve[float64](\"\") = %v, %v; want %s", def, err, DefaultBackend)
	}
	if def.MR() != mr4x4 || def.NR() != nr4x4 {
		t.Fatalf("default backend tile %d×%d, want %d×%d", def.MR(), def.NR(), mr4x4, nr4x4)
	}
}

func TestResolveUnknown(t *testing.T) {
	if _, err := Resolve[float64]("no-such-backend"); err == nil {
		t.Fatal("unknown backend resolved")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustResolve must panic on unknown backend")
		}
	}()
	MustResolve[float64]("no-such-backend")
}

// TestGenericPackersOddTile drives the shared packers and scatter at a 2×3
// tile — a shape no registered backend uses, with mr ≠ nr and neither a power
// of two — against a naive element-by-element reference, for the single-term
// relayout and a three-term fused combination. It keeps non-4×4 coverage of
// the one packing routine on hosts where avx2 cannot register.
func TestGenericPackersOddTile(t *testing.T) {
	const mr, nr = 2, 3
	const r0, c0 = 1, 2
	rng := rand.New(rand.NewSource(14))
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-14 }
	for _, coefs := range [][]float64{{1}, {1, -0.5, 2}} {
		// combo(terms, i, j) is the reference Σ Coef·M[r0+i, c0+j].
		combo := func(terms []Term[float64], i, j int) float64 {
			var s float64
			for _, term := range terms {
				s += term.Coef * term.M.At(r0+i, c0+j)
			}
			return s
		}
		mkTerms := func(rows, cols int) []Term[float64] {
			terms := make([]Term[float64], len(coefs))
			for i, c := range coefs {
				terms[i] = Term[float64]{Coef: c, M: randMat(rng, rows+r0+1, cols+c0+1)}
			}
			return terms
		}

		// Ã: mc=5 leaves one padded lane in the last of three row-panels.
		mc, kc := 5, 4
		aTerms := mkTerms(mc, kc)
		abuf := make([]float64, packABufLen(mr, mc, kc))
		for i := range abuf {
			abuf[i] = math.NaN() // the packer must overwrite padding too
		}
		if n := packAGeneric(mr, abuf, aTerms, r0, c0, mc, kc); n != len(abuf) || n != 3*mr*kc {
			t.Fatalf("%d terms: packAGeneric wrote %d of %d, want %d", len(coefs), n, len(abuf), 3*mr*kc)
		}
		for i := 0; i < 3*mr; i++ {
			for p := 0; p < kc; p++ {
				got := abuf[(i/mr)*mr*kc+p*mr+i%mr]
				want := 0.0
				if i < mc {
					want = combo(aTerms, i, p)
				}
				if !near(got, want) {
					t.Fatalf("%d terms: Ã(%d,%d) = %g, want %g", len(coefs), i, p, got, want)
				}
			}
		}

		// B̃: nc=7 leaves two padded lanes in the last of three column-panels;
		// packing the panels in two ranges must equal packing them whole.
		nc := 7
		bTerms := mkTerms(kc, nc)
		whole := make([]float64, packBBufLen(nr, kc, nc))
		parts := make([]float64, len(whole))
		for i := range whole {
			whole[i], parts[i] = math.NaN(), math.NaN()
		}
		if n := packBGeneric(nr, whole, bTerms, r0, c0, kc, nc); n != len(whole) || n != 3*nr*kc {
			t.Fatalf("%d terms: packBGeneric wrote %d of %d, want %d", len(coefs), n, len(whole), 3*nr*kc)
		}
		packBRangeGeneric(nr, parts, bTerms, r0, c0, kc, nc, 2, 3)
		packBRangeGeneric(nr, parts, bTerms, r0, c0, kc, nc, 0, 2)
		for p := 0; p < kc; p++ {
			for j := 0; j < 3*nr; j++ {
				at := (j/nr)*kc*nr + p*nr + j%nr
				want := 0.0
				if j < nc {
					want = combo(bTerms, p, j)
				}
				if !near(whole[at], want) {
					t.Fatalf("%d terms: B̃(%d,%d) = %g, want %g", len(coefs), p, j, whole[at], want)
				}
				if parts[at] != whole[at] {
					t.Fatalf("%d terms: ranged pack differs from whole at (%d,%d)", len(coefs), p, j)
				}
			}
		}

		// Scatter one accumulator tile into every C-side term, full (2×3) and
		// fringe (1×2); everything outside the target region stays untouched.
		acc := make([]float64, mr*nr)
		for i := range acc {
			acc[i] = rng.Float64()
		}
		for _, tile := range [][2]int{{mr, nr}, {1, 2}} {
			for _, coef := range coefs {
				m := randMat(rng, 6, 7)
				before := m.Clone()
				scatterGeneric(nr, m, r0, c0, coef, acc, tile[0], tile[1])
				for i := 0; i < m.Rows; i++ {
					for j := 0; j < m.Cols; j++ {
						want := before.At(i, j)
						if ti, tj := i-r0, j-c0; ti >= 0 && ti < tile[0] && tj >= 0 && tj < tile[1] {
							want += coef * acc[ti*nr+tj]
						}
						if !near(m.At(i, j), want) {
							t.Fatalf("scatter %v coef %g: C(%d,%d) = %g, want %g", tile, coef, i, j, m.At(i, j), want)
						}
					}
				}
			}
		}
	}
}
