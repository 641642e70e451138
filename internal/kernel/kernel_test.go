package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fmmfam/internal/matrix"
)

// bk is the backend under test: these are go4x4's packing layouts, micro-kernel
// and scatter at its own 4×4 tile (the conformance suite covers every
// registered backend through the registry).
var bk = go4x4[float64]{}

func randMat(rng *rand.Rand, r, c int) matrix.Mat[float64] {
	m := matrix.New[float64](r, c)
	m.FillRand(rng)
	return m
}

// unpackA reads back the Ã layout into a dense mc×kc matrix.
func unpackA(buf []float64, mc, kc int) matrix.Mat[float64] {
	out := matrix.New[float64](mc, kc)
	for i := 0; i < mc; i++ {
		for p := 0; p < kc; p++ {
			out.Set(i, p, buf[(i/mr4x4)*mr4x4*kc+p*mr4x4+i%mr4x4])
		}
	}
	return out
}

// unpackB reads back the B̃ layout into a dense kc×nc matrix.
func unpackB(buf []float64, kc, nc int) matrix.Mat[float64] {
	out := matrix.New[float64](kc, nc)
	for p := 0; p < kc; p++ {
		for j := 0; j < nc; j++ {
			out.Set(p, j, buf[(j/nr4x4)*kc*nr4x4+p*nr4x4+j%nr4x4])
		}
	}
	return out
}

func TestPackASingleTermRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 10, 6)
	buf := make([]float64, bk.PackABufLen(7, 5))
	bk.PackA(buf, SingleTerm(m), 2, 1, 7, 5)
	got := unpackA(buf, 7, 5)
	want := m.View(2, 1, 7, 5)
	if got.MaxAbsDiff(want.Clone()) != 0 {
		t.Fatal("single-term PackA is not a relayout")
	}
}

func TestPackAZeroPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMat(rng, 5, 3)
	buf := make([]float64, bk.PackABufLen(5, 3))
	n := bk.PackA(buf, SingleTerm(m), 0, 0, 5, 3)
	if n != 8*3 {
		t.Fatalf("wrote %d, want 24", n)
	}
	// Rows 5..7 of the second panel must be zero lanes.
	for p := 0; p < 3; p++ {
		for lane := 1; lane < 4; lane++ {
			if buf[mr4x4*3+p*mr4x4+lane] != 0 {
				t.Fatal("padding not zeroed")
			}
		}
	}
}

func TestPackALinearCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := randMat(rng, 8, 8), randMat(rng, 8, 8)
	terms := []Term[float64]{{Coef: 1, M: x}, {Coef: -0.5, M: y}}
	buf := make([]float64, bk.PackABufLen(8, 8))
	bk.PackA(buf, terms, 0, 0, 8, 8)
	want := x.Clone()
	want.AddScaled(-0.5, y)
	if unpackA(buf, 8, 8).MaxAbsDiff(want) > 1e-15 {
		t.Fatal("fused combination differs from explicit sum")
	}
}

func TestPackAZeroCoefSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := randMat(rng, 4, 4), randMat(rng, 4, 4)
	buf := make([]float64, bk.PackABufLen(4, 4))
	bk.PackA(buf, []Term[float64]{{Coef: 1, M: x}, {Coef: 0, M: y}}, 0, 0, 4, 4)
	if unpackA(buf, 4, 4).MaxAbsDiff(x) != 0 {
		t.Fatal("zero-coef term contaminated the pack")
	}
}

func TestPackBSingleTermRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMat(rng, 9, 11)
	buf := make([]float64, bk.PackBBufLen(6, 7))
	bk.PackB(buf, SingleTerm(m), 3, 4, 6, 7)
	got := unpackB(buf, 6, 7)
	if got.MaxAbsDiff(m.View(3, 4, 6, 7).Clone()) != 0 {
		t.Fatal("single-term PackB is not a relayout")
	}
}

func TestPackBLinearCombinationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kc, nc := 1+rng.Intn(9), 1+rng.Intn(9)
		nTerms := 1 + rng.Intn(3)
		terms := make([]Term[float64], nTerms)
		want := matrix.New[float64](kc, nc)
		for i := range terms {
			m := randMat(rng, kc+2, nc+3)
			coef := float64(rng.Intn(5)-2) / 2
			terms[i] = Term[float64]{Coef: coef, M: m}
			want.AddScaled(coef, m.View(1, 2, kc, nc))
		}
		buf := make([]float64, bk.PackBBufLen(kc, nc))
		bk.PackB(buf, terms, 1, 2, kc, nc)
		return unpackB(buf, kc, nc).MaxAbsDiff(want) < 1e-14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMicroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, kc := range []int{1, 2, 7, 64} {
		a := randMat(rng, mr4x4, kc)
		b := randMat(rng, kc, nr4x4)
		abuf := make([]float64, bk.PackABufLen(mr4x4, kc))
		bbuf := make([]float64, bk.PackBBufLen(kc, nr4x4))
		bk.PackA(abuf, SingleTerm(a), 0, 0, mr4x4, kc)
		bk.PackB(bbuf, SingleTerm(b), 0, 0, kc, nr4x4)
		var acc [mr4x4 * nr4x4]float64
		bk.Micro(kc, abuf, bbuf, acc[:])
		want := matrix.New[float64](mr4x4, nr4x4)
		matrix.MulAdd(want, a, b)
		for i := 0; i < mr4x4; i++ {
			for j := 0; j < nr4x4; j++ {
				if d := acc[i*nr4x4+j] - want.At(i, j); d > 1e-12 || d < -1e-12 {
					t.Fatalf("kc=%d mismatch at (%d,%d): %g", kc, i, j, d)
				}
			}
		}
	}
}

func TestMicroZeroK(t *testing.T) {
	var acc [mr4x4 * nr4x4]float64
	acc[3] = 99
	bk.Micro(0, nil, nil, acc[:])
	if acc[3] != 0 {
		t.Fatal("kc=0 must produce a zero tile")
	}
}

func TestScatterFullTile(t *testing.T) {
	var acc [mr4x4 * nr4x4]float64
	for i := range acc {
		acc[i] = float64(i)
	}
	m := matrix.New[float64](6, 6)
	bk.Scatter(m, 1, 2, 2, acc[:], mr4x4, nr4x4)
	if m.At(1, 2) != 0 || m.At(2, 3) != 2*acc[1*nr4x4+1] || m.At(4, 5) != 2*acc[3*nr4x4+3] {
		t.Fatalf("scatter wrong:\n%v", m)
	}
}

func TestScatterPartialTileStaysInBounds(t *testing.T) {
	var acc [mr4x4 * nr4x4]float64
	for i := range acc {
		acc[i] = 1
	}
	m := matrix.New[float64](4, 4)
	m.Fill(5)
	bk.Scatter(m.View(0, 0, 2, 3), 0, 0, 1, acc[:], 2, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 5.0
			if i < 2 && j < 3 {
				want = 6
			}
			if m.At(i, j) != want {
				t.Fatalf("(%d,%d)=%v", i, j, m.At(i, j))
			}
		}
	}
}

func TestScatterAccumulates(t *testing.T) {
	var acc [mr4x4 * nr4x4]float64
	acc[0] = 3
	m := matrix.New[float64](mr4x4, nr4x4)
	bk.Scatter(m, 0, 0, 1, acc[:], mr4x4, nr4x4)
	bk.Scatter(m, 0, 0, -1, acc[:], mr4x4, nr4x4)
	if m.At(0, 0) != 0 {
		t.Fatal("scatter must accumulate")
	}
}

func TestBufLens(t *testing.T) {
	if bk.PackABufLen(5, 3) != 24 || bk.PackABufLen(4, 3) != 12 {
		t.Fatal("PackABufLen")
	}
	if bk.PackBBufLen(3, 5) != 24 || bk.PackBBufLen(3, 4) != 12 {
		t.Fatal("PackBBufLen")
	}
}

func TestPackBRangeEqualsWholePack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := randMat(rng, 12, 23), randMat(rng, 12, 23)
	terms := []Term[float64]{{Coef: 1, M: x}, {Coef: 0.5, M: y}}
	kc, nc := 9, 19
	whole := make([]float64, bk.PackBBufLen(kc, nc))
	bk.PackB(whole, terms, 1, 2, kc, nc)
	parts := make([]float64, bk.PackBBufLen(kc, nc))
	panels := (nc + nr4x4 - 1) / nr4x4
	// Pack in three uneven chunks.
	bk.PackBRange(parts, terms, 1, 2, kc, nc, 0, 2)
	bk.PackBRange(parts, terms, 1, 2, kc, nc, 2, 3)
	bk.PackBRange(parts, terms, 1, 2, kc, nc, 3, panels)
	for i := range whole {
		if whole[i] != parts[i] {
			t.Fatalf("chunked packing differs at %d", i)
		}
	}
}
