package main

import (
	"math"
	"math/rand"

	"fmmfam/internal/matrix"
)

// freivalds is a seeded O(n²) probe for C = A·B: with a random vector x it
// compares C·x against A·(B·x), which any wrong tile, slab or term of C
// fails by many orders of magnitude more than rounding can explain.
type freivalds struct {
	x   []float64 // n
	abx []float64 // m: A·(B·x), computed once
	tol float64
}

func newFreivalds(rng *rand.Rand, a, b matrix.Mat[float64]) freivalds {
	f := freivalds{x: make([]float64, b.Cols)}
	for i := range f.x {
		f.x[i] = 2*rng.Float64() - 1
	}
	f.abx = matVec(a, matVec(b, f.x))
	// Each entry of C carries at most relTol(k) of error and C·x sums n of
	// them against |x| ≤ 1.
	f.tol = relTol[float64](a.Cols) * float64(b.Cols)
	return f
}

func matVec(m matrix.Mat[float64], x []float64) []float64 {
	y := make([]float64, m.Rows)
	for i := range y {
		s := 0.0
		for j, v := range m.Data[i*m.Stride : i*m.Stride+m.Cols] {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// residual is ‖C·x − A·(B·x)‖∞.
func (f freivalds) residual(c matrix.Mat[float64]) float64 {
	worst := 0.0
	for i, y := range matVec(c, f.x) {
		d := math.Abs(y - f.abx[i])
		if d != d {
			return math.Inf(1)
		}
		worst = math.Max(worst, d)
	}
	return worst
}

func (f freivalds) ok(c matrix.Mat[float64]) bool { return f.residual(c) <= f.tol }
