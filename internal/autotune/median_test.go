package autotune

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 10}, 10},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("Median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	// Median must not reorder the caller's slice.
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestSEMedian(t *testing.T) {
	if se := seMedian([]float64{7}); se != 0 {
		t.Errorf("single sample SE = %g, want 0", se)
	}
	if se := seMedian(nil); se != 0 {
		t.Errorf("empty SE = %g, want 0", se)
	}
	if se := seMedian([]float64{5, 5, 5, 5}); se != 0 {
		t.Errorf("zero-variance SE = %g, want 0", se)
	}
	// σ of {1,2,3,4,5} is √2.5; SE ≈ 1.2533·σ/√5.
	want := 1.2533 * math.Sqrt(2.5) / math.Sqrt(5)
	if se := seMedian([]float64{1, 2, 3, 4, 5}); math.Abs(se-want) > 1e-12 {
		t.Errorf("SE = %g, want %g", se, want)
	}
}

func TestMedianDiffExcludesZero(t *testing.T) {
	// Clearly separated, tight distributions: CI excludes zero.
	slow := []float64{100, 101, 99, 100, 102, 98, 100, 101}
	fast := []float64{50, 51, 49, 50, 52, 48, 50, 51}
	d := medianDiff(slow, fast)
	if d.diff <= 0 {
		t.Fatalf("Diff = %g, want > 0", d.diff)
	}
	if !d.excludesZero() {
		t.Fatalf("separated distributions: CI should exclude zero (diff %g ± %g)", d.diff, ciZ*d.se)
	}
	// Same distribution both sides: never excludes zero in this direction.
	if medianDiff(fast, fast).excludesZero() {
		t.Fatal("identical distributions must not exclude zero")
	}
	// Wrong direction: negative diff can never exclude zero.
	if medianDiff(fast, slow).excludesZero() {
		t.Fatal("negative diff must not exclude zero")
	}
	// Huge overlap: a small median gap inside wide noise stays inconclusive.
	noisyA := []float64{10, 200, 30, 170, 55, 140, 80, 110}
	noisyB := []float64{12, 195, 33, 168, 58, 137, 83, 108}
	if medianDiff(noisyA, noisyB).excludesZero() {
		t.Fatal("overlapping noisy distributions must not exclude zero")
	}
	// Single samples: degenerates to a sign test.
	if !medianDiff([]float64{2}, []float64{1}).excludesZero() {
		t.Fatal("single-sample degenerate case should reduce to Diff > 0")
	}
	if medianDiff([]float64{1}, []float64{2}).excludesZero() {
		t.Fatal("single-sample negative diff should not exclude zero")
	}
}
