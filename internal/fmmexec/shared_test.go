package fmmexec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"fmmfam/internal/core"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
)

// TestScratchBoundedAcrossSizes pins the fix for the per-plan state map that
// stored one pool per concrete block shape and never removed one: an AB and
// a Naive plan on one context serve over 200 distinct sizes of one shape
// class (33…64 per dimension), and afterwards the context's scratch list
// holds no more buffers than a call rents at once (three: both operand sums
// and the product) per size class the blocks span, and no more elements than
// that many of the largest class — independent of how many sizes were seen.
func TestScratchBoundedAcrossSizes(t *testing.T) {
	ctx, err := gemm.NewContext[float64](gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var plans []*Plan[float64]
	for _, v := range []Variant{AB, Naive} {
		p, err := NewPlanOn(ctx, v, nil, core.Strassen())
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	rng := rand.New(rand.NewSource(1300))
	const lo, hi = 33, 64
	big := matrix.New[float64](hi, hi)
	big.FillRand(rng)
	seen := make(map[[3]int]bool)
	for len(seen) < 210 {
		m, k, n := lo+rng.Intn(hi-lo+1), lo+rng.Intn(hi-lo+1), lo+rng.Intn(hi-lo+1)
		if seen[[3]int{m, k, n}] {
			continue
		}
		seen[[3]int{m, k, n}] = true
		a, b := big.View(0, 0, m, k), big.View(hi-k, hi-n, k, n)
		want := matrix.New[float64](m, n)
		ctx.MulAdd(want, a, b)
		for _, p := range plans {
			c := matrix.New[float64](m, n)
			p.MulAdd(c, a, b)
			if d := c.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("%s on %d×%d×%d: diff %g", p, m, k, n, d)
			}
		}
	}
	// Blocks are (dim/2)², so between (lo/2)² and (hi/2)² elements.
	minClass, maxClass := bits.Len(uint((lo/2)*(lo/2)-1)), bits.Len(uint((hi/2)*(hi/2)-1))
	maxBufs := 3 * (maxClass - minClass + 1)
	bufs, elems := ctx.ScratchHeld()
	if bufs == 0 {
		t.Fatal("scratch list retained nothing: temporaries are not being pooled")
	}
	if bufs > maxBufs || elems > maxBufs<<maxClass {
		t.Fatalf("after %d distinct sizes the scratch list holds %d buffers / %d elements, want ≤ %d / %d",
			len(seen), bufs, elems, maxBufs, maxBufs<<maxClass)
	}
}

// sharedCase is one plan shape of TestSharedContextBitIdentical.
type sharedCase struct {
	v     Variant
	steps []Step
}

func (sc sharedCase) String() string { return fmt.Sprintf("%s/%v", sc.v, sc.steps) }

// testSharedContextBitIdentical: every variant × {DFS, one-level BFS} plan
// built with NewPlanOn on one shared context — five other live plans beside
// it — produces a C byte-identical to the same plan built privately with
// NewPlanTraversal, called one at a time and with 8 goroutines hammering
// different plans of the shared context at once (run under -race). Which
// buffer a product lands in never reaches the bits.
func testSharedContextBitIdentical[E matrix.Element](t *testing.T) {
	cfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 4}
	shared, err := gemm.NewContext[E](cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cases []sharedCase
	for _, v := range Variants {
		cases = append(cases, sharedCase{v, nil}, sharedCase{v, []Step{BFS}})
	}
	sizes := [][3]int{{36, 36, 36}, {30, 26, 34}, {17, 40, 23}}
	plans := make([]*Plan[E], len(cases))
	want := make([][]uint64, len(cases))
	for i, sc := range cases {
		private, err := NewPlanTraversal[E](cfg, sc.v, sc.steps, core.Strassen())
		if err != nil {
			t.Fatal(err)
		}
		if plans[i], err = NewPlanOn(shared, sc.v, sc.steps, core.Strassen()); err != nil {
			t.Fatal(err)
		}
		for j, s := range sizes {
			want[i] = append(want[i], fingerprintMulAdd(private, s[0], s[1], s[2], 1400+int64(j)))
		}
	}
	run := func(i int) error {
		for j, s := range sizes {
			if got := fingerprintMulAdd(plans[i], s[0], s[1], s[2], 1400+int64(j)); got != want[i][j] {
				return fmt.Errorf("%s on %v: shared-context fingerprint %#x != private %#x", cases[i], s, got, want[i][j])
			}
		}
		return nil
	}
	for i := range cases {
		if err := run(i); err != nil {
			t.Fatalf("sequential: %v", err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				if err := run((g + it) % len(cases)); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSharedContextBitIdentical(t *testing.T) {
	t.Run("float64", testSharedContextBitIdentical[float64])
	t.Run("float32", testSharedContextBitIdentical[float32])
}
