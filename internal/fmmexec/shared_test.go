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
	"fmmfam/internal/sched"
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
		p, err := NewPlanOn(ctx, v, core.Strassen())
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

// fingerprintMulAdd runs c += a·b through p on fixed inputs and returns C's
// bit fingerprint.
func fingerprintMulAdd[E matrix.Element](p *Plan[E], m, k, n int, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	a, b := matrix.New[E](m, k), matrix.New[E](k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	c := matrix.New[E](m, n)
	p.MulAdd(c, a, b)
	return c.Fingerprint()
}

// testSharedContextBitIdentical: every variant's plan built with NewPlanOn
// on one shared Threads=4 context — two other live plans beside it —
// produces a C byte-identical to the same plan built privately at Threads=1,
// called one at a time and with 8 goroutines hammering different plans of
// the shared context at once (run under -race). Neither the buffer a product
// lands in nor the plan's width reaches the bits.
func testSharedContextBitIdentical[E matrix.Element](t *testing.T) {
	cfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 4}
	shared, err := gemm.NewContext[E](cfg)
	if err != nil {
		t.Fatal(err)
	}
	serialCfg := cfg
	serialCfg.Threads = 1
	sizes := [][3]int{{36, 36, 36}, {30, 26, 34}, {17, 40, 23}}
	plans := make([]*Plan[E], len(Variants))
	want := make([][]uint64, len(Variants))
	for i, v := range Variants {
		private, err := NewPlan[E](serialCfg, v, core.Strassen())
		if err != nil {
			t.Fatal(err)
		}
		if plans[i], err = NewPlanOn(shared, v, core.Strassen()); err != nil {
			t.Fatal(err)
		}
		for j, s := range sizes {
			want[i] = append(want[i], fingerprintMulAdd(private, s[0], s[1], s[2], 1400+int64(j)))
		}
	}
	run := func(i int) error {
		for j, s := range sizes {
			if got := fingerprintMulAdd(plans[i], s[0], s[1], s[2], 1400+int64(j)); got != want[i][j] {
				return fmt.Errorf("%s on %v: shared-context fingerprint %#x != private %#x", plans[i], s, got, want[i][j])
			}
		}
		return nil
	}
	for i := range plans {
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
				if err := run((g + it) % len(plans)); err != nil {
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

// TestBFSBitIdenticalToSerialNaiveAB: a Threads=4 plan of the Naive and AB
// variants is bit-identical to the Threads=1 plan, at two levels in float64
// and one in float32, repeated to give the pool room to interleave
// differently. The name dates from the term fan-out (BFS) these variants
// once replayed; every plan now runs its terms in order at any width.
func TestBFSBitIdenticalToSerialNaiveAB(t *testing.T) {
	reps := 20
	if testing.Short() {
		reps = 5
	}
	serialCfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 1}
	parCfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 4}
	for _, v := range []Variant{Naive, AB} {
		t.Run(v.String(), func(t *testing.T) {
			ps := MustNewPlan[float64](serialCfg, v, core.Strassen(), core.Strassen())
			pp := MustNewPlan[float64](parCfg, v, core.Strassen(), core.Strassen())
			want := fingerprintMulAdd(ps, 36, 36, 36, 600)
			for i := 0; i < reps; i++ {
				if got := fingerprintMulAdd(pp, 36, 36, 36, 600); got != want {
					t.Fatalf("%s rep %d: Threads=4 fingerprint %#x != serial %#x", v, i, got, want)
				}
			}
			ps32 := MustNewPlan[float32](serialCfg, v, core.Strassen())
			pp32 := MustNewPlan[float32](parCfg, v, core.Strassen())
			want32 := fingerprintMulAdd(ps32, 30, 26, 34, 601)
			for i := 0; i < reps; i++ {
				if got := fingerprintMulAdd(pp32, 30, 26, 34, 601); got != want32 {
					t.Fatalf("%s rep %d: float32 Threads=4 fingerprint %#x != serial %#x", v, i, got, want32)
				}
			}
		})
	}
}

// TestConcurrentBFSMulAdd hammers one two-level hybrid plan per variant at
// Threads=3 from many goroutines on fringed sizes: under -race this checks
// that the nested term loops' rented sums, products and term lists are never
// shared across concurrent calls on one pool. The name dates from the term
// fan-out (BFS) it was written for.
func TestConcurrentBFSMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(800))
	type job struct{ a, b, want matrix.Mat[float64] }
	sizes := [][3]int{{16, 16, 16}, {24, 20, 28}, {15, 17, 13}, {32, 8, 32}}
	jobs := make([]job, len(sizes))
	for i, s := range sizes {
		a, b := matrix.New[float64](s[0], s[1]), matrix.New[float64](s[1], s[2])
		a.FillRand(rng)
		b.FillRand(rng)
		want := matrix.New[float64](s[0], s[2])
		matrix.MulAdd(want, a, b)
		jobs[i] = job{a, b, want}
	}
	for _, v := range Variants {
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			p := MustNewPlan[float64](gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 3}, v, core.Strassen(), core.Generate(2, 3, 2))
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < 4; it++ {
						j := jobs[(g+it)%len(jobs)]
						c := matrix.New[float64](j.want.Rows, j.want.Cols)
						p.MulAdd(c, j.a, j.b)
						if d := c.MaxAbsDiff(j.want); d > 1e-9 {
							t.Errorf("goroutine %d: diff %g", g, d)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestPlanOnSharedPool: a plan built on a caller's context executes on that
// context and nothing else — its context's serial view, on which the
// multiplier builds its width-1 plans, shares the worker pool, the
// workspaces and the scratch list — and a plan built without one gets a
// private context with the same shape. A plan never holds a second worker
// budget or a second store of buffers.
func TestPlanOnSharedPool(t *testing.T) {
	cfg := gemm.Config{MC: 16, KC: 16, NC: 32, Threads: 4}
	shared, err := gemm.NewContextOn[float64](cfg, sched.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	onShared, err := NewPlanOn(shared, AB, core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if onShared.Context() != shared {
		t.Fatal("plan ignored the context it was built on")
	}
	private, err := NewPlan[float64](cfg, AB, core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan[float64]{onShared, private} {
		ctx := p.Context()
		s := ctx.Serial()
		if s == ctx || s.Config().Threads != 1 {
			t.Fatal("plan's context has no Threads=1 view")
		}
		if ctx.Pool() == nil || ctx.Pool() != s.Pool() {
			t.Fatal("plan's context and its serial view run on different pools")
		}
		ws := ctx.GetWorkspace()
		ctx.PutWorkspace(ws)
		if got := s.GetWorkspace(); got != ws {
			t.Fatal("serial view rents from a workspace pool of its own")
		} else {
			s.PutWorkspace(got)
		}
		m := ctx.RentMat(8, 8)
		ctx.ReturnMat(m)
		if got := s.RentMat(8, 8); &got.Data[0] != &m.Data[0] {
			t.Fatal("serial view rents from a scratch list of its own")
		} else {
			s.ReturnMat(got)
		}
	}
}
