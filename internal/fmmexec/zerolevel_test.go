package fmmexec

import (
	"math/rand"
	"testing"

	"fmmfam/internal/core"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/kernel/conformance"
	"fmmfam/internal/matrix"
)

// TestZeroLevelPlanShape: a plan with no levels is the ⟨1,1,1⟩;1 identity
// named "gemm", whatever variant it was built with.
func TestZeroLevelPlanShape(t *testing.T) {
	for _, v := range Variants {
		p, err := NewPlan[float64](smallCfg(), v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if p.String() != GEMMName {
			t.Fatalf("String() = %q, want %q", p.String(), GEMMName)
		}
		f := p.Flat
		if f.M != 1 || f.K != 1 || f.N != 1 || f.R != 1 {
			t.Fatalf("Flat = %s R=%d, want <1,1,1> R=1", f.ShapeString(), f.R)
		}
		if u, vv, w := f.NNZ(); u != 1 || vv != 1 || w != 1 {
			t.Fatalf("Flat nnz = %d,%d,%d, want 1,1,1", u, vv, w)
		}
		if len(p.Levels) != 0 || p.Variant != v {
			t.Fatalf("levels %d variant %v", len(p.Levels), p.Variant)
		}
	}
	if got := Name(ABC, []core.Algorithm{core.Strassen(), core.Generate(3, 3, 3)}); got != "<2,2,2>+<3,3,3> ABC" {
		t.Fatalf("Name = %q", got)
	}
}

// TestZeroLevelPlanBitIdenticalToGEMM: for every registered backend × dtype
// × width {1, Threads} the zero-level plan's result is gemm.Context.MulAdd's,
// bit for bit, on the conformance suite's fringe shapes around the backend's
// micro-tile, with the operands both contiguous and views into larger
// matrices.
func TestZeroLevelPlanBitIdenticalToGEMM(t *testing.T) {
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		t.Run(name+"/float64", func(t *testing.T) { zeroLevelBitIdentical[float64](t, name) })
	}
	for _, name := range kernel.BackendsFor(matrix.Float32) {
		t.Run(name+"/float32", func(t *testing.T) { zeroLevelBitIdentical[float32](t, name) })
	}
}

func zeroLevelBitIdentical[E matrix.Element](t *testing.T, name string) {
	bk := kernel.MustResolve[E](name)
	mr, nr := bk.MR(), bk.NR()
	dims := conformance.EdgeDims(mr, nr)
	wide := gemm.MustNewContext[E](gemm.Config{MC: 2*mr + 1, KC: 7, NC: 2*nr + 3, Threads: 3, Kernel: name})
	rng := rand.New(rand.NewSource(15))
	// sub returns an r×c matrix: contiguous, or a view at (1,2) of a larger one.
	sub := func(r, c int, view bool) matrix.Mat[E] {
		if !view {
			m := matrix.New[E](r, c)
			m.FillRand(rng)
			return m
		}
		host := matrix.New[E](r+3, c+5)
		host.FillRand(rng)
		return host.View(1, 2, r, c)
	}
	narrowCfg := wide.Config()
	narrowCfg.Threads = 1
	narrow, err := gemm.NewContextOn[E](narrowCfg, wide.Pool())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []*gemm.Context[E]{wide, narrow} {
		p, err := NewPlanOn(ctx, Naive)
		if err != nil {
			t.Fatal(err)
		}
		if p.Context() != ctx {
			t.Fatal("plan is not on the context it was built on")
		}
		for _, m := range dims {
			for _, k := range dims {
				for _, n := range dims {
					view := (m+k+n)%2 == 1
					a, b, c := sub(m, k, view), sub(k, n, view), sub(m, n, view)
					want := c.Clone()
					ctx.MulAdd(want, a, b)
					got := c
					p.MulAdd(got, a, b)
					if d := got.MaxAbsDiff(want); d != 0 || got.Fingerprint() != want.Fingerprint() {
						t.Fatalf("threads=%d %d×%d×%d view=%v: zero-level plan differs from gemm by %g",
							ctx.Config().Threads, m, k, n, view, d)
					}
				}
			}
		}
	}
}

// TestZeroLevelPlanAllocatesNothingBeyondGEMM: in steady state the plan
// costs exactly the allocations of the gemm call it forwards to.
func TestZeroLevelPlanAllocatesNothingBeyondGEMM(t *testing.T) {
	ctx := gemm.MustNewContext[float64](gemm.Config{MC: 96, KC: 256, NC: 2048, Threads: 1})
	p, err := NewPlanOn(ctx, Naive)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := matrix.New[float64](104, 104), matrix.New[float64](104, 104), matrix.New[float64](104, 104)
	a.Fill(0.5)
	b.Fill(0.25)
	base := testing.AllocsPerRun(20, func() { ctx.MulAdd(c, a, b) })
	if got := testing.AllocsPerRun(20, func() { p.MulAdd(c, a, b) }); got != base {
		t.Fatalf("zero-level plan allocates %v per call, gemm.Context.MulAdd %v", got, base)
	}
}
