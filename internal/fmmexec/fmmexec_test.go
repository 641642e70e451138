package fmmexec

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"fmmfam/internal/core"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
)

func smallCfg() gemm.Config { return gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 1} }

func check(t *testing.T, p *Plan[float64], m, k, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, b := matrix.New[float64](m, k), matrix.New[float64](k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	c := matrix.New[float64](m, n)
	c.FillRand(rng)
	want := c.Clone()
	matrix.MulAdd(want, a, b)
	p.MulAdd(c, a, b)
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("%s on %d×%d×%d: diff %g", p, m, k, n, d)
	}
}

func TestOneLevelStrassenAllVariants(t *testing.T) {
	for _, v := range Variants {
		p := MustNewPlan[float64](smallCfg(), v, core.Strassen())
		check(t, p, 16, 16, 16, 1)
		check(t, p, 32, 16, 24, 2)
	}
}

func TestDynamicPeelingAllResidues(t *testing.T) {
	// Every residue combination modulo the <2,2,2> partition.
	p := MustNewPlan[float64](smallCfg(), ABC, core.Strassen())
	seed := int64(10)
	for dm := 0; dm < 2; dm++ {
		for dk := 0; dk < 2; dk++ {
			for dn := 0; dn < 2; dn++ {
				check(t, p, 14+dm, 12+dk, 10+dn, seed)
				seed++
			}
		}
	}
}

func TestOddPartitionPeeling(t *testing.T) {
	p := MustNewPlan[float64](smallCfg(), ABC, core.Generate(2, 3, 2))
	for _, s := range [][3]int{{13, 17, 11}, {6, 9, 4}, {7, 8, 9}} {
		check(t, p, s[0], s[1], s[2], 77)
	}
}

func TestProblemSmallerThanPartition(t *testing.T) {
	p := MustNewPlan[float64](smallCfg(), ABC, core.Strassen(), core.Strassen(), core.Strassen())
	check(t, p, 5, 5, 5, 3) // 8×8×8 partition > problem → plain GEMM path
}

func TestTwoLevelStrassenAllVariants(t *testing.T) {
	for _, v := range Variants {
		p := MustNewPlan[float64](smallCfg(), v, core.Strassen(), core.Strassen())
		if p.Flat.R != 49 {
			t.Fatalf("two-level rank %d", p.Flat.R)
		}
		check(t, p, 20, 24, 28, 4)
	}
}

func TestHybridPartitions(t *testing.T) {
	// The paper's Figure-9 hybrids: <2,2,2>+<2,3,2> and <2,2,2>+<3,3,3>.
	h1 := MustNewPlan[float64](smallCfg(), ABC, core.Strassen(), core.Generate(2, 3, 2))
	if h1.Flat.M != 4 || h1.Flat.K != 6 || h1.Flat.N != 4 {
		t.Fatalf("hybrid shape %s", h1.Flat.ShapeString())
	}
	check(t, h1, 12, 18, 12, 5)
	check(t, h1, 25, 31, 17, 6)

	h2 := MustNewPlan[float64](smallCfg(), AB, core.Strassen(), core.Generate(3, 3, 3))
	check(t, h2, 24, 36, 18, 7)
}

func TestAllCatalogShapesOneLevelABC(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog sweep in -short mode")
	}
	for _, e := range core.Catalog() {
		p := MustNewPlan[float64](smallCfg(), ABC, e.Algorithm)
		check(t, p, e.M*5+1, e.K*5+2, e.N*5+1, int64(e.M*100+e.K*10+e.N))
	}
}

func TestParallelPlanMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := matrix.New[float64](52, 38), matrix.New[float64](38, 44)
	a.FillRand(rng)
	b.FillRand(rng)
	c1, c2 := matrix.New[float64](52, 44), matrix.New[float64](52, 44)
	ps := MustNewPlan[float64](gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 1}, ABC, core.Strassen())
	pp := MustNewPlan[float64](gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 4}, ABC, core.Strassen())
	ps.MulAdd(c1, a, b)
	pp.MulAdd(c2, a, b)
	if d := c1.MaxAbsDiff(c2); d != 0 {
		t.Fatalf("parallel differs by %g", d)
	}
}

func TestVariantsAgreeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := matrix.New[float64](24, 18), matrix.New[float64](18, 12)
	a.FillRand(rng)
	b.FillRand(rng)
	var results []matrix.Mat[float64]
	for _, v := range Variants {
		c := matrix.New[float64](24, 12)
		MustNewPlan[float64](smallCfg(), v, core.Generate(2, 3, 2)).MulAdd(c, a, b)
		results = append(results, c)
	}
	// All variants compute the same bilinear formula; tiny differences can
	// only come from operation order inside the same kernels.
	if results[0].MaxAbsDiff(results[1]) > 1e-12 || results[0].MaxAbsDiff(results[2]) > 1e-12 {
		t.Fatal("variants disagree")
	}
}

func TestAccumulatesIntoC(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b := matrix.New[float64](8, 8), matrix.New[float64](8, 8)
	a.FillRand(rng)
	b.FillRand(rng)
	c := matrix.New[float64](8, 8)
	c.Fill(1)
	p := MustNewPlan[float64](smallCfg(), ABC, core.Strassen())
	p.MulAdd(c, a, b)
	want := matrix.New[float64](8, 8)
	want.Fill(1)
	matrix.MulAdd(want, a, b)
	if d := c.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("C := C + AB semantics violated: %g", d)
	}
}

// TestPlanConcurrentMulAdd drives one Plan per variant from many goroutines
// on mixed (including fringed) sizes. Under -race this checks the rented
// scratch contract: the Naive/AB temporaries must not be shared between
// concurrent calls.
func TestPlanConcurrentMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
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
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			p := MustNewPlan[float64](gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 2}, v, core.Strassen())
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

func TestWorkspaceReuseAcrossCalls(t *testing.T) {
	p := MustNewPlan[float64](smallCfg(), Naive, core.Strassen())
	check(t, p, 16, 16, 16, 11)
	check(t, p, 32, 32, 32, 12) // grow
	check(t, p, 8, 8, 8, 13)    // shrink (reuse)
	check(t, p, 32, 32, 32, 14) // reuse at full size
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlanTraversal[float64](smallCfg(), ABC, []Step{BFS}); err == nil {
		t.Fatal("a traversal step accepted for the zero-level plan")
	}
	if _, err := NewPlan[float64](smallCfg(), Variant(9), core.Strassen()); err == nil {
		t.Fatal("bad variant accepted")
	}
	bad := core.Strassen()
	bad.U = bad.U.Clone()
	bad.U.Set(0, 0, 3)
	if _, err := NewPlan[float64](smallCfg(), ABC, bad); err == nil {
		t.Fatal("invalid level accepted")
	}
	if _, err := NewPlan[float64](gemm.Config{MC: 1, KC: 1, NC: 1, Threads: 1}, ABC, core.Strassen()); err == nil {
		t.Fatal("bad gemm config accepted")
	}
}

func TestMulAddDimMismatchPanics(t *testing.T) {
	p := MustNewPlan[float64](smallCfg(), ABC, core.Strassen())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.MulAdd(matrix.New[float64](4, 4), matrix.New[float64](4, 5), matrix.New[float64](4, 4))
}

func TestZeroSizeNoop(t *testing.T) {
	p := MustNewPlan[float64](smallCfg(), ABC, core.Strassen())
	c := matrix.New[float64](4, 4)
	c.Fill(2)
	p.MulAdd(c, matrix.New[float64](4, 0), matrix.New[float64](0, 4))
	if c.At(0, 0) != 2 {
		t.Fatal("k=0 must not touch C")
	}
}

func TestVariantString(t *testing.T) {
	if Naive.String() != "Naive" || AB.String() != "AB" || ABC.String() != "ABC" {
		t.Fatal("variant names")
	}
	if Variant(7).String() == "" {
		t.Fatal("unknown variant should still print")
	}
}

func TestPlanString(t *testing.T) {
	p := MustNewPlan[float64](smallCfg(), ABC, core.Strassen(), core.Generate(2, 3, 2))
	if got := p.String(); got != "<2,2,2>+<2,3,2> ABC" {
		t.Fatalf("got %q", got)
	}
}

// Property: for random plans (level count, variant, shapes) and random
// not-necessarily-divisible sizes, the executor equals the reference.
func TestExecutorEqualsReferenceProperty(t *testing.T) {
	pool := []core.Algorithm{
		core.Strassen(),
		core.Generate(2, 3, 2),
		core.Generate(3, 2, 2),
		core.Generate(2, 2, 3),
		core.Classical(1, 2, 2),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := 1 + rng.Intn(2)
		levels := make([]core.Algorithm, nl)
		for i := range levels {
			levels[i] = pool[rng.Intn(len(pool))]
		}
		v := Variants[rng.Intn(3)]
		p := MustNewPlan[float64](gemm.Config{MC: 4 + 4*rng.Intn(3), KC: 4 + rng.Intn(12), NC: 8 + 4*rng.Intn(4), Threads: 1 + rng.Intn(2)}, v, levels...)
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a, b := matrix.New[float64](m, k), matrix.New[float64](k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		c := matrix.New[float64](m, n)
		c.FillRand(rng)
		want := c.Clone()
		matrix.MulAdd(want, a, b)
		p.MulAdd(c, a, b)
		return c.MaxAbsDiff(want) < 1e-9
	}
	n := 40
	if testing.Short() {
		n = 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelAddScaledPathMatchesSerial(t *testing.T) {
	// Sizes large enough to cross addScaledParThreshold with several workers.
	rng := rand.New(rand.NewSource(20))
	a, b := matrix.New[float64](260, 260), matrix.New[float64](260, 260)
	a.FillRand(rng)
	b.FillRand(rng)
	for _, v := range []Variant{AB, Naive} {
		c1, c2 := matrix.New[float64](260, 260), matrix.New[float64](260, 260)
		MustNewPlan[float64](gemm.Config{MC: 32, KC: 32, NC: 64, Threads: 1}, v, core.Strassen()).MulAdd(c1, a, b)
		MustNewPlan[float64](gemm.Config{MC: 32, KC: 32, NC: 64, Threads: 6}, v, core.Strassen()).MulAdd(c2, a, b)
		if d := c1.MaxAbsDiff(c2); d != 0 {
			t.Fatalf("%s: parallel scatter differs by %g", v, d)
		}
	}
}
