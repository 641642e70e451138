package fmmfam_test

import (
	"fmt"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fmmfam"
)

// TestEveryExampleHasOutput: go test runs an Example only when it ends in an
// "// Output:" comment; one without compiles and is never checked, which is
// how a walkthrough drifts into a wrong document. Every Example in the module
// must have one.
func TestEveryExampleHasOutput(t *testing.T) {
	fset := token.NewFileSet()
	found := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// testdata and dot directories are not packages; a go.mod starts
			// another module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, ex := range doc.Examples(f) {
			found++
			if ex.Output == "" && !ex.EmptyOutput {
				t.Errorf("%s: Example%s has no // Output: comment, so go test never runs it", path, ex.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found < 7 {
		t.Fatalf("found %d Examples in the module, want at least the 7 walkthroughs", found)
	}
}

// randPair returns an m×k and a k×n matrix of seeded uniform entries.
func randPair(m, k, n int, seed int64) (a, b fmmfam.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	a, b = fmmfam.NewMatrix(m, k), fmmfam.NewMatrix(k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	return a, b
}

// gemmProduct returns a·b computed by the zero-level plan, plain GEMM: the
// baseline every fast algorithm is checked against.
func gemmProduct(a, b fmmfam.Matrix) fmmfam.Matrix {
	gemm, err := fmmfam.NewPlan(fmmfam.DefaultConfig(), fmmfam.ABC)
	if err != nil {
		log.Fatal(err)
	}
	c := fmmfam.NewMatrix(a.Rows, b.Cols)
	gemm.MulAdd(c, a, b)
	return c
}

// ExampleMultiply is the quick start. The package-level Multiply sends the
// product to the plan the performance model picks for its shape, on the
// fastest kernel the host registered (FMMFAM_KERNEL pins one); NewPlan builds
// one algorithm by hand. Both add a·b into c, so both agree with GEMM.
// How fast each runs is what `go run ./cmd/experiments -exp fig6` measures.
func ExampleMultiply() {
	a, b := randPair(192, 192, 192, 1)
	want := gemmProduct(a, b)

	c := fmmfam.NewMatrix(192, 192)
	if err := fmmfam.Multiply(c, a, b); err != nil { // c += a·b
		log.Fatal(err)
	}
	fmt.Println("Multiply agrees with GEMM to 1e-9:", c.MaxAbsDiff(want) <= 1e-9)

	// One-level Strassen, ABC variant, one thread.
	plan, err := fmmfam.NewPlan(fmmfam.DefaultConfig(), fmmfam.ABC, fmmfam.Strassen())
	if err != nil {
		log.Fatal(err)
	}
	c2 := fmmfam.NewMatrix(192, 192)
	plan.MulAdd(c2, a, b)
	fmt.Printf("%s agrees with GEMM to 1e-9: %v\n", plan, c2.MaxAbsDiff(want) <= 1e-9)
	// Output:
	// Multiply agrees with GEMM to 1e-9: true
	// <2,2,2> ABC agrees with GEMM to 1e-9: true
}

// ExampleNewPlan_hybrid composes a different algorithm per level (paper
// §5.2): the plan's composite partition is the Kronecker product of its
// levels, so <2,2,2>+<3,3,3> splits each dimension six ways in R = 7·26
// multiplications. Which of these wins at k ≈ 2·3·KC is Figure 9:
// `go run ./cmd/experiments -exp fig9`.
func ExampleNewPlan_hybrid() {
	s222, s232, s333 := fmmfam.Generate(2, 2, 2), fmmfam.Generate(2, 3, 2), fmmfam.Generate(3, 3, 3)
	a, b := randPair(144, 216, 144, 2)
	want := gemmProduct(a, b)
	for _, levels := range [][]fmmfam.Algorithm{
		{s222},
		{s222, s222},
		{s333, s333},
		{s222, s232},
		{s222, s333},
	} {
		p, err := fmmfam.NewPlan(fmmfam.DefaultConfig(), fmmfam.ABC, levels...)
		if err != nil {
			log.Fatal(err)
		}
		c := fmmfam.NewMatrix(144, 144)
		p.MulAdd(c, a, b)
		fmt.Printf("%-20s partition %-9s R=%-3d agrees with GEMM to 1e-9: %v\n",
			p, p.Flat.ShapeString(), p.Flat.R, c.MaxAbsDiff(want) <= 1e-9)
	}
	// Output:
	// <2,2,2> ABC          partition <2,2,2>   R=7   agrees with GEMM to 1e-9: true
	// <2,2,2>+<2,2,2> ABC  partition <4,4,4>   R=49  agrees with GEMM to 1e-9: true
	// <3,3,3>+<3,3,3> ABC  partition <9,9,9>   R=676 agrees with GEMM to 1e-9: true
	// <2,2,2>+<2,3,2> ABC  partition <4,6,4>   R=77  agrees with GEMM to 1e-9: true
	// <2,2,2>+<3,3,3> ABC  partition <6,6,6>   R=182 agrees with GEMM to 1e-9: true
}

// ExampleNewPlan_rankK runs a rank-k update, C(m×n) += A(m×k)·B(k×n) with k
// much smaller than m and n (the trailing update of blocked LU or QR), three
// ways: plain GEMM (the zero-level plan), and Strassen in the Naive variant
// (explicit temporaries) and the ABC variant (sums fused into packing and
// the micro-kernel). Their speed against GEMM over k is Figure 6:
// `go run ./cmd/experiments -exp fig6`.
func ExampleNewPlan_rankK() {
	const m, k, n = 288, 96, 288
	a, b := randPair(m, k, n, 3)
	want := gemmProduct(a, b)
	cfg := fmmfam.DefaultConfig()
	for _, p := range []struct {
		v      fmmfam.Variant
		levels []fmmfam.Algorithm
	}{
		{fmmfam.ABC, nil},
		{fmmfam.Naive, []fmmfam.Algorithm{fmmfam.Strassen()}},
		{fmmfam.ABC, []fmmfam.Algorithm{fmmfam.Strassen()}},
	} {
		plan, err := fmmfam.NewPlan(cfg, p.v, p.levels...)
		if err != nil {
			log.Fatal(err)
		}
		c := fmmfam.NewMatrix(m, n)
		plan.MulAdd(c, a, b)
		fmt.Printf("%-13s agrees with GEMM to 1e-9: %v\n", plan, c.MaxAbsDiff(want) <= 1e-9)
	}
	// Output:
	// gemm          agrees with GEMM to 1e-9: true
	// <2,2,2> Naive agrees with GEMM to 1e-9: true
	// <2,2,2> ABC   agrees with GEMM to 1e-9: true
}

// ExampleRecommend ranks the generated family with the paper's analytic
// model (§4.4) on its Ivy Bridge constants, PaperArch, and prints the pick
// and its predicted time: no measurement is needed. How the pick fares
// against measurement is Figure 8: `go run ./cmd/experiments -exp fig8`.
func ExampleRecommend() {
	arch := fmmfam.PaperArch()
	for _, s := range [][3]int{
		{14400, 480, 14400},   // rank-k update
		{14400, 12000, 14400}, // near-square
		{1024, 1024, 1024},    // small square
		{100, 100, 100},       // below the break-even: GEMM
	} {
		cand := fmmfam.Recommend(arch, s[0], s[1], s[2])
		fmt.Printf("%5d×%5d×%5d → %-20s predicted %.3gs\n",
			s[0], s[1], s[2], cand.Name(), fmmfam.Predict(arch, cand, s[0], s[1], s[2]))
	}
	// Output:
	// 14400×  480×14400 → <2,2,2>+<2,2,2> ABC  predicted 5.89s
	// 14400×12000×14400 → <2,2,2>+<2,2,2> AB   predicted 137s
	//  1024× 1024× 1024 → <2,2,2>+<2,2,2> ABC  predicted 0.0639s
	//   100×  100×  100 → gemm                 predicted 7.52e-05s
}

// ExampleDiscover searches numerically (alternating least squares, then
// rounding to a grid) for an exact rank-7 decomposition of the ⟨2,2,2⟩
// product tensor, rediscovering a Strassen-like algorithm, and runs it.
// RegisterSeed would offer it to Generate, but only a strictly lower rank
// than the current ⟨2,2,2⟩ seed replaces it, so registering this one changes
// nothing.
func ExampleDiscover() {
	algo, err := fmmfam.Discover(
		fmmfam.DiscoverProblem{M: 2, K: 2, N: 2, R: 7},
		fmmfam.DiscoverOptions{Restarts: 10, Iters: 1500, Seed: 2},
	)
	if err != nil {
		log.Fatal(err)
	}
	u, v, w := algo.NNZ()
	fmt.Printf("found %s (Brent-verified), nnz(U,V,W) = %d, %d, %d\n", algo.ShapeString(), u, v, w)

	plan, err := fmmfam.NewPlan(fmmfam.DefaultConfig(), fmmfam.ABC, algo)
	if err != nil {
		log.Fatal(err)
	}
	a, b := randPair(96, 96, 96, 4)
	c := fmmfam.NewMatrix(96, 96)
	plan.MulAdd(c, a, b)
	fmt.Println("agrees with GEMM to 1e-9:", c.MaxAbsDiff(gemmProduct(a, b)) <= 1e-9)
	// Output:
	// found <2,2,2> (Brent-verified), nnz(U,V,W) = 18, 18, 18
	// agrees with GEMM to 1e-9: true
}

// ExampleMultiplier_MulAddAsync is the serving quick start: one multiplier
// absorbs a burst of independent products through its bounded async queue,
// and splits one large product into independent block products across the
// same pool. Explain shows that split without running it. The kernel is
// pinned so the plan and grid are the same on every host. What serving
// costs is `go run ./cmd/experiments -exp fig10` and fmmbench's wire_mix.
func ExampleMultiplier_MulAddAsync() {
	cfg := fmmfam.DefaultConfig()
	cfg.Threads, cfg.Kernel = 2, "go4x4"
	mu := fmmfam.NewMultiplier(cfg, fmmfam.PaperArch())
	defer mu.Close()

	// Submit a burst, then collect: the queue is bounded (backpressure), and
	// each Future resolves on its own.
	var futures []*fmmfam.Future
	var cs, wants []fmmfam.Matrix
	for i := range 8 {
		m, k, n := 48+16*(i%4), 32+32*(i%3), 48+16*(i%5)
		a, b := randPair(m, k, n, int64(i))
		c := fmmfam.NewMatrix(m, n)
		futures = append(futures, mu.MulAddAsync(c, a, b))
		cs, wants = append(cs, c), append(wants, gemmProduct(a, b))
	}
	agree := true
	for i, f := range futures {
		if err := f.Wait(); err != nil {
			log.Fatal(err)
		}
		agree = agree && cs[i].MaxAbsDiff(wants[i]) <= 1e-9
	}
	fmt.Println("8 async products agree with GEMM to 1e-9:", agree)

	// With Threads ≥ 2, MulAdd cuts a product with room for two MC tiles into
	// tiles and runs the product's plan on each across the pool.
	ex, err := mu.Explain(1024, 1024, 1024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1024³: grid %d×%d×%d, tiles of %d×%d×%d each running %s\n",
		ex.GridM, ex.GridN, ex.GridK, ex.M, ex.K, ex.N, ex.Plan)
	// Output:
	// 8 async products agree with GEMM to 1e-9: true
	// 1024³: grid 1×2×1, tiles of 1024×1024×512 each running <2,2,2>+<2,2,2> ABC
}
