// Poly-algorithm selection (paper §4.4, Figure 8): use the analytic
// performance model to rank the generated family for several problem shapes,
// then confirm the top pick by measuring the model's top two candidates.
package main

import (
	"fmt"
	"time"

	"fmmfam"
)

func main() {
	arch := fmmfam.PaperArch()

	// Model-space ranking at the paper's sizes (no measurement needed).
	fmt.Println("model-ranked winners on the paper's Ivy Bridge:")
	for _, s := range [][3]int{
		{14400, 480, 14400},   // rank-k update
		{14400, 12000, 14400}, // near-square
		{1024, 1024, 1024},    // small square
	} {
		cand := fmmfam.Recommend(arch, s[0], s[1], s[2])
		secs := fmmfam.Predict(arch, cand, s[0], s[1], s[2])
		fmt.Printf("  %5d×%5d×%5d → %-24s predicted %6.3fs\n", s[0], s[1], s[2], cand.Name(), secs)
	}

	// Measured confirmation at a laptop-friendly size: model top pick vs the
	// GEMM baseline.
	const m, k, n = 960, 320, 960
	cand := fmmfam.Recommend(arch, m, k, n)
	cfg := fmmfam.DefaultConfig()
	cfg.Kernel = "go4x4" // the kernel arch's constants price; empty would be the host's fastest
	plan, err := fmmfam.NewPlan(cfg, cand.Variant, cand.Levels...)
	if err != nil {
		panic(err)
	}
	a, b := fmmfam.NewMatrix(m, k), fmmfam.NewMatrix(k, n)
	a.Fill(0.5)
	b.Fill(0.25)

	timeIt := func(fn func(c fmmfam.Matrix)) float64 {
		c := fmmfam.NewMatrix(m, n)
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			c.Zero()
			start := time.Now()
			fn(c)
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return 2 * float64(m) * float64(n) * float64(k) / best.Seconds() * 1e-9
	}
	selected := timeIt(func(c fmmfam.Matrix) { plan.MulAdd(c, a, b) })
	baseline := timeIt(func(c fmmfam.Matrix) { plan.Context().MulAdd(c, a, b) })
	fmt.Printf("\nmeasured at %d×%d×%d: selected %s %.2f GFLOPS vs GEMM %.2f GFLOPS (%+.1f%%)\n",
		m, k, n, cand.Name(), selected, baseline, (selected/baseline-1)*100)
}
