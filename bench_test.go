package fmmfam

// The four micro-benchmarks nothing else measures. "Did this commit get
// slower?" is fmmbench's question (bash fmmbench/run.sh: six verified
// workloads, bounds from BENCHMARK.json) and "does the paper's figure
// reproduce?" is cmd/experiments'; what stays here is the selector's measured
// crossover against the model's break-even (BenchmarkSelectorVsGEMM), the
// per-backend micro-kernel and packing rates (BenchmarkAblationKernel), the
// dynamic-peeling overhead (BenchmarkAblationPeeling) and the term-traversal
// sweep across worker counts (BenchmarkIntraPlan). Every timed product reports
// effective GFLOPS (2·m·n·k/time), the paper's metric.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
)

func benchMulAdd(b *testing.B, m, k, n int, fn func(c, a, bm matrix.Mat[float64])) {
	b.Helper()
	a, bm := matrix.New[float64](m, k), matrix.New[float64](k, n)
	a.Fill(1.0 / 3)
	bm.Fill(-2.0 / 3)
	c := matrix.New[float64](m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(c, a, bm)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(model.EffectiveGFLOPS(m, k, n, secs), "effGFLOPS")
}

// BenchmarkSelectorVsGEMM tracks the win-or-abstain decision per commit: for
// every registered kernel, Multiplier.MulAdd — whatever plan the model
// selects, gemm included — against gemm.Context.MulAdd on the same operands,
// over squares 32…2048 and the rank-k and K-slab shapes of the benchmark
// workloads. One thread, so nothing shards and the only decision measured is
// plan versus GEMM; the two sides alternate call by call so host drift falls
// on both. Rows report the selector's ns/op and effGFLOPS and x_gemm, GEMM's
// time over the selector's (≥ 1 wherever the selection is right; ≈ 1 where it
// abstains). A closing summary row per kernel puts the model's
// BreakEvenSquare beside the measured crossover — the smallest probed square
// from which on the selected fast plan beats GEMM (0: never within the sweep).
func BenchmarkSelectorVsGEMM(b *testing.B) {
	squares := []int{32, 64, 128, 256, 512, 1024, 2048}
	others := [][3]int{{2880, 480, 2880}, {256, 8192, 256}}
	for _, kern := range kernel.BackendsFor(matrix.Float64) {
		cfg := DefaultConfig()
		cfg.Kernel = kern
		mu := NewMultiplier(cfg, PaperArch())
		ctx := gemm.MustNewContext[float64](cfg.gemmConfig())
		// row benchmarks one shape and returns x_gemm and whether the
		// selector served a fast plan there.
		row := func(m, k, n int) (x float64, fast bool) {
			p, err := mu.PlanFor(m, k, n)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kern, m, k, n), func(b *testing.B) {
				a, bm := matrix.New[float64](m, k), matrix.New[float64](k, n)
				a.Fill(1.0 / 3)
				bm.Fill(-2.0 / 3)
				c, cg := matrix.New[float64](m, n), matrix.New[float64](m, n)
				var sel, base time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					if err := mu.MulAdd(c, a, bm); err != nil {
						b.Fatal(err)
					}
					t1 := time.Now()
					ctx.MulAdd(cg, a, bm)
					sel, base = sel+t1.Sub(t0), base+time.Since(t1)
				}
				b.StopTimer()
				x = base.Seconds() / sel.Seconds()
				b.ReportMetric(float64(sel.Nanoseconds())/float64(b.N), "ns/op")
				b.ReportMetric(model.EffectiveGFLOPS(m, k, n, sel.Seconds()/float64(b.N)), "effGFLOPS")
				b.ReportMetric(x, "x_gemm")
			})
			return x, len(p.Levels) > 0
		}
		crossover := 0
		for _, s := range squares {
			switch x, fast := row(s, s, s); {
			case !fast || x <= 1:
				crossover = 0
			case crossover == 0:
				crossover = s
			}
		}
		for _, s := range others {
			row(s[0], s[1], s[2])
		}
		b.Run(kern+"/crossover", func(b *testing.B) {
			b.ReportMetric(0, "ns/op") // a summary row: nothing is timed
			b.ReportMetric(float64(model.BreakEvenSquare(mu.arch, defaultCandidates())), "model_breakeven")
			b.ReportMetric(float64(crossover), "measured_crossover")
		})
	}
}

// BenchmarkAblationPeeling measures the dynamic-peeling overhead: divisible
// size vs worst-case fringe (every dimension off by one).
func BenchmarkAblationPeeling(b *testing.B) {
	p := fmmexec.MustNewPlan[float64](gemm.DefaultConfig(), fmmexec.ABC, core.Strassen(), core.Strassen())
	b.Run("divisible", func(b *testing.B) {
		benchMulAdd(b, 480, 480, 480, p.MulAdd)
	})
	b.Run("fringed", func(b *testing.B) {
		benchMulAdd(b, 481, 481, 481, p.MulAdd)
	})
}

// BenchmarkAblationKernel isolates the micro-kernel (every registered
// backend at both element types — the GFLOPS ratio between backends is what
// model's kernel efficiency table records; the micro32 rows are where the
// avx2 backend's doubled float32 lanes show as doubled flop rate) and the
// fused packing, timed through each backend's PackA — the call the driver
// makes.
func BenchmarkAblationKernel(b *testing.B) {
	const kc = 256
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		benchMicro[float64](b, "micro/"+name, name, kc)
	}
	for _, name := range kernel.BackendsFor(matrix.Float32) {
		benchMicro[float32](b, "micro32/"+name, name, kc)
	}
	src1, src2 := matrix.New[float64](96, kc), matrix.New[float64](96, kc)
	src1.Fill(1)
	src2.Fill(2)
	single := kernel.SingleTerm(src1)
	fused := []kernel.Term[float64]{{Coef: 1, M: src1}, {Coef: -1, M: src2}}
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		benchPackA(b, "packA_single/"+name, name, single)
		benchPackA(b, "packA_fused2/"+name, name, fused)
	}
}

// benchPackA times one backend's fused Ã packing of a whole terms-sized block.
func benchPackA(b *testing.B, row, name string, terms []kernel.Term[float64]) {
	bk := kernel.MustResolve[float64](name)
	mc, kc := terms[0].M.Rows, terms[0].M.Cols
	buf := make([]float64, bk.PackABufLen(mc, kc))
	b.Run(row, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bk.PackA(buf, terms, 0, 0, mc, kc)
		}
	})
}

// benchMicro times one backend's micro-kernel at element type E over a
// steady rank-kc update and reports realized GFLOPS.
func benchMicro[E matrix.Element](b *testing.B, row, name string, kc int) {
	bk := kernel.MustResolve[E](name)
	ap := make([]E, bk.PackABufLen(bk.MR(), kc))
	bp := make([]E, bk.PackBBufLen(kc, bk.NR()))
	for i := range ap {
		ap[i] = 1.5
	}
	for i := range bp {
		bp[i] = -0.5
	}
	b.Run(row, func(b *testing.B) {
		acc := make([]E, bk.MR()*bk.NR())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bk.Micro(kc, ap, bp, acc)
		}
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(2*float64(bk.MR())*float64(bk.NR())*float64(kc)/secs*1e-9, "GFLOPS")
	})
}

// BenchmarkIntraPlan measures the PR-6 tentpole: term-level BFS fan-out
// inside one medium MulAdd (below the shard threshold) against the serial
// DFS traversal, across worker counts and both dtypes, on a two-level
// Strassen ABC plan with the model's typical prefix traversal (BFS at the
// outer level, DFS inside — fanout 7). The 1024³ case is the acceptance
// shape ("bfs/w8 ≥ 3× dfs/w1"); the 2048³ sweep (~8× the work per iteration,
// plus ~7 core-C shadow buffers) runs unless -short.
func BenchmarkIntraPlan(b *testing.B) {
	sizes := []int{1024}
	if !testing.Short() {
		sizes = append(sizes, 2048)
	}
	workers := []int{1, 4}
	if w := runtime.GOMAXPROCS(0); w != 1 && w != 4 {
		workers = append(workers, w)
	}
	for _, size := range sizes {
		for _, w := range workers {
			for _, tr := range []string{"dfs", "bfs"} {
				b.Run(fmt.Sprintf("%d/%s/w%d/f64", size, tr, w), func(b *testing.B) {
					benchIntraPlan[float64](b, size, w, tr == "bfs")
				})
				b.Run(fmt.Sprintf("%d/%s/w%d/f32", size, tr, w), func(b *testing.B) {
					benchIntraPlan[float32](b, size, w, tr == "bfs")
				})
			}
		}
	}
}

func benchIntraPlan[E matrix.Element](b *testing.B, size, workers int, bfs bool) {
	b.Helper()
	cfg := gemm.DefaultConfig()
	cfg.Threads = workers
	var steps []fmmexec.Step
	if bfs {
		steps = []fmmexec.Step{fmmexec.BFS, fmmexec.DFS}
	}
	p, err := fmmexec.NewPlanTraversal[E](cfg, fmmexec.ABC, steps, core.Strassen(), core.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	a, bm := matrix.New[E](size, size), matrix.New[E](size, size)
	a.Fill(1.0 / 3)
	bm.Fill(-2.0 / 3)
	c := matrix.New[E](size, size)
	p.MulAdd(c, a, bm) // warm workspace and reduction-buffer pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulAdd(c, a, bm)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(model.EffectiveGFLOPS(size, size, size, secs), "effGFLOPS")
}
