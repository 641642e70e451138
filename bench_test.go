package fmmfam

// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one family per table/figure (each benchmark's comment names its
// figure; cmd/experiments runs the full sweeps). Sizes are scaled down from the
// paper's m=n=14400 — the pure-Go kernel is ~10× slower than the paper's
// assembly — but keep the paper's *shape* ratios: rank-k updates use
// k ≈ base/3, near-square uses k = base. Every benchmark reports effective
// GFLOPS (2·m·n·k/time), the paper's metric.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
)

const benchBase = 480 // m = n for benchmark problems

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

func planFor(b *testing.B, v fmmexec.Variant, threads int, levels ...core.Algorithm) *fmmexec.Plan[float64] {
	b.Helper()
	cfg := gemm.DefaultConfig()
	cfg.Threads = threads
	p, err := fmmexec.NewPlan[float64](cfg, v, levels...)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkGEMMBaseline is the BLIS-style baseline all figures compare to.
func BenchmarkGEMMBaseline(b *testing.B) {
	ctx := gemm.MustNewContext[float64](gemm.DefaultConfig())
	for _, k := range []int{benchBase / 3, benchBase} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchMulAdd(b, benchBase, k, benchBase, func(c, a, bm matrix.Mat[float64]) { ctx.MulAdd(c, a, bm) })
		})
	}
}

// BenchmarkFigure2 regenerates the practical-speedup columns of the Figure-2
// table: every catalog shape, one-level ABC, rank-k (#1) and near-square
// (#2) problems.
func BenchmarkFigure2(b *testing.B) {
	for _, e := range core.Catalog() {
		p := planFor(b, fmmexec.ABC, 1, e.Algorithm)
		b.Run(fmt.Sprintf("%s/rankk", e.Shape()), func(b *testing.B) {
			benchMulAdd(b, benchBase, benchBase/3, benchBase, p.MulAdd)
		})
		b.Run(fmt.Sprintf("%s/square", e.Shape()), func(b *testing.B) {
			benchMulAdd(b, benchBase, benchBase, benchBase, p.MulAdd)
		})
	}
}

// BenchmarkFigure6 regenerates the measured panels of Figure 6: one-level
// implementations in all three variants across the k sweep.
func BenchmarkFigure6(b *testing.B) {
	shapes := [][3]int{{2, 2, 2}, {2, 3, 2}, {3, 3, 3}, {3, 6, 3}}
	for _, v := range fmmexec.Variants {
		for _, s := range shapes {
			algo := core.Generate(s[0], s[1], s[2])
			p := planFor(b, v, 1, algo)
			for _, k := range []int{benchBase / 4, benchBase / 2, benchBase} {
				b.Run(fmt.Sprintf("%s/%s/k=%d", v, algo.ShapeString(), k), func(b *testing.B) {
					benchMulAdd(b, benchBase, k, benchBase, p.MulAdd)
				})
			}
		}
	}
}

// BenchmarkFigure7 regenerates the measured panels of Figure 7: two-level
// ABC on the paper's three problem-shape families.
func BenchmarkFigure7(b *testing.B) {
	shapes := [][3]int{{2, 2, 2}, {2, 3, 2}, {3, 3, 3}}
	for _, s := range shapes {
		algo := core.Generate(s[0], s[1], s[2])
		p := planFor(b, fmmexec.ABC, 1, algo, algo)
		b.Run(fmt.Sprintf("%s+%s/square", algo.ShapeString(), algo.ShapeString()), func(b *testing.B) {
			benchMulAdd(b, benchBase, benchBase, benchBase, p.MulAdd)
		})
		b.Run(fmt.Sprintf("%s+%s/ksweep", algo.ShapeString(), algo.ShapeString()), func(b *testing.B) {
			benchMulAdd(b, benchBase, benchBase/3, benchBase, p.MulAdd)
		})
		b.Run(fmt.Sprintf("%s+%s/mnsweep", algo.ShapeString(), algo.ShapeString()), func(b *testing.B) {
			benchMulAdd(b, benchBase, 256, benchBase, p.MulAdd)
		})
	}
}

// BenchmarkFigure8 regenerates the selection experiment: the model-selected
// implementation per problem shape (vs the GEMM baseline above).
func BenchmarkFigure8(b *testing.B) {
	arch := model.PaperIvyBridge()
	for _, s := range [][3]int{
		{benchBase, benchBase, benchBase},
		{benchBase, benchBase / 3, benchBase},
		{benchBase, 256, benchBase},
	} {
		cand := Recommend(arch, s[0]*30, s[1]*30, s[2]*30) // model at paper-like scale
		p := planFor(b, cand.Variant, 1, cand.Levels...)
		b.Run(fmt.Sprintf("%dx%dx%d/%s", s[0], s[1], s[2], cand.Name()), func(b *testing.B) {
			benchMulAdd(b, s[0], s[1], s[2], p.MulAdd)
		})
	}
}

// BenchmarkFigure9 regenerates the hybrid-partition comparison at fixed k.
func BenchmarkFigure9(b *testing.B) {
	s222 := core.Generate(2, 2, 2)
	s232 := core.Generate(2, 3, 2)
	s333 := core.Generate(3, 3, 3)
	plans := []struct {
		name   string
		levels []core.Algorithm
	}{
		{"2L_222", []core.Algorithm{s222, s222}},
		{"2L_232", []core.Algorithm{s232, s232}},
		{"2L_333", []core.Algorithm{s333, s333}},
		{"hybrid_222_232", []core.Algorithm{s222, s232}},
		{"hybrid_222_333", []core.Algorithm{s222, s333}},
	}
	kfix := 384
	for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, pl := range plans {
			p := planFor(b, fmmexec.ABC, threads, pl.levels...)
			b.Run(fmt.Sprintf("t%d/%s", threads, pl.name), func(b *testing.B) {
				benchMulAdd(b, benchBase, kfix, benchBase, p.MulAdd)
			})
		}
	}
}

// BenchmarkFigure10 regenerates the multicore comparison: ours (ABC) vs the
// reference style of [1] (Naive) vs GEMM, all cores.
func BenchmarkFigure10(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	cfg := gemm.DefaultConfig()
	cfg.Threads = threads
	ctx := gemm.MustNewContext[float64](cfg)
	algo := core.Strassen()
	ours := planFor(b, fmmexec.ABC, threads, algo)
	ref := planFor(b, fmmexec.Naive, threads, algo)
	for _, k := range []int{benchBase / 3, benchBase} {
		b.Run(fmt.Sprintf("gemm/k=%d", k), func(b *testing.B) {
			benchMulAdd(b, benchBase, k, benchBase, func(c, a, bm matrix.Mat[float64]) { ctx.MulAdd(c, a, bm) })
		})
		b.Run(fmt.Sprintf("ours_ABC/k=%d", k), func(b *testing.B) {
			benchMulAdd(b, benchBase, k, benchBase, ours.MulAdd)
		})
		b.Run(fmt.Sprintf("reference_Naive/k=%d", k), func(b *testing.B) {
			benchMulAdd(b, benchBase, k, benchBase, ref.MulAdd)
		})
	}
}

// BenchmarkParallelThroughput measures serving throughput: many concurrent
// callers hammering one shared Multiplier via b.RunParallel, the scenario
// the pooled-workspace engine exists for. Aggregate effGFLOPS across all
// callers is the serving metric future PRs track (vs the single-call
// latency of the figure benchmarks); it must scale with callers rather than
// serialize on plan workspace. Plans run single-threaded here so the
// parallelism measured is across calls, not within one.
func BenchmarkParallelThroughput(b *testing.B) {
	const size = 192
	mu := NewMultiplier(DefaultConfig(), PaperArch())
	a, bm := matrix.New[float64](size, size), matrix.New[float64](size, size)
	a.Fill(1.0 / 3)
	bm.Fill(-2.0 / 3)
	if _, err := mu.PlanFor(size, size, size); err != nil {
		b.Fatal(err) // plan once so the measurement is steady-state
	}
	b.Run("callers=1", func(b *testing.B) {
		c := matrix.New[float64](size, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mu.MulAdd(c, a, bm); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(model.EffectiveGFLOPS(size, size, size, secs), "aggGFLOPS")
	})
	b.Run(fmt.Sprintf("parallel_callers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			c := matrix.New[float64](size, size)
			for pb.Next() {
				if err := mu.MulAdd(c, a, bm); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(model.EffectiveGFLOPS(size, size, size, secs), "aggGFLOPS")
	})
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

// BenchmarkBatchThroughput measures MulAddBatch on a mixed-shape batch — the
// bulk-scheduling path (e.g. blocked algorithms issuing many independent
// block products).
func BenchmarkBatchThroughput(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Threads = runtime.GOMAXPROCS(0)
	mu := NewMultiplier(cfg, PaperArch())
	shapes := [][3]int{{192, 192, 192}, {192, 64, 192}, {128, 128, 128}}
	var jobs []BatchJob
	var flops float64
	for rep := 0; rep < 4; rep++ {
		for _, s := range shapes {
			a, bm := matrix.New[float64](s[0], s[1]), matrix.New[float64](s[1], s[2])
			a.Fill(1.0 / 3)
			bm.Fill(-2.0 / 3)
			jobs = append(jobs, BatchJob{C: matrix.New[float64](s[0], s[2]), A: a, B: bm})
			flops += 2 * float64(s[0]) * float64(s[1]) * float64(s[2])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mu.MulAddBatch(jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(flops/secs*1e-9, "aggGFLOPS")
}

// BenchmarkShardedLarge compares auto-sharded MulAdd against the unsharded
// parallel path on one large square problem — the serving-layer bet that
// scheduling independent block products across the pool beats parallelizing
// one product's loops (Benson–Ballard). The default 1024³ keeps CI fast with
// the pure-Go kernel; set FMMFAM_BENCH_LARGE=4096 for a paper-scale run.
func BenchmarkShardedLarge(b *testing.B) {
	size := 1024
	if s := os.Getenv("FMMFAM_BENCH_LARGE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("FMMFAM_BENCH_LARGE=%q: %v", s, err)
		}
		size = v
	}
	threads := runtime.GOMAXPROCS(0)
	if threads < 2 {
		threads = 2 // sharding needs a pool; keep the comparison fair on 1 CPU
	}
	a, bm := matrix.New[float64](size, size), matrix.New[float64](size, size)
	a.Fill(1.0 / 3)
	bm.Fill(-2.0 / 3)
	run := func(b *testing.B, cfg Config) {
		mu := NewMultiplier(cfg, PaperArch())
		c := matrix.New[float64](size, size)
		if err := mu.MulAdd(c, a, bm); err != nil { // warm the plan caches
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mu.MulAdd(c, a, bm); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(model.EffectiveGFLOPS(size, size, size, secs), "effGFLOPS")
	}
	unsharded := DefaultConfig()
	unsharded.Threads = threads
	unsharded.ShardThreshold = -1
	b.Run("unsharded", func(b *testing.B) { run(b, unsharded) })
	sharded := DefaultConfig()
	sharded.Threads = threads
	sharded.ShardThreshold = size // force the sharded path at this size
	b.Run("sharded", func(b *testing.B) { run(b, sharded) })
}

// BenchmarkSharded3D compares auto-sharded MulAdd against the unsharded
// parallel path on a K-dominant problem — small M×N output, huge inner
// dimension, the inner-product shape of ML reduction workloads. The 2D
// decomposition has no room for two above-floor output tiles here, so only
// the K-split path (slab products into reduction buffers, folded into C in
// slab order) can shard it; this benchmark is the serving-layer proof that
// the fold overhead is worth the pool. The default 256×8192×256 keeps CI
// fast with the pure-Go kernel; set FMMFAM_BENCH_K=32768 for the paper-scale
// acceptance shape.
func BenchmarkSharded3D(b *testing.B) {
	const mn = 256
	k := 8192
	if s := os.Getenv("FMMFAM_BENCH_K"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("FMMFAM_BENCH_K=%q: %v", s, err)
		}
		k = v
	}
	threads := runtime.GOMAXPROCS(0)
	if threads < 2 {
		threads = 2 // sharding needs a pool; keep the comparison fair on 1 CPU
	}
	a, bm := matrix.New[float64](mn, k), matrix.New[float64](k, mn)
	a.Fill(1.0 / 3)
	bm.Fill(-2.0 / 3)
	run := func(b *testing.B, cfg Config) {
		mu := NewMultiplier(cfg, PaperArch())
		c := matrix.New[float64](mn, mn)
		if err := mu.MulAdd(c, a, bm); err != nil { // warm the plan caches and pools
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mu.MulAdd(c, a, bm); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(model.EffectiveGFLOPS(mn, k, mn, secs), "effGFLOPS")
	}
	unsharded := DefaultConfig()
	unsharded.Threads = threads
	unsharded.ShardThreshold = -1
	b.Run("unsharded", func(b *testing.B) { run(b, unsharded) })
	ksplit := DefaultConfig()
	ksplit.Threads = threads // default knobs: k ≥ ShardThreshold triggers the K-split path
	b.Run("ksplit", func(b *testing.B) { run(b, ksplit) })
}

// BenchmarkAsyncThroughput measures the submit-and-collect serving flow: a
// stream of mixed-shape products submitted through the bounded MulAddAsync
// queue, all futures collected per iteration. Aggregate effGFLOPS across the
// stream is the serving metric.
func BenchmarkAsyncThroughput(b *testing.B) {
	cfg := DefaultConfig().Parallel()
	mu := NewMultiplier(cfg, PaperArch())
	defer mu.Close()
	shapes := [][3]int{{192, 192, 192}, {192, 64, 192}, {128, 128, 128}}
	type job struct{ c, a, b matrix.Mat[float64] }
	var jobs []job
	var flops float64
	for rep := 0; rep < 8; rep++ {
		for _, s := range shapes {
			a, bm := matrix.New[float64](s[0], s[1]), matrix.New[float64](s[1], s[2])
			a.Fill(1.0 / 3)
			bm.Fill(-2.0 / 3)
			jobs = append(jobs, job{c: matrix.New[float64](s[0], s[2]), a: a, b: bm})
			flops += 2 * float64(s[0]) * float64(s[1]) * float64(s[2])
		}
	}
	futures := make([]*Future, len(jobs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, jb := range jobs {
			futures[j] = mu.MulAddAsync(jb.c, jb.a, jb.b)
		}
		for _, f := range futures {
			if err := f.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(flops/secs*1e-9, "aggGFLOPS")
}

// BenchmarkAblationPeeling measures the dynamic-peeling overhead: divisible
// size vs worst-case fringe (every dimension off by one).
func BenchmarkAblationPeeling(b *testing.B) {
	p := planFor(b, fmmexec.ABC, 1, core.Strassen(), core.Strassen())
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

// BenchmarkAblationDtype runs the same GEMM shape at both element types
// through every registered kernel backend — the ablation behind the model's
// per-dtype τ pricing: float32 moves half the bytes per element, so its
// effective GFLOPS ceiling sits higher wherever the driver is
// bandwidth-bound, while the scalar pure-Go kernel retires both dtypes at
// the same flop rate.
func BenchmarkAblationDtype(b *testing.B) {
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		name := name
		b.Run("float64/"+name, func(b *testing.B) {
			benchDtypeGEMM[float64](b, name, benchBase, benchBase, benchBase)
		})
	}
	for _, name := range kernel.BackendsFor(matrix.Float32) {
		name := name
		b.Run("float32/"+name, func(b *testing.B) {
			benchDtypeGEMM[float32](b, name, benchBase, benchBase, benchBase)
		})
	}
}

func benchDtypeGEMM[E matrix.Element](b *testing.B, kernelName string, m, k, n int) {
	b.Helper()
	cfg := gemm.DefaultConfig()
	cfg.Kernel = kernelName
	ctx := gemm.MustNewContext[E](cfg)
	a, bm := matrix.New[E](m, k), matrix.New[E](k, n)
	a.Fill(1.0 / 3)
	bm.Fill(-2.0 / 3)
	c := matrix.New[E](m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.MulAdd(c, a, bm)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(model.EffectiveGFLOPS(m, k, n, secs), "effGFLOPS")
}

// BenchmarkAblationVariants compares the three variants head-to-head at the
// rank-k shape where the ABC fusion matters most.
func BenchmarkAblationVariants(b *testing.B) {
	for _, v := range fmmexec.Variants {
		p := planFor(b, v, 1, core.Strassen())
		b.Run(v.String(), func(b *testing.B) {
			benchMulAdd(b, benchBase, benchBase/3, benchBase, p.MulAdd)
		})
	}
}

// BenchmarkIntraPlan measures the PR-6 tentpole: term-level BFS fan-out
// inside one medium MulAdd (below the shard threshold) against the serial
// DFS traversal, across worker counts and both dtypes, on a two-level
// Strassen ABC plan with the model's typical prefix traversal (BFS at the
// outer level, DFS inside — fanout 7). The 1024³ case is the acceptance
// shape ("bfs/w8 ≥ 3× dfs/w1"); set FMMFAM_BENCH_INTRA=1 to add the 2048³
// sweep (~8× the work per iteration, plus ~7 core-C shadow buffers).
func BenchmarkIntraPlan(b *testing.B) {
	sizes := []int{1024}
	if os.Getenv("FMMFAM_BENCH_INTRA") != "" {
		sizes = append(sizes, 2048)
	}
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, size := range sizes {
		for _, w := range workers {
			if seen[w] {
				continue
			}
			seen[w] = true
			for _, tr := range []string{"dfs", "bfs"} {
				tr := tr
				b.Run(fmt.Sprintf("%d/%s/w%d/f64", size, tr, w), func(b *testing.B) {
					benchIntraPlan[float64](b, size, w, tr == "bfs")
				})
				b.Run(fmt.Sprintf("%d/%s/w%d/f32", size, tr, w), func(b *testing.B) {
					benchIntraPlan[float32](b, size, w, tr == "bfs")
				})
			}
		}
		for k := range seen {
			delete(seen, k)
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
