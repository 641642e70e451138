package fmmfam

// The five micro-benchmarks nothing else measures. "Did this commit get
// slower?" is fmmbench's question (bash fmmbench/run.sh: six verified
// workloads, bounds from BENCHMARK.json) and "does the paper's figure
// reproduce?" is cmd/experiments'; what stays here is the selector's measured
// crossover against the model's break-even (BenchmarkSelectorVsGEMM), the
// per-backend micro-kernel and packing rates (BenchmarkAblationKernel), the
// dynamic-peeling overhead (BenchmarkAblationPeeling), the cold-operand
// gap of a batch larger than the cache (BenchmarkMulAddBatchCold) and a
// sharded FMM product against its in-call and GEMM alternatives
// (BenchmarkShardedFMM). Every timed product reports effective GFLOPS
// (2·m·n·k/time), the paper's metric.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/shard"
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
// backend at both element types, in one "micro" row — the GFLOPS ratio
// between backends is what model's kernel efficiency table records; the
// micro32 metrics are where the assembly backends' doubled float32 lanes show
// as doubled flop rate) and the fused packing, timed through each backend's
// PackA — the call the driver makes.
func BenchmarkAblationKernel(b *testing.B) {
	const kc = 256
	var micros []*microRun
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		micros = append(micros, newMicroRun[float64]("micro/"+name, name, kc))
	}
	for _, name := range kernel.BackendsFor(matrix.Float32) {
		micros = append(micros, newMicroRun[float32]("micro32/"+name, name, kc))
	}
	b.Run("micro", func(b *testing.B) { benchMicros(b, micros) })
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

// microRun is one (backend, element type) micro-kernel configuration of
// benchMicros: a steady rank-kc update and the GFLOP/s samples it read.
type microRun struct {
	name    string
	flops   float64 // per call
	call    func()
	samples []float64
}

func newMicroRun[E matrix.Element](name, backend string, kc int) *microRun {
	bk := kernel.MustResolve[E](backend)
	ap := make([]E, bk.PackABufLen(bk.MR(), kc))
	bp := make([]E, bk.PackBBufLen(kc, bk.NR()))
	for i := range ap {
		ap[i] = 1.5
	}
	for i := range bp {
		bp[i] = -0.5
	}
	acc := make([]E, bk.MR()*bk.NR())
	return &microRun{
		name:  name,
		flops: 2 * float64(bk.MR()) * float64(bk.NR()) * float64(kc),
		call:  func() { bk.Micro(kc, ap, bp, acc) },
	}
}

// benchMicros times every micro-kernel configuration round-robin, as
// BenchmarkMicroScatterTerms does in internal/kernel: host noise moves one
// configuration by more than the backends differ when each is timed in its
// own stretch of the run, so one iteration is one pass over all of them, each
// configuration's 512 calls in a pass are one sample, and each reports the
// best and the median of its b.N samples in GFLOP/s. Compare ratios within a
// run (avx512 over avx2, f32 over f64), not numbers across runs; -benchtime
// 20x or more is a measurement.
func benchMicros(b *testing.B, runs []*microRun) {
	const calls = 512
	for _, r := range runs {
		r.samples = r.samples[:0]
	}
	for round := 0; round < b.N; round++ {
		for _, r := range runs {
			start := time.Now()
			for range calls {
				r.call()
			}
			r.samples = append(r.samples, calls*r.flops/float64(time.Since(start).Nanoseconds()))
		}
	}
	b.ReportMetric(0, "ns/op") // a round mixes every configuration; its mean says nothing
	for _, r := range runs {
		slices.Sort(r.samples)
		b.ReportMetric(r.samples[len(r.samples)-1], r.name+"-best-GF/s")
		b.ReportMetric(r.samples[len(r.samples)/2], r.name+"-med-GF/s")
	}
}

// l3Size is where Linux reports the size of the last-level cache cpu0 sees.
const l3Size = "/sys/devices/system/cpu/cpu0/cache/index3/size"

// coldWorkingSet is the operand bytes BenchmarkMulAddBatchCold's batch spans:
// twice the host's L3 (l3Size, e.g. "307200K"), so every job's operands have
// left the cache by the time the next round reaches them, or 64 MiB where
// the size cannot be read.
func coldWorkingSet() int {
	raw, err := os.ReadFile(l3Size)
	s := strings.TrimSpace(string(raw))
	unit := 1
	switch {
	case strings.HasSuffix(s, "K"):
		s, unit = strings.TrimSuffix(s, "K"), 1<<10
	case strings.HasSuffix(s, "M"):
		s, unit = strings.TrimSuffix(s, "M"), 1<<20
	}
	n, perr := strconv.Atoi(s)
	if err != nil || perr != nil || n <= 0 {
		return 64 << 20
	}
	return 2 * n * unit
}

// BenchmarkMulAddBatchCold measures what the cache costs a batch of small
// products whose operands do not fit in it, per float64 backend: the
// fmmbench small_batch workload's Halton shape grid (every dimension in
// 16…192, jobs alternating float64 and float32), extended until the operands
// span coldWorkingSet bytes, on a Threads=1 multiplier. Every job's C is
// written when the jobs are built, so no round pays its first-touch page
// faults. One iteration runs one MulAddBatch per dtype (batch-GF/s), then
// the warm reference (warm-GF/s): the same jobs one by one through MulAdd,
// the same width-1 plans, each job's A, B and C read untimed just before it
// runs. cold/warm is the share of the warm rate the batch keeps — what
// MulAddBatch's claim-ahead prefetch of each job's successor is there to
// raise.
func BenchmarkMulAddBatchCold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var j64 []BatchJob
	var j32 []BatchJob32
	set := coldWorkingSet()
	b.Logf("operand working set %d MiB", set>>20)
	for i, bytes := 0, 0; bytes < set; i++ {
		span := float64(192 - 16 + 1)
		m, k, n := 16+int(halton(i, 2)*span), 16+int(halton(i, 3)*span), 16+int(halton(i, 5)*span)
		if i%2 == 0 {
			j64 = append(j64, coldJob[float64](rng, m, k, n))
			bytes += 8 * (m*k + k*n + m*n)
		} else {
			j32 = append(j32, coldJob[float32](rng, m, k, n))
			bytes += 4 * (m*k + k*n + m*n)
		}
	}
	flops := batchFlops(j64) + batchFlops(j32)
	for _, kern := range kernel.BackendsFor(matrix.Float64) {
		cfg := DefaultConfig()
		cfg.Kernel, cfg.Threads = kern, 1
		mu64, mu32 := NewMultiplier(cfg, PaperArch()), NewMultiplier32(cfg, PaperArch())
		b.Run(kern, func(b *testing.B) {
			var cold, warm time.Duration
			for range b.N {
				t0 := time.Now()
				if err := errors.Join(mu64.MulAddBatch(j64), mu32.MulAddBatch(j32)); err != nil {
					b.Fatal(err)
				}
				cold += time.Since(t0)
				warm += warmJobs(b, mu64, j64) + warmJobs(b, mu32, j32)
			}
			b.ReportMetric(flops*float64(b.N)/cold.Seconds()/1e9, "batch-GF/s")
			b.ReportMetric(flops*float64(b.N)/warm.Seconds()/1e9, "warm-GF/s")
			b.ReportMetric(warm.Seconds()/cold.Seconds(), "cold/warm")
		})
	}
}

// halton is the i-th element (i ≥ 0) of the base-b van der Corput sequence:
// the fmmbench shape grid's coordinates.
func halton(i, b int) float64 {
	f, r := 1.0, 0.0
	for i++; i > 0; i /= b {
		f /= float64(b)
		r += f * float64(i%b)
	}
	return r
}

func coldJob[E matrix.Element](rng *rand.Rand, m, k, n int) GenericBatchJob[E] {
	a, bm := matrix.New[E](m, k), matrix.New[E](k, n)
	a.FillRand(rng)
	bm.FillRand(rng)
	c := matrix.New[E](m, n)
	c.Zero() // fault its pages in now, not in the first timed round
	return GenericBatchJob[E]{C: c, A: a, B: bm}
}

func batchFlops[E matrix.Element](jobs []GenericBatchJob[E]) (f float64) {
	for _, j := range jobs {
		f += 2 * float64(j.A.Rows) * float64(j.A.Cols) * float64(j.B.Cols)
	}
	return f
}

// warmJobs runs the jobs one by one, reading each job's operands untimed
// first, and returns the time spent multiplying.
func warmJobs[E matrix.Element](b *testing.B, mu *GenericMultiplier[E], jobs []GenericBatchJob[E]) (d time.Duration) {
	for _, j := range jobs {
		for _, m := range []matrix.Mat[E]{j.A, j.B, j.C} {
			for i := range m.Rows {
				for _, v := range m.Data[i*m.Stride : i*m.Stride+m.Cols] {
					touchSink += float64(v)
				}
			}
		}
		t0 := time.Now()
		if err := mu.MulAdd(j.C, j.A, j.B); err != nil {
			b.Fatal(err)
		}
		d += time.Since(t0)
	}
	return d
}

// touchSink keeps warmJobs' operand reads from being optimized away.
var touchSink float64

// BenchmarkShardedFMM times the route a product is served at Threads = 2 —
// cut into tiles that each run the product's plan at width 1, or run whole
// at width 1 where no grid fits — against the same family member built with
// NewPlan at Threads = 2, which runs whole with its GEMM fanning out in call
// ("in-call"). The FMM rows are avx2 2048³ (fmmbench's square_large) and
// avx512 4096³, also timed against width-2 GEMM; the GEMM-served rows are
// 160³, 192³, 384³, 640³, 640×384×512 and 96×384×640 on avx2 and avx512,
// the sizes around the MC floor and wire_mix's big class. Two K-dominant avx2
// rows, 192×4096×1000 and 16×4096×768, are served as 1×2×1 MC-floor tiles
// that the model prices just below their 1×1×2 K slabs, so they also time
// those slabs ("slabs", through mulAddSharded): the one pair of grids the
// model nearly ties on. Each row runs where its backend is
// registered; -short keeps avx2 2048³ and avx2 384³.
// The routes are timed round-robin on the same operands, one call each per
// round as benchMicros does, so host noise lands on all of them alike. Each
// reports the fast quartile of its per-call GF/s (the 75th percentile of b.N
// samples), and the served route its ratios to the others. -benchtime 20x or
// more is a measurement; 1x only checks that it runs.
func BenchmarkShardedFMM(b *testing.B) {
	type row struct {
		kern    string
		m, k, n int
		short   bool // kept under -short
		slabs   bool // also time the product cut into 1×1×2 K slabs
	}
	rows := []row{{kernel.AVX2Backend, 2048, 2048, 2048, true, false}, {kernel.AVX512Backend, 4096, 4096, 4096, false, false}}
	for _, kern := range []string{kernel.AVX2Backend, kernel.AVX512Backend} {
		for _, s := range [][3]int{{160, 160, 160}, {192, 192, 192}, {384, 384, 384}, {640, 640, 640}, {640, 384, 512}, {96, 384, 640}} {
			rows = append(rows, row{kern, s[0], s[1], s[2], kern == kernel.AVX2Backend && s[0] == 384, false})
		}
	}
	rows = append(rows, row{kernel.AVX2Backend, 192, 4096, 1000, false, true}, row{kernel.AVX2Backend, 16, 4096, 768, false, true})
	for _, r := range rows {
		if _, ok := archOf(r.kern, matrix.Float64); !ok || testing.Short() && !r.short {
			continue
		}
		b.Run(fmt.Sprintf("%s/%dx%dx%d", r.kern, r.m, r.k, r.n), func(b *testing.B) { benchShardedFMM(b, r.kern, r.m, r.k, r.n, r.slabs) })
	}
}

func benchShardedFMM(b *testing.B, kern string, m, k, n int, slabs bool) {
	cfg := DefaultConfig()
	cfg.Kernel, cfg.Threads = kern, 2
	mu := NewMultiplier(cfg, PaperArch())
	ex, err := mu.Explain(m, k, n)
	if err != nil {
		b.Fatal(err)
	}
	p, err := mu.PlanFor(m, k, n)
	if err != nil {
		b.Fatal(err)
	}
	fmm := len(p.Levels) > 0
	if fmm && ex.GridM == 0 {
		b.Fatalf("%d×%d×%d on %s is served %s unsharded: not a route this benchmark times", m, k, n, kern, p)
	}
	incall, err := NewPlan(cfg, p.Variant, p.Levels...)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%s: %s on a %d×%d×%d grid (0 = whole) against it in-call at width 2", kern, p, ex.GridM, ex.GridN, ex.GridK)
	a, bm, c := matrix.New[float64](m, k), matrix.New[float64](k, n), matrix.New[float64](m, n)
	a.Fill(1.0 / 3)
	bm.Fill(-2.0 / 3)
	type route struct {
		name    string
		run     func()
		samples []float64
	}
	routes := []route{
		{name: "served", run: func() {
			if err := mu.MulAdd(c, a, bm); err != nil {
				b.Fatal(err)
			}
		}},
		{name: "incall", run: func() { incall.MulAdd(c, a, bm) }},
	}
	if fmm { // a GEMM-served row's in-call plan is width-2 GEMM already
		ctx, err := gemm.NewContext[float64](cfg.gemmConfig())
		if err != nil {
			b.Fatal(err)
		}
		routes = append(routes, route{name: "gemm", run: func() { ctx.MulAdd(c, a, bm) }})
	}
	if slabs {
		spec := shard.Spec{M: m, K: k, N: n, GridM: 1, GridN: 1, GridK: 2}
		routes = append(routes, route{name: "slabs", run: func() { mu.mulAddSharded(spec, p, c, a, bm) }})
	}
	for _, r := range routes {
		r.run() // build plans and fill the engines' free lists untimed
	}
	b.ResetTimer()
	for range b.N {
		for i := range routes {
			start := time.Now()
			routes[i].run()
			routes[i].samples = append(routes[i].samples, model.EffectiveGFLOPS(m, k, n, time.Since(start).Seconds()))
		}
	}
	b.StopTimer()
	b.ReportMetric(0, "ns/op") // a round mixes every route; its mean says nothing
	q3 := make([]float64, len(routes))
	for i, r := range routes {
		slices.Sort(r.samples)
		q3[i] = r.samples[3*len(r.samples)/4]
		b.ReportMetric(q3[i], r.name+"-q3-GF/s")
	}
	for i, r := range routes[1:] {
		b.ReportMetric(q3[0]/q3[i+1], "served/"+r.name)
	}
}
