// Command experiments regenerates every table and figure of the paper's
// evaluation (Figures 2, 3, 6, 7, 8, 9, 10 plus the stability ablation) as
// TSV series on stdout.
//
// Actual (measured) curves run on the micro-kernel backend the FMMFAM_KERNEL
// environment variable names (fmmfam.EnvKernel; "avx2" and "avx512" are the
// assembly ones — an unknown or unavailable name is an error, never a silent
// fallback),
// against an Arch calibrated through that backend; the "# calibrated:" header
// records which. Unset, they run on the reference pure-Go kernel "go4x4" on
// every host: the figures are built on internal/gemm directly, where an empty
// name keeps that meaning, not on an fmmfam.Config, where it means the host's
// fastest backend. They run at a reduced
// default scale — the pure-Go kernel is roughly an order of magnitude slower
// than the paper's assembly kernel, so the paper's m=n=14400 sweeps are
// impractical to sweep exhaustively; pass -scale=paper to run the original
// sizes anyway. Modeled curves are always also emitted at the exact paper
// sizes with the paper's Ivy Bridge machine constants, whatever the kernel,
// which reproduces the modeled halves of Figures 6 and 7 faithfully.
//
// Usage:
//
//	experiments -exp fig2|fig3|fig6|fig7|fig8|fig9|fig10|stability|all
//	            [-scale small|medium|paper] [-threads N] [-modelonly]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"fmmfam"
	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/morton"
	"fmmfam/internal/stability"
)

type runner struct {
	scale     string
	threads   int
	modelOnly bool

	cfg      gemm.Config
	arch     model.Arch // calibrated to this machine
	paperA   model.Arch // paper machine constants
	planMemo map[string]*fmmexec.Plan[float64]
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig2, fig3, fig6, fig7, fig8, fig9, fig10, stability, all")
	scale := flag.String("scale", "small", "problem scale: small, medium, paper")
	threads := flag.Int("threads", 1, "worker count for the serial experiments (figs 9/10 use all CPUs regardless)")
	modelOnly := flag.Bool("modelonly", false, "emit only modeled series (no measurements)")
	flag.Parse()

	r := &runner{
		scale:     *scale,
		threads:   *threads,
		modelOnly: *modelOnly,
		paperA:    model.PaperIvyBridge(),
		planMemo:  map[string]*fmmexec.Plan[float64]{},
	}
	r.cfg = gemm.DefaultConfig()
	r.cfg.Threads = *threads
	r.cfg.Kernel = fmmfam.EnvKernel()
	if err := gemm.ValidateFor[float64](r.cfg); err != nil {
		fatal(err)
	}
	if !r.modelOnly {
		one := r.cfg
		one.Threads = 1
		arch, err := model.Calibrate[float64](one, 384)
		if err != nil {
			fatal(err)
		}
		// Fit λ so the model matches a measured GEMM point (§4.2: "λ is
		// adapted to match gemm performance").
		probe := 480
		g := r.gemmGFLOPS(gemm.MustNewContext[float64](one), probe, probe, probe)
		secs := 2 * float64(probe) * float64(probe) * float64(probe) / (g * 1e9)
		r.arch = model.FitLambda(arch, probe, probe, probe, secs)
		fmt.Printf("# calibrated: kernel=%s, tauA=%.3e s/flop (%.2f GFLOPS), tauB=%.3e s/elem, lambda=%.2f\n",
			r.arch.Kernel, r.arch.TauA, 1/r.arch.TauA/1e9, r.arch.TauB, r.arch.Lambda)
	} else {
		r.arch = r.paperA
	}

	exps := map[string]func(){
		"fig2":      r.figure2,
		"fig3":      r.figure3,
		"fig6":      r.figure6,
		"fig7":      r.figure7,
		"fig8":      r.figure8,
		"fig9":      r.figure9,
		"fig10":     r.figure10,
		"crossover": r.crossover,
		"stability": r.stability,
	}
	if *exp == "all" {
		for _, name := range []string{"fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "stability"} {
			exps[name]()
		}
		return
	}
	f, ok := exps[*exp]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	f()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// base returns the m=n base size for the current scale, aligned to 2·3·kC
// style multiples so that partitioned blocks stay kC-friendly.
func (r *runner) base() int {
	switch r.scale {
	case "paper":
		return 14400
	case "medium":
		return 1440
	default:
		return 960
	}
}

// plan returns a memoized plan.
func (r *runner) plan(v fmmexec.Variant, threads int, levels ...core.Algorithm) *fmmexec.Plan[float64] {
	key := fmt.Sprintf("%v|%d", v, threads)
	for _, l := range levels {
		key += "|" + l.String()
	}
	if p, ok := r.planMemo[key]; ok {
		return p
	}
	cfg := r.cfg
	cfg.Threads = threads
	p := fmmexec.MustNewPlan[float64](cfg, v, levels...)
	r.planMemo[key] = p
	return p
}

// measure times fn over the given problem and returns effective GFLOPS.
func measure(m, k, n int, fn func(c, a, b matrix.Mat[float64])) float64 {
	a, b := matrix.New[float64](m, k), matrix.New[float64](k, n)
	a.Fill(1.0 / 3)
	b.Fill(-2.0 / 3)
	c := matrix.New[float64](m, n)
	best := 0.0
	for rep := 0; rep < 2; rep++ {
		c.Zero()
		start := time.Now()
		fn(c, a, b)
		el := time.Since(start).Seconds()
		if g := model.EffectiveGFLOPS(m, k, n, el); g > best {
			best = g
		}
	}
	return best
}

func (r *runner) gemmGFLOPS(ctx *gemm.Context[float64], m, k, n int) float64 {
	return measure(m, k, n, func(c, a, b matrix.Mat[float64]) { ctx.MulAdd(c, a, b) })
}

func (r *runner) planGFLOPS(p *fmmexec.Plan[float64], m, k, n int) float64 {
	return measure(m, k, n, func(c, a, b matrix.Mat[float64]) { p.MulAdd(c, a, b) })
}

// modelGFLOPS evaluates the model as effective GFLOPS.
func modelGFLOPS(arch model.Arch, s model.Stats, v fmmexec.Variant, m, k, n int) float64 {
	return model.EffectiveGFLOPS(m, k, n, model.Predict(arch, s, v, m, k, n).Total())
}

func modelGemmGFLOPS(arch model.Arch, m, k, n int) float64 {
	return model.EffectiveGFLOPS(m, k, n, model.PredictGEMM(arch, m, k, n).Total())
}

// ---------------------------------------------------------------- Figure 2

// figure2 regenerates the Figure-2 table: per catalog shape, the rank, the
// theoretical speedup, and practical speedups for the paper's two problem
// shapes (rank-k update and near-square), one-level ABC vs the GEMM baseline.
func (r *runner) figure2() {
	fmt.Println("## Figure 2: theoretical and practical speedup of one-level FMM (ABC) vs GEMM")
	base := r.base()
	k1 := base / 3 // rank-k update (paper: 14400×480)
	k2 := base * 5 / 6
	fmt.Printf("# practical #1: m=n=%d k=%d; practical #2: m=n=%d k=%d; threads=%d\n", base, k1, base, k2, r.threads)
	fmt.Println("shape\tmkn\tR_paper\tR_ours\ttheory_paper%\ttheory_ours%\tpractical1%\tpractical2%")
	ctx := gemm.MustNewContext[float64](r.cfg)
	var g1, g2 float64
	if !r.modelOnly {
		g1 = r.gemmGFLOPS(ctx, base, k1, base)
		g2 = r.gemmGFLOPS(ctx, base, k2, base)
	}
	for _, e := range core.Catalog() {
		theoryPaper := (float64(e.M*e.K*e.N)/float64(e.PaperRank) - 1) * 100
		theoryOurs := e.Algorithm.TheoreticalSpeedup() * 100
		p1, p2 := 0.0, 0.0
		if !r.modelOnly {
			p := r.plan(fmmexec.ABC, r.threads, e.Algorithm)
			p1 = (r.planGFLOPS(p, base, k1, base)/g1 - 1) * 100
			p2 = (r.planGFLOPS(p, base, k2, base)/g2 - 1) * 100
		} else {
			s := model.StatsOf(e.Algorithm)
			p1 = (modelGFLOPS(r.paperA, s, fmmexec.ABC, 14400, 480, 14400)/modelGemmGFLOPS(r.paperA, 14400, 480, 14400) - 1) * 100
			p2 = (modelGFLOPS(r.paperA, s, fmmexec.ABC, 14400, 12000, 14400)/modelGemmGFLOPS(r.paperA, 14400, 12000, 14400) - 1) * 100
		}
		fmt.Printf("%s\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
			e.Shape(), e.M*e.K*e.N, e.PaperRank, e.OurRank(), theoryPaper, theoryOurs, p1, p2)
	}
	fmt.Println()
}

// ---------------------------------------------------------------- Figure 3

// figure3 prints the recursive block storage indexing of Figure 3.
func (r *runner) figure3() {
	fmt.Println("## Figure 3: recursive block storage indexing (Morton-like), three levels of <2,2>")
	tab := morton.Table([]morton.Grid{{R: 2, C: 2}, {R: 2, C: 2}, {R: 2, C: 2}})
	for _, row := range tab {
		for j, v := range row {
			if j > 0 {
				fmt.Print("\t")
			}
			fmt.Printf("%2d", v)
		}
		fmt.Println()
	}
	fmt.Println()
}

// fig6Algos is the algorithm subset swept in the measured Figures 6–8 runs
// (the full catalog is swept in model space; measuring all 23 is possible
// but slow — use -scale=paper -exp=fig6 on a big machine for the full set).
func fig6Algos() []core.CatalogEntry {
	var out []core.CatalogEntry
	for _, s := range [][3]int{{2, 2, 2}, {2, 3, 2}, {3, 3, 3}, {4, 2, 4}, {3, 6, 3}} {
		e, ok := core.CatalogShape(s[0], s[1], s[2])
		if !ok {
			panic("missing catalog shape")
		}
		out = append(out, e)
	}
	return out
}

// ---------------------------------------------------------------- Figure 6

// figure6 sweeps k for one-level implementations of all three variants:
// actual (reduced scale, calibrated arch) and modeled (paper scale, paper
// arch) Effective GFLOPS.
func (r *runner) figure6() {
	fmt.Println("## Figure 6: one-level ABC/AB/Naive, m=n fixed, k sweep (actual & modeled)")
	base := r.base()
	ks := sweep(base/6, base, 6)
	ctx := gemm.MustNewContext[float64](r.cfg)

	// Modeled series at exact paper sizes for every catalog algorithm.
	fmt.Println("# modeled, paper scale: m=n=14400, paper Ivy Bridge arch")
	fmt.Println("variant\tshape\tk\tmodel_GFLOPS\tmodel_gemm_GFLOPS")
	for _, v := range fmmexec.Variants {
		for _, e := range core.Catalog() {
			s := model.StatsOf(e.Algorithm)
			for _, k := range sweep(1200, 12000, 10) {
				fmt.Printf("%s\t%s\t%d\t%.2f\t%.2f\n", v, e.Shape(), k,
					modelGFLOPS(r.paperA, s, v, 14400, k, 14400),
					modelGemmGFLOPS(r.paperA, 14400, k, 14400))
			}
		}
	}
	if r.modelOnly {
		fmt.Println()
		return
	}
	fmt.Printf("# actual, m=n=%d, threads=%d\n", base, r.threads)
	fmt.Println("variant\tshape\tk\tGFLOPS\tgemm_GFLOPS\tmodel_GFLOPS")
	for _, v := range fmmexec.Variants {
		for _, e := range fig6Algos() {
			s := model.StatsOf(e.Algorithm)
			p := r.plan(v, r.threads, e.Algorithm)
			for _, k := range ks {
				fmt.Printf("%s\t%s\t%d\t%.2f\t%.2f\t%.2f\n", v, e.Shape(), k,
					r.planGFLOPS(p, base, k, base),
					r.gemmGFLOPS(ctx, base, k, base),
					modelGFLOPS(r.arch, s, v, base, k, base))
			}
		}
	}
	fmt.Println()
}

// ---------------------------------------------------------------- Figure 7

// figure7 sweeps two-level ABC implementations over the paper's three
// problem-shape families.
func (r *runner) figure7() {
	fmt.Println("## Figure 7: two-level ABC; sweeps: m=k=n | m=n fixed,k | k fixed,m=n (actual & modeled)")
	base := r.base()
	fmt.Println("# modeled, paper scale, two-level, ABC")
	fmt.Println("sweep\tshape\tx\tmodel_GFLOPS\tmodel_gemm_GFLOPS")
	for _, e := range core.Catalog() {
		s := model.StatsOf(e.Algorithm, e.Algorithm)
		for _, x := range sweep(1200, 12000, 10) {
			fmt.Printf("square\t%s\t%d\t%.2f\t%.2f\n", e.Shape(), x,
				modelGFLOPS(r.paperA, s, fmmexec.ABC, x, x, x), modelGemmGFLOPS(r.paperA, x, x, x))
			fmt.Printf("ksweep\t%s\t%d\t%.2f\t%.2f\n", e.Shape(), x,
				modelGFLOPS(r.paperA, s, fmmexec.ABC, 14400, x, 14400), modelGemmGFLOPS(r.paperA, 14400, x, 14400))
			fmt.Printf("mnsweep\t%s\t%d\t%.2f\t%.2f\n", e.Shape(), x,
				modelGFLOPS(r.paperA, s, fmmexec.ABC, x, 1024, x), modelGemmGFLOPS(r.paperA, x, 1024, x))
		}
	}
	if r.modelOnly {
		fmt.Println()
		return
	}
	ctx := gemm.MustNewContext[float64](r.cfg)
	fmt.Printf("# actual, base=%d, threads=%d\n", base, r.threads)
	fmt.Println("sweep\tshape\tx\tGFLOPS\tgemm_GFLOPS\tmodel_GFLOPS")
	kfix := 256 // stands in for the paper's k=1024 = 4·kC at reduced scale
	for _, e := range fig6Algos() {
		s := model.StatsOf(e.Algorithm, e.Algorithm)
		p := r.plan(fmmexec.ABC, r.threads, e.Algorithm, e.Algorithm)
		for _, x := range sweep(base/4, base, 4) {
			fmt.Printf("square\t%s\t%d\t%.2f\t%.2f\t%.2f\n", e.Shape(), x,
				r.planGFLOPS(p, x, x, x), r.gemmGFLOPS(ctx, x, x, x),
				modelGFLOPS(r.arch, s, fmmexec.ABC, x, x, x))
			fmt.Printf("ksweep\t%s\t%d\t%.2f\t%.2f\t%.2f\n", e.Shape(), x,
				r.planGFLOPS(p, base, x, base), r.gemmGFLOPS(ctx, base, x, base),
				modelGFLOPS(r.arch, s, fmmexec.ABC, base, x, base))
			fmt.Printf("mnsweep\t%s\t%d\t%.2f\t%.2f\t%.2f\n", e.Shape(), x,
				r.planGFLOPS(p, x, kfix, x), r.gemmGFLOPS(ctx, x, kfix, x),
				modelGFLOPS(r.arch, s, fmmexec.ABC, x, kfix, x))
		}
	}
	fmt.Println()
}

// ---------------------------------------------------------------- Figure 8

// figure8 demonstrates model-guided selection: per sweep point, GEMM, the
// measured-best implementation from the candidate pool, and the
// model-selected implementation (top-2 predicted, then measured).
func (r *runner) figure8() {
	fmt.Println("## Figure 8: selecting FMM implementations with the performance model")
	if r.modelOnly {
		fmt.Println("# (skipped: requires measurement)")
		fmt.Println()
		return
	}
	base := r.base()
	ctx := gemm.MustNewContext[float64](r.cfg)
	// Candidate pool: subset shapes × {1,2} levels × 3 variants.
	var cands []model.Candidate
	for _, e := range fig6Algos() {
		for _, v := range fmmexec.Variants {
			cands = append(cands, model.Candidate{Levels: []core.Algorithm{e.Algorithm}, Variant: v})
			cands = append(cands, model.Candidate{Levels: []core.Algorithm{e.Algorithm, e.Algorithm}, Variant: v})
		}
	}
	fmt.Println("sweep\tx\tgemm_GFLOPS\tbest_GFLOPS\tbest_impl\tselected_GFLOPS\tselected_impl")
	type pt struct {
		sweepName string
		m, k, n   int
		x         int
	}
	var pts []pt
	for _, x := range sweep(base/4, base, 4) {
		pts = append(pts, pt{"square", x, x, x, x})
		pts = append(pts, pt{"ksweep", base, x, base, x})
		pts = append(pts, pt{"mnsweep", x, 256, x, x})
	}
	for _, q := range pts {
		gflopsOf := func(c model.Candidate) float64 {
			return r.planGFLOPS(r.plan(c.Variant, r.threads, c.Levels...), q.m, q.k, q.n)
		}
		// Measured best over the whole pool.
		bestG, bestName := 0.0, ""
		for _, c := range cands {
			if g := gflopsOf(c); g > bestG {
				bestG, bestName = g, c.Name()
			}
		}
		// Model-guided: top-2 predicted, then measured (§4.4).
		sel, err := model.Select(r.arch, cands, q.m, q.k, q.n, func(c model.Candidate) float64 {
			return 1 / gflopsOf(c)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\t%d\t%.2f\t%.2f\t%s\t%.2f\t%s\n",
			q.sweepName, q.x, r.gemmGFLOPS(ctx, q.m, q.k, q.n),
			bestG, bestName, gflopsOf(sel), sel.Name())
	}
	fmt.Println()
}

// ---------------------------------------------------------------- Figure 9

// figure9 compares hybrid two-level partitions against homogeneous ones for
// rank-k updates (k fixed near 2·3·kC), on one core and on all cores.
func (r *runner) figure9() {
	fmt.Println("## Figure 9: benefit of hybrid partitions (k fixed, m=n sweep, ABC)")
	if r.modelOnly {
		fmt.Println("# (skipped: requires measurement)")
		fmt.Println()
		return
	}
	base := r.base()
	kfix := 6 * r.cfg.KC / 4 // ≈ 2·3·kC/4: crossover region for 2- and 3-way k splits
	if r.scale == "paper" {
		kfix = 1200
	}
	s222 := core.Generate(2, 2, 2)
	s232 := core.Generate(2, 3, 2)
	s333 := core.Generate(3, 3, 3)
	plans := []struct {
		name   string
		levels []core.Algorithm
	}{
		{"<2,2,2> 1L", []core.Algorithm{s222}},
		{"<2,3,2> 1L", []core.Algorithm{s232}},
		{"<3,3,3> 1L", []core.Algorithm{s333}},
		{"<2,2,2> 2L", []core.Algorithm{s222, s222}},
		{"<2,3,2> 2L", []core.Algorithm{s232, s232}},
		{"<3,3,3> 2L", []core.Algorithm{s333, s333}},
		{"<2,2,2>+<2,3,2>", []core.Algorithm{s222, s232}},
		{"<2,2,2>+<3,3,3>", []core.Algorithm{s222, s333}},
	}
	for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg := r.cfg
		cfg.Threads = threads
		ctx := gemm.MustNewContext[float64](cfg)
		fmt.Printf("# k=%d, threads=%d\n", kfix, threads)
		fmt.Println("impl\tmn\tGFLOPS\tgemm_GFLOPS")
		for _, pl := range plans {
			p := r.plan(fmmexec.ABC, threads, pl.levels...)
			for _, x := range sweep(base/4, base, 4) {
				fmt.Printf("%s\t%d\t%.2f\t%.2f\n", pl.name, x,
					r.planGFLOPS(p, x, kfix, x), r.gemmGFLOPS(ctx, x, kfix, x))
			}
		}
	}
	fmt.Println()
}

// --------------------------------------------------------------- Figure 10

// figure10 reports multicore performance: our best generated implementation
// (ABC) vs the reference style of [1] (the Naive variant) vs GEMM, on the
// paper's three sweeps.
func (r *runner) figure10() {
	fmt.Println("## Figure 10: parallel performance, ours (ABC) vs reference-style (Naive) vs GEMM")
	if r.modelOnly {
		fmt.Println("# (skipped: requires measurement)")
		fmt.Println()
		return
	}
	threads := runtime.GOMAXPROCS(0)
	base := r.base()
	cfg := r.cfg
	cfg.Threads = threads
	ctx := gemm.MustNewContext[float64](cfg)
	fmt.Printf("# threads=%d\n", threads)
	fmt.Println("sweep\tshape\tx\tours_GFLOPS\treference_GFLOPS\tgemm_GFLOPS")
	for _, e := range fig6Algos() {
		ours := r.plan(fmmexec.ABC, threads, e.Algorithm)
		ref := r.plan(fmmexec.Naive, threads, e.Algorithm)
		for _, x := range sweep(base/4, base, 4) {
			fmt.Printf("square\t%s\t%d\t%.2f\t%.2f\t%.2f\n", e.Shape(), x,
				r.planGFLOPS(ours, x, x, x), r.planGFLOPS(ref, x, x, x), r.gemmGFLOPS(ctx, x, x, x))
			fmt.Printf("ksweep\t%s\t%d\t%.2f\t%.2f\t%.2f\n", e.Shape(), x,
				r.planGFLOPS(ours, base, x, base), r.planGFLOPS(ref, base, x, base), r.gemmGFLOPS(ctx, base, x, base))
			fmt.Printf("mnsweep\t%s\t%d\t%.2f\t%.2f\t%.2f\n", e.Shape(), x,
				r.planGFLOPS(ours, x, 256, x), r.planGFLOPS(ref, x, 256, x), r.gemmGFLOPS(ctx, x, 256, x))
		}
	}
	fmt.Println()
}

// --------------------------------------------------------------- crossover

// crossover measures the parallel FMM-vs-GEMM crossover at sizes beyond the
// default sweeps (supplement to Figure 10: where bandwidth contention sits
// on this machine). Run with different GOMAXPROCS to move along the
// compute:bandwidth axis.
func (r *runner) crossover() {
	fmt.Println("## Parallel crossover: 1/2-level <2,2,2> ABC vs GEMM at larger sizes")
	if r.modelOnly {
		fmt.Println("# (skipped: requires measurement)")
		fmt.Println()
		return
	}
	threads := runtime.GOMAXPROCS(0)
	cfg := r.cfg
	cfg.Threads = threads
	ctx := gemm.MustNewContext[float64](cfg)
	one := r.plan(fmmexec.ABC, threads, core.Strassen())
	two := r.plan(fmmexec.ABC, threads, core.Strassen(), core.Strassen())
	fmt.Printf("# threads=%d\n", threads)
	fmt.Println("m\tk\tn\tgemm_GFLOPS\tabc1L_GFLOPS\tabc2L_GFLOPS")
	for _, s := range [][3]int{{2880, 2880, 2880}, {4800, 960, 4800}, {4800, 4800, 4800}} {
		fmt.Printf("%d\t%d\t%d\t%.2f\t%.2f\t%.2f\n", s[0], s[1], s[2],
			r.gemmGFLOPS(ctx, s[0], s[1], s[2]),
			r.planGFLOPS(one, s[0], s[1], s[2]),
			r.planGFLOPS(two, s[0], s[1], s[2]))
	}
	fmt.Println()
}

// --------------------------------------------------------------- stability

func (r *runner) stability() {
	fmt.Println("## Stability ablation: forward error vs levels (Strassen, ABC, random [-1,1) inputs)")
	if r.modelOnly {
		fmt.Println("# (skipped: requires measurement)")
		fmt.Println()
		return
	}
	size := 512
	rs, err := stability.LevelSweep(r.cfg, core.Strassen(), fmmexec.ABC, 3, size, 1)
	if err != nil {
		fatal(err)
	}
	fmt.Println("levels\tmax_err\trel_err\tgemm_err")
	for i, res := range rs {
		fmt.Printf("%d\t%.3e\t%.3e\t%.3e\n", i+1, res.MaxErr, res.RelErr, res.GemmErr)
	}
	fmt.Println()
}

// sweep returns n roughly even points from lo to hi inclusive, each rounded
// to a multiple of 24 (so partitions by 2, 3, 4, 6 stay integral).
func sweep(lo, hi, n int) []int {
	if n < 2 {
		return []int{hi}
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*i/(n-1)
		x = (x / 24) * 24
		if x < 24 {
			x = 24
		}
		if len(out) == 0 || out[len(out)-1] != x {
			out = append(out, x)
		}
	}
	return out
}
