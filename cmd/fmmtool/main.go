// Command fmmtool is the developer CLI for the FMM family generator:
//
//	fmmtool list                          catalog table (Figure-2 family)
//	fmmtool describe -shape 2,2,2         print ⟦U,V,W⟧ for a shape
//	fmmtool verify  [-shape m,k,n]        Brent-verify one shape or the catalog
//	fmmtool gen -levels "2,2,2;3,3,3" -variant ABC [-pkg p -func F -selftest -o file]
//	fmmtool model -m 14400 -k 480 -n 14400 [-top 10]
//	fmmtool explain m k n [-kernel name] [-threads t] [-dtype f32|f64]
//	                                      what a Multiplier would do with one product, and why
//	fmmtool discover -shape 2,2,2 -rank 7 [-restarts 10 -iters 1500 -seed 2]
//	fmmtool morton [-levels 3]
//	fmmtool export -shape 2,3,2 [-o file]   write a ⟦U,V,W⟧ coefficient file
//	fmmtool import file.fmm                 parse, Brent-verify and summarize
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"fmmfam"
	"fmmfam/internal/codegen"
	"fmmfam/internal/coeffio"
	"fmmfam/internal/core"
	"fmmfam/internal/discover"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/morton"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "list":
		cmdList()
	case "describe":
		cmdDescribe(args)
	case "verify":
		cmdVerify(args)
	case "gen":
		cmdGen(args)
	case "model":
		cmdModel(args)
	case "explain":
		cmdExplain(args)
	case "discover":
		cmdDiscover(args)
	case "morton":
		cmdMorton(args)
	case "export":
		cmdExport(args)
	case "import":
		cmdImport(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fmmtool list|describe|verify|gen|model|explain|discover|morton|export|import [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmmtool:", err)
	os.Exit(1)
}

func parseShape(s string) (int, int, int) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		fatal(fmt.Errorf("shape %q: want m,k,n", s))
	}
	var d [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			fatal(fmt.Errorf("shape %q: bad dimension %q", s, p))
		}
		d[i] = v
	}
	return d[0], d[1], d[2]
}

func cmdList() {
	fmt.Println("shape\tmkn\tR_paper\tR_ours\ttheory%\tnnzU\tnnzV\tnnzW\tref\tconstruction")
	for _, e := range core.Catalog() {
		u, v, w := e.Algorithm.NNZ()
		fmt.Printf("%s\t%d\t%d\t%d\t%.1f\t%d\t%d\t%d\t%s\t%s\n",
			e.Shape(), e.M*e.K*e.N, e.PaperRank, e.OurRank(),
			e.Algorithm.TheoreticalSpeedup()*100, u, v, w, e.PaperRef, core.Generate(e.M, e.K, e.N).Name)
	}
}

func cmdDescribe(args []string) {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	shape := fs.String("shape", "2,2,2", "partition m,k,n")
	fs.Parse(args)
	m, k, n := parseShape(*shape)
	a := core.Generate(m, k, n)
	fmt.Printf("%s  R=%d  (%s)\n", a.ShapeString(), a.R, a.Name)
	for _, f := range []struct {
		name string
		m    matrix.Mat[float64]
	}{{"U", a.U}, {"V", a.V}, {"W", a.W}} {
		fmt.Printf("%s (%d×%d):\n%v\n", f.name, f.m.Rows, f.m.Cols, f.m)
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	shape := fs.String("shape", "", "partition m,k,n (default: whole catalog)")
	fs.Parse(args)
	if *shape != "" {
		m, k, n := parseShape(*shape)
		a := core.Generate(m, k, n)
		if err := a.Verify(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: ok (Brent equations hold exactly)\n", a)
		return
	}
	for _, e := range core.Catalog() {
		if err := e.Algorithm.Verify(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s R=%d: ok\n", e.Shape(), e.OurRank())
	}
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	levelsFlag := fs.String("levels", "2,2,2", "semicolon-separated per-level shapes, e.g. \"2,2,2;3,3,3\"")
	variantFlag := fs.String("variant", "ABC", "Naive, AB or ABC")
	pkg := fs.String("pkg", "main", "package name")
	fn := fs.String("func", "MulAdd", "function name")
	selfTest := fs.Bool("selftest", false, "emit a self-checking main() (requires -pkg main)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	var levels []core.Algorithm
	for _, part := range strings.Split(*levelsFlag, ";") {
		m, k, n := parseShape(part)
		levels = append(levels, core.Generate(m, k, n))
	}
	var variant fmmexec.Variant
	switch strings.ToUpper(*variantFlag) {
	case "NAIVE":
		variant = fmmexec.Naive
	case "AB":
		variant = fmmexec.AB
	case "ABC":
		variant = fmmexec.ABC
	default:
		fatal(fmt.Errorf("unknown variant %q", *variantFlag))
	}
	src, err := codegen.Generate(codegen.Spec{
		Package: *pkg, FuncName: *fn, Levels: levels, Variant: variant, SelfTest: *selfTest,
	})
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(src)
		return
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(src))
}

func cmdModel(args []string) {
	fs := flag.NewFlagSet("model", flag.ExitOnError)
	m := fs.Int("m", 14400, "m")
	k := fs.Int("k", 480, "k")
	n := fs.Int("n", 14400, "n")
	top := fs.Int("top", 10, "show the N best predictions")
	fs.Parse(args)
	arch := model.PaperIvyBridge()
	ranked := model.Rank(arch, model.DefaultCandidates(), *m, *k, *n)
	gm := model.PredictGEMM(arch, *m, *k, *n).Total()
	fmt.Printf("problem %d×%d×%d on paper Ivy Bridge; GEMM predicted %.3fs (%.2f GFLOPS)\n",
		*m, *k, *n, gm, model.EffectiveGFLOPS(*m, *k, *n, gm))
	fmt.Println("rank\timpl\tpredicted_s\teff_GFLOPS\tvs_gemm")
	for i, r := range ranked {
		if i >= *top {
			break
		}
		fmt.Printf("%d\t%s\t%.3f\t%.2f\t%+.1f%%\n", i+1, r.Candidate.Name(), r.Predicted,
			model.EffectiveGFLOPS(*m, *k, *n, r.Predicted), (gm/r.Predicted-1)*100)
	}
}

// cmdExplain prints the decisions a Multiplier built from DefaultConfig (with
// the given kernel and threads) and the paper's machine constants makes for
// one product, as the Multiplier reports them (Explain): the backend and how
// it was chosen, the constants the selector prices with, whether the product
// shards, and the model's ranking of the shape each plan is chosen for. `fmmtool model` stays the paper's table —
// Ivy Bridge constants on the reference kernel, by name; this is the host's.
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	kern := fs.String("kernel", "", "micro-kernel backend (default: the fastest this host registered)")
	threads := fs.Int("threads", runtime.GOMAXPROCS(0), "Config.Threads")
	dtype := fs.String("dtype", "f64", "element type, f64 or f32")
	var dims []int
	for rest := args; ; { // m k n may stand before, between or after the flags
		fs.Parse(rest)
		if rest = fs.Args(); len(rest) == 0 {
			break
		}
		v, err := strconv.Atoi(rest[0])
		if err != nil || v < 1 {
			fatal(fmt.Errorf("explain: bad dimension %q", rest[0]))
		}
		dims, rest = append(dims, v), rest[1:]
	}
	if len(dims) != 3 {
		fatal(fmt.Errorf("explain: want three dimensions m k n, got %v", dims))
	}
	cfg := fmmfam.DefaultConfig()
	cfg.Threads, cfg.Kernel = *threads, *kern
	switch *dtype {
	case "f64":
		explain[float64](cfg, dims[0], dims[1], dims[2])
	case "f32":
		explain[float32](cfg, dims[0], dims[1], dims[2])
	default:
		fatal(fmt.Errorf("explain: -dtype %q, want f64 or f32", *dtype))
	}
}

func explain[E matrix.Element](cfg fmmfam.Config, m, k, n int) {
	dt := matrix.DtypeOf[E]()
	mu := fmmfam.NewGenericMultiplier[E](cfg, fmmfam.PaperArch())
	ex, err := mu.Explain(m, k, n) // an invalid cfg — an unavailable kernel — surfaces here
	if err != nil {
		fatal(err)
	}
	how := "named"
	if cfg.Kernel == "" {
		how = "fastest registered: " + ex.Kernel
		for _, other := range kernel.BackendsFor(dt) {
			if other != ex.Kernel {
				how += " > " + other
			}
		}
	}
	arch := ex.Arch
	fmt.Printf("problem\t%d×%d×%d %s, %d threads\n", m, k, n, dt, cfg.Threads)
	fmt.Printf("kernel\t%s (%s)\n", ex.Kernel, how)
	fmt.Printf("arch\tpaper Ivy Bridge priced for %s/%s: tau_a=%.3g s/flop tau_b=%.3g s/elem lambda=%.2f MC=%d KC=%d NC=%d; FMM break-even %d³\n",
		ex.Kernel, dt, arch.TauA, arch.TauB, arch.Lambda, arch.MC, arch.KC, arch.NC, ex.MinTile)
	if ex.GridM > 0 {
		fmt.Printf("sharding\t%d×%d×%d grid (m×n×k): %d tiles of up to %d×%d×%d, each on its own width-1 plan\n",
			ex.GridM, ex.GridN, ex.GridK, ex.GridM*ex.GridN*ex.GridK, ex.M, ex.K, ex.N)
	} else {
		fmt.Printf("sharding\tno (needs ≥ 2 threads, a dimension ≥ %d and room for two tiles ≥ %d): one width-%d plan\n",
			fmmfam.DefaultShardThreshold, ex.MinTile, ex.Threads)
	}
	fmt.Printf("serves\t%s", ex.Plan)
	if ex.Traversal != "" {
		fmt.Printf(" (traversal %s)", ex.Traversal)
	}
	// The ranking the plan came from: the selector's own Rank on the
	// multiplier's Arch and the shape it chose a plan for.
	fmt.Printf("\nranking\t%d×%d×%d, one core of the model's machine\n", ex.M, ex.K, ex.N)
	fmt.Println("rank\timpl\tTa_s\tTm_s\tpredicted_s\teff_GFLOPS")
	for i, r := range model.Rank(arch, model.DefaultCandidates(), ex.M, ex.K, ex.N)[:3] {
		b := model.Predict(arch, r.Candidate.Stats(), r.Candidate.Variant, ex.M, ex.K, ex.N)
		fmt.Printf("%d\t%s\t%.4g\t%.4g\t%.4g\t%.2f\n", i+1, r.Candidate.Name(), b.Ta, b.Tm, b.Total(),
			model.EffectiveGFLOPS(ex.M, ex.K, ex.N, b.Total()))
	}
}

func cmdDiscover(args []string) {
	fs := flag.NewFlagSet("discover", flag.ExitOnError)
	shape := fs.String("shape", "2,2,2", "target partition m,k,n")
	rank := fs.Int("rank", 7, "target rank R")
	restarts := fs.Int("restarts", 10, "random restarts")
	iters := fs.Int("iters", 1500, "ALS sweeps per restart")
	seed := fs.Int64("seed", 2, "RNG seed")
	register := fs.Bool("register", false, "register a found algorithm as a generator seed")
	fs.Parse(args)
	m, k, n := parseShape(*shape)
	p := discover.Problem{M: m, K: k, N: n, R: *rank}
	fmt.Printf("searching %s (restarts=%d iters=%d seed=%d)...\n", p, *restarts, *iters, *seed)
	a, err := discover.Search(p, discover.Options{Restarts: *restarts, Iters: *iters, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("found %s — Brent-verified exact\n", a)
	if *register {
		if err := core.RegisterSeed(a); err != nil {
			fatal(err)
		}
		fmt.Println("registered as generator seed (in-process)")
	}
}

func cmdExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	shape := fs.String("shape", "2,2,2", "partition m,k,n")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	m, k, n := parseShape(*shape)
	a := core.Generate(m, k, n)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := coeffio.Write(w, a); err != nil {
		fatal(err)
	}
}

func cmdImport(args []string) {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("import: exactly one file argument required"))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	a, err := coeffio.Read(f)
	if err != nil {
		fatal(err)
	}
	u, v, w := a.NNZ()
	fmt.Printf("%s: Brent-verified exact; theoretical speedup %.1f%%, nnz %d/%d/%d\n",
		a, a.TheoreticalSpeedup()*100, u, v, w)
	if cur := core.Generate(a.M, a.K, a.N); a.R < cur.R {
		fmt.Printf("improves on the built-in generator (%d < %d); register with core.RegisterSeed\n", a.R, cur.R)
	}
}

func cmdMorton(args []string) {
	fs := flag.NewFlagSet("morton", flag.ExitOnError)
	levels := fs.Int("levels", 3, "levels of 2×2 splitting")
	fs.Parse(args)
	grids := make([]morton.Grid, *levels)
	for i := range grids {
		grids[i] = morton.Grid{R: 2, C: 2}
	}
	for _, row := range morton.Table(grids) {
		for j, v := range row {
			if j > 0 {
				fmt.Print("\t")
			}
			fmt.Print(v)
		}
		fmt.Println()
	}
}
