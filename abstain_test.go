package fmmfam

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
)

// archOf is the Arch a multiplier built from PaperArch and DefaultConfig's
// blocking prices (kern, dtype) with; ok is false when kern is not registered
// on this host/build (avx2 off amd64, under -tags purego, or without the CPU
// feature), where the model would silently price the default backend instead.
func archOf(kern string, dt matrix.Dtype) (Arch, bool) {
	_, ok := kernel.ResolveNameFor(kern, dt)
	arch, cfg := PaperArch(), DefaultConfig()
	arch.MC, arch.KC, arch.NC = cfg.MC, cfg.KC, cfg.NC
	return model.ArchForKernel(model.ArchForDtype(arch, dt), kern), ok
}

// TestRecommendAbstains pins the win-or-abstain decision at the paper's
// machine constants: below a kernel's break-even the selector returns gemm,
// the zero-level candidate; above it, the fast plan it returned before GEMM
// was a candidate. Nothing but the model's ranking on the Arch decides.
func TestRecommendAbstains(t *testing.T) {
	const gemm = fmmexec.GEMMName
	cases := []struct {
		kern    string
		dt      matrix.Dtype
		m, k, n int
		want    string
	}{
		{kernel.AVX2Backend, matrix.Float64, 64, 64, 64, gemm},
		{kernel.AVX2Backend, matrix.Float64, 104, 104, 104, gemm},
		{kernel.AVX2Backend, matrix.Float64, 192, 192, 192, gemm},
		{kernel.AVX2Backend, matrix.Float64, 256, 8192, 256, gemm},   // kdom_shard's K-split slabs
		{kernel.AVX2Backend, matrix.Float64, 1024, 1024, 1024, gemm}, // default_square where avx2 is the fastest registered
		{kernel.AVX2Backend, matrix.Float64, 2048, 2048, 2048, "<2,2,2> ABC"},
		{kernel.AVX2Backend, matrix.Float64, 2880, 480, 2880, "<2,2,2> ABC"},
		{kernel.AVX2Backend, matrix.Float32, 104, 104, 104, gemm},
		{kernel.AVX512Backend, matrix.Float64, 1024, 1024, 1024, gemm}, // default_square where avx512 is the fastest registered
		{kernel.AVX512Backend, matrix.Float64, 2048, 2048, 2048, gemm}, // below the break-even, 3524
		{kernel.AVX512Backend, matrix.Float64, 2880, 480, 2880, gemm},
		{kernel.DefaultBackend, matrix.Float64, 64, 64, 64, gemm},
		{kernel.DefaultBackend, matrix.Float64, 1024, 1024, 512, "<2,2,2>+<2,2,2> ABC"}, // default_square's tiles
		{kernel.DefaultBackend, matrix.Float64, 1024, 1024, 1024, "<2,2,2>+<2,2,2> ABC"},
	}
	for _, tc := range cases {
		arch, ok := archOf(tc.kern, tc.dt)
		if !ok {
			t.Logf("%s/%s not registered here: skipping %d×%d×%d", tc.kern, tc.dt, tc.m, tc.k, tc.n)
			continue
		}
		if got := Recommend(arch, tc.m, tc.k, tc.n).Name(); got != tc.want {
			t.Errorf("%s %s %d×%d×%d: recommended %q, want %q", tc.kern, tc.dt, tc.m, tc.k, tc.n, got, tc.want)
		}
	}
}

// TestBestMatchesRank: selection's one-pass argmin over the family's stored
// stats is the full ranking's head — the same candidate, the same predicted
// time to the bit — on every registered (kernel, dtype) pair, over squares
// from 64 to 8192, rank-k, K-dominant, tiny and ragged shapes and both sides
// of the three float64 break-evens, and Recommend returns it. A hand-built
// copy of the family, which computes its own stats, prices exactly like the
// family, and an exact tie goes to the first candidate, gemm.
func TestBestMatchesRank(t *testing.T) {
	fam := model.DefaultCandidates()
	hand := make([]Candidate, len(fam))
	for i, c := range fam {
		if got, want := c.Stats(), model.StatsOf(c.Levels...); got != want {
			t.Fatalf("%s: stored stats %+v, StatsOf %+v", c.Name(), got, want)
		}
		hand[i] = Candidate{Levels: c.Levels, Variant: c.Variant}
	}
	var shapes [][3]int
	for s := 64; s <= 8192; s *= 2 {
		shapes = append(shapes, [3]int{s, s, s})
	}
	for _, be := range []int{148, 1793, 3524} {
		shapes = append(shapes, [3]int{be - 1, be - 1, be - 1}, [3]int{be, be, be})
	}
	shapes = append(shapes,
		[3]int{2880, 480, 2880}, [3]int{14400, 480, 14400}, [3]int{4096, 256, 4096}, // rank-k
		[3]int{256, 16384, 256}, [3]int{256, 8192, 256}, [3]int{64, 65536, 64}, // K-dominant
		[3]int{1, 1, 1}, [3]int{2, 3, 5}, [3]int{16, 16, 16}, [3]int{7, 1, 9}, // tiny
		[3]int{71, 278, 151}, [3]int{71, 278, 150}, [3]int{104, 96, 17}, [3]int{4097, 513, 5000}, [3]int{1023, 1025, 999}, // ragged
	)
	// best is Best's pick of cands, priced as Rank prices it.
	best := func(arch Arch, cands []Candidate, m, k, n int) model.Ranked {
		c := cands[model.Best(arch, cands, m, k, n)]
		return model.Ranked{Candidate: c, Predicted: Predict(arch, c, m, k, n)}
	}
	same := func(a, b model.Ranked) bool {
		return a.Candidate.Name() == b.Candidate.Name() && math.Float64bits(a.Predicted) == math.Float64bits(b.Predicted)
	}
	for _, kern := range []string{kernel.DefaultBackend, kernel.AVX2Backend, kernel.AVX512Backend} {
		for _, dt := range []matrix.Dtype{matrix.Float64, matrix.Float32} {
			arch, ok := archOf(kern, dt)
			if !ok {
				t.Logf("%s/%s not registered here: skipping", kern, dt)
				continue
			}
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				want := model.Rank(arch, fam, m, k, n)[0]
				if got := best(arch, fam, m, k, n); !same(got, want) {
					t.Errorf("%s %s %d×%d×%d: Best %q at %v, Rank[0] %q at %v", kern, dt, m, k, n,
						got.Candidate.Name(), got.Predicted, want.Candidate.Name(), want.Predicted)
				}
				if got := best(arch, hand, m, k, n); !same(got, want) {
					t.Errorf("%s %s %d×%d×%d: hand-built Best %q at %v, want %q at %v", kern, dt, m, k, n,
						got.Candidate.Name(), got.Predicted, want.Candidate.Name(), want.Predicted)
				}
				if got := Recommend(arch, m, k, n).Name(); got != want.Candidate.Name() {
					t.Errorf("%s %s %d×%d×%d: Recommend %q, Rank[0] %q", kern, dt, m, k, n, got, want.Candidate.Name())
				}
				for i := range fam {
					f, h := Predict(arch, fam[i], m, k, n), Predict(arch, hand[i], m, k, n)
					if math.Float64bits(f) != math.Float64bits(h) {
						t.Fatalf("%s %s %d×%d×%d: %s priced %v in the family, %v hand-built", kern, dt, m, k, n, fam[i].Name(), f, h)
					}
				}
			}
		}
	}

	// A one-level classical <1,1,1> has gemm's stats and so its price: an
	// exact tie, which the first candidate wins in Best as in Rank.
	arch := PaperArch()
	twin := Candidate{Levels: []Algorithm{core.Classical(1, 1, 1)}, Variant: fmmexec.ABC}
	for _, order := range [][]Candidate{{{}, twin}, {twin, {}}} {
		want := model.Rank(arch, order, 300, 300, 300)
		got := best(arch, order, 300, 300, 300)
		if want[0].Predicted != want[1].Predicted || !same(got, want[0]) || got.Candidate.Name() != order[0].Name() {
			t.Errorf("tie %q vs %q: Best %q at %v, Rank %q at %v then %v", order[0].Name(), order[1].Name(),
				got.Candidate.Name(), got.Predicted, want[0].Candidate.Name(), want[0].Predicted, want[1].Predicted)
		}
	}
}

// TestRecommendAllocatesNothing: once the family is enumerated, choosing a
// plan allocates nothing, so a class fill pays only the model's
// arithmetic.
func TestRecommendAllocatesNothing(t *testing.T) {
	arch := PaperArch()
	Recommend(arch, 300, 300, 300) // enumerate the family
	if a := testing.AllocsPerRun(100, func() { Recommend(arch, 71, 278, 151) }); a != 0 {
		t.Fatalf("a warm Recommend allocates %v times", a)
	}
}

// TestPlanForAboveBreakEvenUnchanged: where the model ranks a fast plan
// first, the Multiplier builds the plan it built before GEMM was a candidate
// — the shapes the benchmark's default_square (go4x4, 1024×1024×512 tiles),
// square_large and rankk (avx2) workloads execute — and below the break-even
// the same call returns the zero-level plan.
func TestPlanForAboveBreakEvenUnchanged(t *testing.T) {
	cases := []struct {
		kern    string
		m, k, n int
		want    string
	}{
		{kernel.DefaultBackend, 1024, 1024, 512, "<2,2,2>+<2,2,2> ABC"},
		{kernel.DefaultBackend, 96, 96, 96, fmmexec.GEMMName},
		{kernel.AVX2Backend, 2048, 2048, 2048, "<2,2,2> ABC"},
		{kernel.AVX2Backend, 2880, 480, 2880, "<2,2,2> ABC"},
		{kernel.AVX2Backend, 256, 8192, 256, fmmexec.GEMMName},
		{kernel.AVX2Backend, 1024, 1024, 1024, fmmexec.GEMMName},
		{kernel.AVX512Backend, 1024, 1024, 1024, fmmexec.GEMMName},
	}
	for _, tc := range cases {
		if _, ok := archOf(tc.kern, matrix.Float64); !ok {
			continue
		}
		for _, threads := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.Kernel, cfg.Threads = tc.kern, threads
			p, err := NewMultiplier(cfg, PaperArch()).PlanFor(tc.m, tc.k, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if p.String() != tc.want {
				t.Errorf("%s threads=%d %d×%d×%d: plan %q, want %q", tc.kern, threads, tc.m, tc.k, tc.n, p, tc.want)
			}
			if tc.want == fmmexec.GEMMName && len(p.Levels) != 0 {
				t.Errorf("%s: gemm plan has %d levels", tc.kern, len(p.Levels))
			}
		}
	}
}

// TestDefaultSquareRoute: the route a product takes — shard grid and the
// product's family member, which runs whole or on every tile, always at
// width 1 — per kernel and width, on default_square (1024³ at T = 2, through
// every kernel an empty Config.Kernel can resolve to) and the shapes that pin
// the grid rule: tiles ≥ MC; K slabs ≥ break-even at or above the threshold;
// the cheaper grid wins. The K-whole grid at MC is served whichever plan
// serves the product: GEMM (1024³ at T = 2 on avx2 and avx512) or a fast
// algorithm (avx2 2880×480×2880 and 2048³, avx512 4096³ — whose tiles run
// the product's plan although their own class would pick GEMM; go4x4 at
// T = 4 and 8), also below the threshold (wire_mix's big class: avx2 384³
// and 640×384×512). The K-slab grid at the break-even wins only where the
// model prices it lower (256×16384×256, 1×1×2 on every kernel). A product
// with no room for two MC tiles (avx2 160³) runs whole. Every benchmark
// workload's shapes are pinned at T = 2 on every kernel. On every sharded row
// Explain names PlanFor's plan.
func TestDefaultSquareRoute(t *testing.T) {
	for _, tc := range []struct {
		kern    string
		threads int
		m, k, n int
		grid    string // "" = unsharded
		plan    string // the product's member, whole or on every tile
	}{
		{kernel.DefaultBackend, 2, 1024, 1024, 1024, "1×2×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX2Backend, 2, 1024, 1024, 1024, "1×2×1", fmmexec.GEMMName},
		{kernel.AVX512Backend, 2, 1024, 1024, 1024, "1×2×1", fmmexec.GEMMName},
		{kernel.AVX2Backend, 2, 2880, 480, 2880, "1×2×1", "<2,2,2> ABC"},
		{kernel.AVX2Backend, 2, 2048, 2048, 2048, "1×2×1", "<2,2,2> ABC"},
		{kernel.AVX512Backend, 2, 4096, 4096, 4096, "1×2×1", "<2,2,2> AB"},
		{kernel.DefaultBackend, 2, 256, 16384, 256, "1×1×2", "<2,2,2> AB"},
		{kernel.AVX2Backend, 2, 256, 16384, 256, "1×1×2", fmmexec.GEMMName},
		{kernel.AVX512Backend, 2, 256, 16384, 256, "1×1×2", fmmexec.GEMMName},
		{kernel.DefaultBackend, 4, 1024, 600, 600, "2×2×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX2Backend, 4, 1024, 600, 600, "2×2×1", fmmexec.GEMMName},
		{kernel.AVX512Backend, 4, 1024, 600, 600, "2×2×1", fmmexec.GEMMName},
		{kernel.DefaultBackend, 8, 1024, 1024, 1024, "2×4×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX2Backend, 8, 1024, 1024, 1024, "2×4×1", fmmexec.GEMMName},
		{kernel.AVX512Backend, 8, 1024, 1024, 1024, "2×4×1", fmmexec.GEMMName},
		{kernel.AVX2Backend, 2, 384, 384, 384, "1×2×1", fmmexec.GEMMName},
		{kernel.AVX2Backend, 2, 640, 384, 512, "2×1×1", fmmexec.GEMMName},
		{kernel.AVX2Backend, 2, 160, 160, 160, "", fmmexec.GEMMName},
		// Every benchmark workload's shapes at T = 2 on every kernel, so a
		// pricing change has to show which routes it moves: square_large
		// (2048³), rankk (2880×480×2880), small_batch (16³ to 192³), wire_mix
		// (128³ small, 384–640 big) and 4096³; default_square and kdom_shard
		// are above.
		{kernel.DefaultBackend, 2, 2048, 2048, 2048, "1×2×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX512Backend, 2, 2048, 2048, 2048, "1×2×1", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 2880, 480, 2880, "1×2×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX512Backend, 2, 2880, 480, 2880, "1×2×1", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 4096, 4096, 4096, "1×2×1", "<2,2,2>+<2,2,2> AB"},
		{kernel.AVX2Backend, 2, 4096, 4096, 4096, "1×2×1", "<2,2,2> AB"},
		{kernel.DefaultBackend, 2, 16, 16, 16, "", fmmexec.GEMMName},
		{kernel.AVX2Backend, 2, 16, 16, 16, "", fmmexec.GEMMName},
		{kernel.AVX512Backend, 2, 16, 16, 16, "", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 128, 128, 128, "", fmmexec.GEMMName},
		{kernel.AVX2Backend, 2, 128, 128, 128, "", fmmexec.GEMMName},
		{kernel.AVX512Backend, 2, 128, 128, 128, "", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 192, 192, 192, "1×2×1", "<2,2,2> ABC"},
		{kernel.AVX2Backend, 2, 192, 192, 192, "1×2×1", fmmexec.GEMMName},
		{kernel.AVX512Backend, 2, 192, 192, 192, "1×2×1", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 384, 384, 384, "1×2×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX512Backend, 2, 384, 384, 384, "1×2×1", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 640, 384, 512, "2×1×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX512Backend, 2, 640, 384, 512, "2×1×1", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 640, 640, 640, "1×2×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX2Backend, 2, 640, 640, 640, "1×2×1", fmmexec.GEMMName},
		{kernel.AVX512Backend, 2, 640, 640, 640, "1×2×1", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 512, 469, 435, "2×1×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX2Backend, 2, 512, 469, 435, "2×1×1", fmmexec.GEMMName},
		{kernel.AVX512Backend, 2, 512, 469, 435, "2×1×1", fmmexec.GEMMName},
		{kernel.DefaultBackend, 2, 576, 412, 538, "2×1×1", "<2,2,2>+<2,2,2> ABC"},
		{kernel.AVX2Backend, 2, 576, 412, 538, "2×1×1", fmmexec.GEMMName},
		{kernel.AVX512Backend, 2, 576, 412, 538, "2×1×1", fmmexec.GEMMName},
	} {
		if _, ok := archOf(tc.kern, matrix.Float64); !ok {
			continue
		}
		cfg := DefaultConfig()
		cfg.Kernel, cfg.Threads = tc.kern, tc.threads
		mu := NewMultiplier(cfg, PaperArch())
		route, ok := mu.shardSpec(tc.m, tc.k, tc.n)
		got := ""
		if ok {
			got = fmt.Sprintf("%d×%d×%d", route.GridM, route.GridN, route.GridK)
		}
		name := fmt.Sprintf("%s %d×%d×%d at T=%d", tc.kern, tc.m, tc.k, tc.n, tc.threads)
		if got != tc.grid {
			t.Errorf("%s shards as %q, want %q", name, got, tc.grid)
		}
		// Explain reports that route: the grid, the floor it was cut at, the
		// largest tile or the product, and the product's plan.
		ex, err := mu.Explain(tc.m, tc.k, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			p, err := mu.PlanFor(tc.m, tc.k, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Plan != p.String() {
				t.Errorf("%s: Explain names %q, PlanFor %q", name, ex.Plan, p)
			}
		}
		want := Explanation{Kernel: tc.kern, Arch: mu.arch, M: tc.m, K: tc.k, N: tc.n, Plan: tc.plan}
		if ok {
			tl := route.Tile(0)
			want.GridM, want.GridN, want.GridK = route.GridM, route.GridN, route.GridK
			want.M, want.K, want.N = tl.Rows, tl.Depth, tl.Cols
		}
		if ex != want {
			t.Errorf("%s: Explain = %+v, want %+v", name, ex, want)
		}
	}
}

// TestSmallShapesServeGEMM: on avx2 a batch of small products (the
// benchmark's small_batch population, dims in [16,192]) is served entirely by
// zero-level plans — no other family member is built — with results inside
// the usual tolerance, at both element types.
func TestSmallShapesServeGEMM(t *testing.T) {
	t.Run("float64", func(t *testing.T) { smallShapesServeGEMM[float64](t, 1e-9) })
	t.Run("float32", func(t *testing.T) { smallShapesServeGEMM[float32](t, 1e-2) })
}

func smallShapesServeGEMM[E matrix.Element](t *testing.T, tol float64) {
	if _, ok := archOf(kernel.AVX2Backend, matrix.DtypeOf[E]()); !ok {
		t.Skip("avx2 backend not registered on this host/build")
	}
	cfg := DefaultConfig()
	cfg.Kernel, cfg.Threads = kernel.AVX2Backend, 2
	mu := NewGenericMultiplier[E](cfg, PaperArch())
	rng := rand.New(rand.NewSource(15))
	dim := func() int { return 16 + rng.Intn(177) }
	jobs := make([]GenericBatchJob[E], 48)
	want := make([]matrix.Mat[E], len(jobs))
	for i := range jobs {
		m, k, n := dim(), dim(), dim()
		a, b := matrix.New[E](m, k), matrix.New[E](k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		jobs[i] = GenericBatchJob[E]{C: matrix.New[E](m, n), A: a, B: b}
		want[i] = matrix.New[E](m, n)
		matrix.MulAdd(want[i], a, b)
	}
	if err := mu.MulAddBatch(jobs); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if d := j.C.MaxAbsDiff(want[i]); d > tol {
			t.Fatalf("job %d (%d×%d×%d): diff %g", i, j.A.Rows, j.A.Cols, j.B.Cols, d)
		}
	}
	classes := classPlans(mu)
	if len(classes) == 0 {
		t.Fatal("batch filled no shape classes")
	}
	for key, p := range classes {
		if p.String() != fmmexec.GEMMName {
			t.Errorf("class %v serves plan %q, want only gemm plans", key, p)
		}
	}
	if built := builtPlans(mu); len(built) != 1 {
		t.Errorf("built %d plans, want the one gemm plan", len(built))
	}
}
