package fmmfam

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fmmfam/internal/autotune"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
)

// archOf is the Arch a multiplier built from PaperArch prices (kern, dtype)
// with; ok is false when kern is not registered on this host/build (avx2 off
// amd64, under -tags purego, or without the CPU feature), where the model
// would silently price the default backend instead.
func archOf(kern string, dt matrix.Dtype) (Arch, bool) {
	_, ok := kernel.ResolveNameFor(kern, dt)
	return model.ArchForKernel(model.ArchForDtype(PaperArch(), dt), kern), ok
}

// TestRecommendAbstains pins the win-or-abstain decision at the paper's
// machine constants: below a kernel's break-even the selector returns gemm,
// the zero-level candidate; above it, the fast plan it returned before GEMM
// was a candidate. Nothing but model.Rank on the Arch decides.
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
		{kernel.AVX512Backend, matrix.Float64, 2048, 2048, 2048, gemm}, // below the break-even, 3841
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
			if tc.want == fmmexec.GEMMName && (len(p.Levels) != 0 || p.Traversal() != nil || p.Fanout() != 1) {
				t.Errorf("%s: gemm plan has %d levels, traversal %v, fanout %d", tc.kern, len(p.Levels), p.Traversal(), p.Fanout())
			}
		}
	}
}

// TestDefaultSquareRoute: the route the benchmark's default_square (1024³,
// T = 2) takes on each kernel an empty Config.Kernel can resolve to. On go4x4
// the product shards into two 1024×1024×512 tiles, each an FMM plan; on avx2
// and avx512 1024 is below the modelled break-even (~1793, ~3841), so there
// is no tile floor two tiles could clear and the selector abstains: one
// unsharded GEMM.
func TestDefaultSquareRoute(t *testing.T) {
	for _, tc := range []struct {
		kern    string
		sharded string // "" = unsharded
	}{
		{kernel.DefaultBackend, "1×2×1"},
		{kernel.AVX2Backend, ""},
		{kernel.AVX512Backend, ""},
	} {
		if _, ok := archOf(tc.kern, matrix.Float64); !ok {
			continue
		}
		cfg := DefaultConfig()
		cfg.Kernel, cfg.Threads = tc.kern, 2
		mu := NewMultiplier(cfg, PaperArch())
		spec, ok := mu.shardSpec(1024, 1024, 1024)
		got := ""
		if ok {
			got = fmt.Sprintf("%d×%d×%d", spec.GridM, spec.GridN, spec.GridK)
		}
		if got != tc.sharded {
			t.Errorf("%s: 1024³ at T=2 shards as %q, want %q", tc.kern, got, tc.sharded)
		}
		// Explain reports that route: the grid, and the plan of the shape it
		// is chosen for — a tile's on a width-1 plan, else the product's.
		ex, err := mu.Explain(1024, 1024, 1024)
		if err != nil {
			t.Fatal(err)
		}
		want := Explanation{Kernel: tc.kern, Arch: mu.arch, MinTile: mu.shardMinTile(), M: 1024, K: 1024, N: 1024, Threads: 2, Plan: fmmexec.GEMMName}
		if ok {
			want.GridM, want.GridN, want.GridK = 1, 2, 1
			want.N, want.Threads = 512, 1
			cfg.Threads = 1
			p, err := NewMultiplier(cfg, PaperArch()).PlanFor(1024, 1024, 512)
			if err != nil {
				t.Fatal(err)
			}
			want.Plan = p.String()
		}
		if ex != want {
			t.Errorf("%s: Explain(1024³) = %+v, want %+v", tc.kern, ex, want)
		}
	}
}

// TestZeroLevelPlanUnderForcedTraversal: a forced "bfs" traversal has no
// level to fan on the zero-level plan, through the Multiplier and NewPlan.
func TestZeroLevelPlanUnderForcedTraversal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads, cfg.Traversal = 2, TraversalBFS
	p, err := NewMultiplier(cfg, PaperArch()).PlanFor(64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != fmmexec.GEMMName || p.Traversal() != nil {
		t.Fatalf("multiplier: plan %q traversal %v", p, p.Traversal())
	}
	if p, err = NewPlan(cfg, ABC); err != nil || p.String() != fmmexec.GEMMName || p.Traversal() != nil {
		t.Fatalf("NewPlan with no levels: %v, %v", p, err)
	}
}

// TestSmallShapesServeGEMM: on avx2 a batch of small products (the
// benchmark's small_batch population, dims in [16,192]) is served entirely by
// zero-level plans — nothing else enters the plan cache — with results inside
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
	entries := mu.plans.entries()
	if len(entries) == 0 {
		t.Fatal("batch cached no plans")
	}
	for key, e := range entries {
		if e.p.String() != fmmexec.GEMMName || key.threads != 1 {
			t.Errorf("class %v width %d cached plan %q, want only width-1 gemm plans", key, key.threads, e.p)
		}
	}
}

// seedPromotion drives pt's bandit with synthetic wall times until the arm
// `to` is the incumbent: the incumbent measures 2 units, `to` 1 unit, any
// other challenger 3 units (confirmed slower, so the rotation moves on). unit
// is far below any model prediction for the class, so the medians a promotion
// feeds back outrank every analytic candidate.
func seedPromotion[E matrix.Element](t *testing.T, mu *GenericMultiplier[E], pt *planTuner[E], to string) {
	t.Helper()
	const unit = 1e-8
	for i := 0; i < 1024; i++ {
		snap := pt.tuner.Snapshot()
		if snap.Arms[0].Plan == to {
			return
		}
		if len(snap.Arms) < 2 {
			break
		}
		jitter := float64(i%3) * 1e-4 * unit
		pt.tuner.Record(snap.Arms[0].Plan, 2*unit+jitter)
		sec := 3 * unit
		if snap.Arms[1].Plan == to {
			sec = unit
		}
		if promo, ok := pt.tuner.Record(snap.Arms[1].Plan, sec+jitter); ok {
			mu.tunePromoted(pt, promo)
		}
	}
	t.Fatalf("arm %q never promoted; tuner: %+v", to, pt.tuner.Snapshot())
}

// TestAutotuneGEMMArm: with autotuning on, gemm is an arm like any other. On
// avx2 a 96³ class has it as the incumbent — with no traversal challenger,
// there being no level to flip — and an FMM plan among the challengers;
// Stats and model.Feedback name it "gemm"; and promotions in either direction
// (FMM over gemm, then gemm back over FMM in the class rebuilt from the
// measured feedback) leave results within tolerance.
func TestAutotuneGEMMArm(t *testing.T) {
	if _, ok := archOf(kernel.AVX2Backend, matrix.Float64); !ok {
		t.Skip("avx2 backend not registered on this host/build")
	}
	cfg := DefaultConfig()
	cfg.Kernel, cfg.Threads, cfg.Autotune, cfg.AutotuneFraction = kernel.AVX2Backend, 2, true, 0.25
	mu := NewMultiplier(cfg, PaperArch())
	rng := rand.New(rand.NewSource(96))
	a, b := NewMatrix(96, 96), NewMatrix(96, 96)
	a.FillRand(rng)
	b.FillRand(rng)
	want := NewMatrix(96, 96)
	matrix.MulAdd(want, a, b)
	serve := func(stage string, f func(c Matrix) error) {
		t.Helper()
		for i := 0; i < 8; i++ { // 8 calls at fraction 1/4: both incumbent and challenger serve
			c := NewMatrix(96, 96)
			if err := f(c); err != nil {
				t.Fatal(err)
			}
			if d := c.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("%s, call %d: diff %g", stage, i, d)
			}
		}
	}
	direct := func(c Matrix) error { return mu.MulAdd(c, a, b) }
	serve("fresh class", direct)

	e, err := mu.entryFor(96, 96, 96, cfg.Threads)
	if err != nil {
		t.Fatal(err)
	}
	gemmKey := e.tun.tuner.Incumbent()
	if e.p.String() != fmmexec.GEMMName || !strings.HasPrefix(gemmKey, fmmexec.GEMMName+"|tr=dfs|") {
		t.Fatalf("96³ on avx2: incumbent %q (plan %q), want gemm", gemmKey, e.p)
	}
	fmmKey := ""
	for _, arm := range e.tun.tuner.Snapshot().Arms[1:] {
		pa := e.tun.arms[arm.Plan]
		switch {
		case len(pa.cand.Levels) == 0 && pa.depth != 0:
			t.Fatalf("gemm got a traversal challenger: %q", arm.Plan)
		case len(pa.cand.Levels) > 0 && fmmKey == "":
			fmmKey = arm.Plan
		}
	}
	if fmmKey == "" {
		t.Fatalf("no FMM challenger beside gemm: %+v", e.tun.tuner.Snapshot().Arms)
	}

	// One way: the FMM challenger is measured faster and takes the class.
	seedPromotion(t, mu, e.tun, fmmKey)
	serve("FMM promoted over gemm", direct)
	shape := e.tun.key.String()
	if _, ok := mu.feedback.Lookup(shape, fmmexec.GEMMName); !ok {
		t.Fatalf("promotion did not record feedback under %q", fmmexec.GEMMName)
	}
	var promos []autotune.Promotion
	for _, sh := range mu.Stats().Shapes {
		if sh.Shape == shape && sh.Kind == "plan" && !sh.Serial {
			promos = sh.Promotions
		}
	}
	if len(promos) != 1 || promos[0].From != gemmKey || promos[0].To != fmmKey {
		t.Fatalf("stats after promotion report %+v, want %q → %q", promos, gemmKey, fmmKey)
	}

	// The other way: rebuilt from the measured feedback (as after a cache
	// eviction) the class has the FMM plan as incumbent and gemm as a
	// challenger; measured faster, gemm takes it back.
	pt, err := mu.newPlanTuner(e.tun.key, 96, 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	if inc := pt.arms[pt.tuner.Incumbent()]; inc.cand.Name() != e.tun.arms[fmmKey].cand.Name() {
		t.Fatalf("rebuilt class incumbent %q, want the promoted %q", inc.cand.Name(), e.tun.arms[fmmKey].cand.Name())
	}
	if _, ok := pt.arms[gemmKey]; !ok {
		t.Fatalf("rebuilt class lost the gemm arm: %+v", pt.tuner.Snapshot().Arms)
	}
	seedPromotion(t, mu, pt, gemmKey)
	serve("gemm promoted over FMM", func(c Matrix) error { return pt.mulAdd(mu, c, a, b) })
	if pt.arms[pt.tuner.Incumbent()].plan.String() != fmmexec.GEMMName {
		t.Fatalf("incumbent after the second promotion: %q", pt.tuner.Incumbent())
	}
}
