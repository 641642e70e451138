package fmmfam

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

func TestMultiplierCorrectAcrossShapes(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, PaperArch())
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][3]int{{64, 64, 64}, {100, 30, 100}, {33, 77, 51}, {64, 64, 64}} {
		a, b := NewMatrix(s[0], s[1]), NewMatrix(s[1], s[2])
		a.FillRand(rng)
		b.FillRand(rng)
		c := NewMatrix(s[0], s[2])
		want := NewMatrix(s[0], s[2])
		matrix.MulAdd(want, a, b)
		if err := mu.MulAdd(c, a, b); err != nil {
			t.Fatal(err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("shape %v: diff %g", s, d)
		}
	}
}

func TestMultiplierCachesPlans(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 1, Kernel: "go4x4"}, PaperArch()) // gemm and an FMM plan
	p1, err := mu.PlanFor(100, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := mu.PlanFor(101, 99, 100) // same power-of-two bucket
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("nearby sizes should share a cached plan")
	}
	if _, err := mu.PlanFor(1000, 100, 1000); err != nil {
		t.Fatal(err)
	}
	if mu.CachedPlans() != 2 {
		t.Fatalf("cached %d plans, want 2", mu.CachedPlans())
	}
}

func TestMultiplierDimError(t *testing.T) {
	mu := NewMultiplier(DefaultConfig(), PaperArch())
	if err := mu.MulAdd(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2)); err == nil {
		t.Fatal("expected error")
	}
}

func TestMultiplierZeroSizeNoop(t *testing.T) {
	mu := NewMultiplier(DefaultConfig(), PaperArch())
	c := NewMatrix(3, 3)
	c.Fill(1)
	if err := mu.MulAdd(c, NewMatrix(3, 0), NewMatrix(0, 3)); err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 1 {
		t.Fatal("k=0 must not touch C")
	}
}

// TestPlanCacheLRUEviction pins the bounded-cache contract for long-running
// servers: over DefaultPlanCacheCap + 1 distinct shape classes the cache
// never exceeds DefaultPlanCacheCap, the least-recently-used class is the one
// evicted, and recently-touched plans keep their identity (callers of a live
// shape class always share one plan).
func TestPlanCacheLRUEviction(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 1}, PaperArch())
	// DefaultPlanCacheCap + 1 shape classes: one power-of-two bucket per
	// dimension each, all of them small enough to be GEMM plans.
	var classes [][3]int
	for m := 1; m <= 64; m *= 2 {
		for k := 1; k <= 64; k *= 2 {
			for n := 1; n <= 2; n *= 2 {
				classes = append(classes, [3]int{m, k, n})
			}
		}
	}
	classes = classes[:DefaultPlanCacheCap+1]
	plans := make([]*Plan, len(classes))
	for i, s := range classes[:DefaultPlanCacheCap] {
		p, err := mu.PlanFor(s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	a := classes[0]
	if again, _ := mu.PlanFor(a[0], a[1], a[2]); again != plans[0] {
		t.Fatal("cache hit must return the shared plan")
	}
	// One class past the bound evicts the LRU class — the second, since the
	// first was just touched.
	last := classes[DefaultPlanCacheCap]
	if _, err := mu.PlanFor(last[0], last[1], last[2]); err != nil {
		t.Fatal(err)
	}
	if got := mu.CachedPlans(); got != DefaultPlanCacheCap {
		t.Fatalf("cache holds %d plans, bound is %d", got, DefaultPlanCacheCap)
	}
	if p, _ := mu.PlanFor(a[0], a[1], a[2]); p != plans[0] {
		t.Fatal("recently-used plan was evicted")
	}
	b := classes[1]
	if p, _ := mu.PlanFor(b[0], b[1], b[2]); p == plans[1] {
		t.Fatal("LRU plan should have been evicted and rebuilt")
	}
	if got := mu.CachedPlans(); got != DefaultPlanCacheCap {
		t.Fatalf("cache holds %d plans after refill, bound is %d", got, DefaultPlanCacheCap)
	}
}

// TestPlanCacheBoundAcrossWidths: direct traffic (full-width plans) and
// batch traffic (width-1 plans) share one cache and one bound. A multiplier
// serving both over more shape classes than the bound — a small one here, set
// on the cache itself — never reports, or retains, more than that many plans,
// reports the width-1 plans it holds, and evicts least-recently-used across
// widths.
func TestPlanCacheBoundAcrossWidths(t *testing.T) {
	const limit = 4
	cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 2}
	mu := NewMultiplier(cfg, PaperArch())
	mu.plans = newPlanCache[float64](limit)
	check := func(step string, want int) {
		t.Helper()
		if got := mu.CachedPlans(); got != want {
			t.Fatalf("%s: CachedPlans() = %d, want %d (cap %d)", step, got, want, limit)
		}
		if got := mu.Stats().CachedPlans; got != want {
			t.Fatalf("%s: Stats().CachedPlans = %d, want %d", step, got, want)
		}
		if got := len(mu.plans.entries()); got > limit {
			t.Fatalf("%s: multiplier retains %d plans, cap is %d", step, got, limit)
		}
	}
	mul := func(n int, batch bool) {
		t.Helper()
		c, a, b := NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n)
		var err error
		if batch {
			err = mu.MulAddBatch([]BatchJob{{C: c, A: a, B: b}})
		} else {
			err = mu.MulAdd(c, a, b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Batch traffic alone is visible: three shape classes, three plans.
	for i, n := range []int{8, 16, 32} {
		mul(n, true)
		check("batch", i+1)
	}
	// Direct traffic on three more classes crosses the cap: the total stays
	// at the cap, and the oldest entries — width-1 ones — are the evicted.
	for i, n := range []int{64, 100, 8} {
		mul(n, false)
		check("direct", min(3+i+1, limit))
	}
	for _, n := range []int{8, 16} {
		if _, ok := mu.plans.entries()[shapeClass(n, n, n, 1)]; ok {
			t.Fatalf("width-1 plan of the %d³ class survived %d newer insertions at cap %d", n, 3, limit)
		}
	}
	if _, ok := mu.plans.entries()[shapeClass(8, 8, 8, cfg.Threads)]; !ok {
		t.Fatal("most recent full-width plan missing from the cache")
	}
}

// checkPlansShareEngine asserts the one-engine structure over every cached
// plan of mu: all plans of one width report the same Context() pointer — the
// multiplier's engine, on the configured kernel backend, for full-width plans,
// that engine's Serial() view for width-1 ones — on the multiplier's own pool.
// It returns how many plans of each width it saw.
func checkPlansShareEngine(t *testing.T, mu *Multiplier) (serial, wide int) {
	t.Helper()
	engine, err := mu.engine(mu.cfg.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Pool() != mu.pool {
		t.Fatal("engine runs on a pool of its own")
	}
	if got := engine.Backend().Name(); got != mu.cfg.Kernel {
		t.Fatalf("engine runs backend %q, want the configured %q", got, mu.cfg.Kernel)
	}
	for key, e := range mu.plans.entries() {
		want := engine
		if key.threads == 1 {
			want = engine.Serial()
			serial++
		} else {
			wide++
		}
		if e.p.Context() != want {
			t.Fatalf("plan %v (%s) executes on a context of its own", key, e.p)
		}
		if got := e.p.Context().Config().Threads; got != key.threads {
			t.Fatalf("width-%d entry %v holds a Threads=%d plan", key.threads, key, got)
		}
	}
	return serial, wide
}

// TestMultiplierPlansShareOnePool: every plan a multiplier builds, at either
// width, executes on the multiplier's one engine — hence on the multiplier's
// own pool, the one MulAddBatch and the shard paths dispatch on — so there is
// one worker budget to exhaust and one store of buffers to fill, at four
// threads and at eight (wideCfg).
func TestMultiplierPlansShareOnePool(t *testing.T) {
	four := wideCfg()
	four.Threads = 4
	for _, cfg := range []Config{four, wideCfg()} {
		mu := NewMultiplier(cfg, PaperArch())
		for _, n := range []int{24, 96, 256} {
			for _, threads := range []int{1, cfg.Threads} {
				if _, err := mu.entryFor(n, n, n, threads); err != nil {
					t.Fatal(err)
				}
			}
		}
		if serial, wide := checkPlansShareEngine(t, mu); serial != 3 || wide != 3 {
			t.Fatalf("T=%d: saw %d width-1 and %d full-width plans, want 3 and 3", cfg.Threads, serial, wide)
		}
	}
}

// TestRetainedMemoryIndependentOfCachedPlans pins the engine's memory
// invariant end to end: a Threads=2 multiplier at default blocking serves one
// batch touching 48 shape classes twice, and what it keeps alive afterwards
// (plans, engine, pooled buffers) is below one maxRetainedFloats worth of
// float64s — where one private context, workspace pool and pre-allocated
// workspace per cached plan kept 4–5 MiB per plan, about 200 MiB here. The
// multiplier pinned to avx2 also serves one product down every other route —
// direct, 1×2 column tiles, K-split slabs and an async job — and every plan
// and buffer of all of them must be on its one avx2 engine. The operands are
// allocated before the baseline reading.
func TestRetainedMemoryIndependentOfCachedPlans(t *testing.T) {
	// The host's fastest backend, then every backend by name.
	kernels := append([]string{""}, Kernels()...)
	dims := []int{24, 48, 96, 160} // one per power-of-two bucket
	rng := rand.New(rand.NewSource(13))
	var jobs []BatchJob
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims[:3] {
				a, b := NewMatrix(m, k), NewMatrix(k, n)
				a.FillRand(rng)
				b.FillRand(rng)
				jobs = append(jobs, BatchJob{C: NewMatrix(m, n), A: a, B: b})
			}
		}
	}
	routes := []struct {
		m, k, n int
		grid    string // the route's shard grid, "" = unsharded
	}{{160, 160, 160, ""}, {1024, 128, 1024, "1×2×1"}, {128, 4096, 128, "1×1×2"}}
	routeJobs := make([]BatchJob, len(routes))
	for i, r := range routes {
		a, b := NewMatrix(r.m, r.k), NewMatrix(r.k, r.n)
		a.FillRand(rng)
		b.FillRand(rng)
		routeJobs[i] = BatchJob{C: NewMatrix(r.m, r.n), A: a, B: b}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, kern := range kernels {
		t.Run("kernel="+kern, func(t *testing.T) {
			before := heap()
			cfg := DefaultConfig()
			cfg.Threads, cfg.Kernel = 2, kern
			mu := NewMultiplier(cfg, PaperArch())
			for pass := 0; pass < 2; pass++ {
				if err := mu.MulAddBatch(jobs); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range dims { // a few full-width plans beside the batch's width-1 ones
				if _, err := mu.PlanFor(n, n, n); err != nil {
					t.Fatal(err)
				}
			}
			if kern == kernel.AVX2Backend {
				for i, r := range routes {
					ex, err := mu.Explain(r.m, r.k, r.n)
					if err != nil {
						t.Fatal(err)
					}
					if grid := fmt.Sprintf("%d×%d×%d", ex.GridM, ex.GridN, ex.GridK); r.grid != "" && grid != r.grid || r.grid == "" && ex.GridM != 0 {
						t.Fatalf("%d×%d×%d shards as %s, want %q", r.m, r.k, r.n, grid, r.grid)
					}
					j := routeJobs[i]
					if err := mu.MulAdd(j.C, j.A, j.B); err != nil {
						t.Fatal(err)
					}
				}
				j := jobs[0]
				if err := mu.MulAddAsync(j.C, j.A, j.B).Wait(); err != nil {
					t.Fatal(err)
				}
				mu.Close()
			}
			growth := heap() - before
			const bound = 64 << 20 // gemm's maxRetainedFloats, in float64 bytes
			t.Logf("%d cached plans retain %.1f MiB", mu.CachedPlans(), float64(growth)/(1<<20))
			if growth > bound {
				t.Fatalf("%d cached plans retain %d MiB, want < %d MiB", mu.CachedPlans(), growth>>20, bound>>20)
			}
			wantWide := len(dims)
			if kern == kernel.AVX2Backend {
				wantWide++ // shardSpec's look at the 1024×128×1024 product's own plan
			}
			serial, wide := checkPlansShareEngine(t, mu)
			if serial < 40 || wide != wantWide {
				t.Fatalf("cache holds %d width-1 and %d full-width plans, want ≥ 40 and %d", serial, wide, wantWide)
			}
			runtime.KeepAlive(jobs)
			runtime.KeepAlive(routeJobs)
		})
	}
}

// TestShardedMulAddAllocatesNothing: a warm sharded MulAdd allocates nothing,
// like the warm unsharded one (gemm's TestParallelMulAddAllocatesNothing):
// its per-call state — tile groups, errors, pool jobs bound once — is rented
// from the multiplier, and its K-split reduction buffers from the engine. On
// avx2 at T = 2 that covers 1024³ cut into GEMM tiles, 2880×480×2880 cut into
// FMM tiles and 256×16384×256 cut along K; on the reference kernel, the same
// three kinds at test sizes.
func TestShardedMulAddAllocatesNothing(t *testing.T) {
	avx2 := DefaultConfig()
	avx2.Kernel, avx2.Threads = kernel.AVX2Backend, 2
	for _, tc := range []struct {
		cfg     Config
		m, k, n int
		kind    string // what the tiles are: "gemm", "fmm" or "k-split"
	}{
		{avx2, 1024, 1024, 1024, "gemm"},
		{avx2, 2880, 480, 2880, "fmm"},
		{avx2, 256, 16384, 256, "k-split"},
		{servingCfg(), 96, 64, 256, "gemm"},
		{servingCfg(), 512, 256, 512, "fmm"},
		{servingCfg(), 48, 512, 48, "k-split"},
	} {
		name := fmt.Sprintf("%s/%dx%dx%d", tc.cfg.Kernel, tc.m, tc.k, tc.n)
		t.Run(name, func(t *testing.T) {
			if _, ok := archOf(tc.cfg.Kernel, matrix.Float64); !ok {
				t.Skipf("%s not registered on this host/build", tc.cfg.Kernel)
			}
			mu := NewMultiplier(tc.cfg, PaperArch())
			route, ok := mu.shardSpec(tc.m, tc.k, tc.n)
			if !ok {
				t.Fatal("product does not shard")
			}
			kind := "gemm"
			if tl := route.Tile(0); route.GridK > 1 {
				kind = "k-split"
			} else if mu.servesFMM(tl.Rows, tl.Depth, tl.Cols, 1) {
				kind = "fmm"
			}
			if kind != tc.kind {
				t.Fatalf("%v: %s tiles, want %s", route, kind, tc.kind)
			}
			rng := rand.New(rand.NewSource(26))
			a, b, c := NewMatrix(tc.m, tc.k), NewMatrix(tc.k, tc.n), NewMatrix(tc.m, tc.n)
			a.FillRand(rng)
			b.FillRand(rng)
			// Warm plans, run states and buffers with Threads calls at once: the
			// engine's free lists grow to the most tiles that ever overlapped,
			// and one call's tiles overlap by however many helpers the host
			// happens to wake, so a single warm call can leave a later one
			// short of a workspace.
			errs := make([]error, tc.cfg.Threads)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = mu.MulAdd(NewMatrix(tc.m, tc.n), a, b)
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(3, func() { mu.MulAdd(c, a, b) }); n != 0 {
				t.Fatalf("warm sharded MulAdd (%v) allocates %v times per call", route, n)
			}
		})
	}
}

func TestBucketPowersOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 64: 64, 65: 128, 1000: 1024}
	for x, want := range cases {
		if got := bucket(x); got != want {
			t.Fatalf("bucket(%d) = %d, want %d", x, got, want)
		}
	}
}
