package fmmfam

import (
	"math/rand"
	"runtime"
	"testing"

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
// servers: with PlanCacheCap distinct shape classes in flight the cache
// never exceeds its cap, the least-recently-used class is the one evicted,
// and recently-touched plans keep their identity (callers of a live shape
// class always share one plan).
func TestPlanCacheLRUEviction(t *testing.T) {
	cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 1, PlanCacheCap: 2}
	mu := NewMultiplier(cfg, PaperArch())
	pA, err := mu.PlanFor(64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := mu.PlanFor(128, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := mu.PlanFor(64, 64, 64); again != pA {
		t.Fatal("cache hit must return the shared plan")
	}
	// Inserting a third class evicts the LRU class — B, since A was just
	// touched.
	if _, err := mu.PlanFor(256, 64, 256); err != nil {
		t.Fatal(err)
	}
	if got := mu.CachedPlans(); got != 2 {
		t.Fatalf("cache holds %d plans, cap is 2", got)
	}
	if pA2, _ := mu.PlanFor(64, 64, 64); pA2 != pA {
		t.Fatal("recently-used plan was evicted")
	}
	if pB2, _ := mu.PlanFor(128, 128, 128); pB2 == pB {
		t.Fatal("LRU plan should have been evicted and rebuilt")
	}
	if got := mu.CachedPlans(); got != 2 {
		t.Fatalf("cache holds %d plans after refill, cap is 2", got)
	}

	// Negative cap means unbounded.
	unb := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 1, PlanCacheCap: -1}, PaperArch())
	for _, s := range [][3]int{{64, 64, 64}, {128, 64, 64}, {256, 64, 64}, {512, 64, 64}} {
		if _, err := unb.PlanFor(s[0], s[1], s[2]); err != nil {
			t.Fatal(err)
		}
	}
	if got := unb.CachedPlans(); got != 4 {
		t.Fatalf("unbounded cache holds %d plans, want 4", got)
	}
}

// TestPlanCacheBoundAcrossWidths: direct traffic (full-width plans) and
// batch traffic (width-1 plans) share one cache and one PlanCacheCap. A
// multiplier serving both over more shape classes than the cap never
// reports — or retains — more than cap plans, reports the width-1 plans it
// holds, and evicts least-recently-used across widths.
func TestPlanCacheBoundAcrossWidths(t *testing.T) {
	const limit = 4
	cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 2, PlanCacheCap: limit}
	mu := NewMultiplier(cfg, PaperArch())
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

// checkPlansShareEngine asserts the one-engine-per-kernel structure over
// every cached plan of mu: all plans of one width report the same Context()
// pointer — the configured kernel's engine for full-width plans, that
// engine's Serial() view for width-1 ones — on the multiplier's own pool. It
// returns how many plans of each width it saw.
func checkPlansShareEngine(t *testing.T, mu *Multiplier) (serial, wide int) {
	t.Helper()
	engine, err := mu.engine("", mu.cfg.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Pool() != mu.pool {
		t.Fatal("engine runs on a pool of its own")
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
// width and under either traversal, executes on the multiplier's one engine
// — hence on the multiplier's own pool, the one MulAddBatch and the shard
// paths dispatch on — so there is one worker budget to exhaust and one store
// of buffers to fill.
func TestMultiplierPlansShareOnePool(t *testing.T) {
	for _, traversal := range []string{TraversalAuto, TraversalBFS} {
		mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 4, Traversal: traversal, Kernel: "go4x4"}, PaperArch()) // 200³ is an FMM plan here
		for _, n := range []int{24, 96, 200} {
			for _, threads := range []int{1, 4} {
				if _, err := mu.entryFor(n, n, n, threads); err != nil {
					t.Fatal(err)
				}
			}
		}
		if serial, wide := checkPlansShareEngine(t, mu); serial != 3 || wide != 3 {
			t.Fatalf("traversal %s: saw %d width-1 and %d full-width plans, want 3 and 3", traversal, serial, wide)
		}
	}
}

// TestRetainedMemoryIndependentOfCachedPlans pins the engine's memory
// invariant end to end: a Threads=2 multiplier at default blocking serves one
// batch touching 48 shape classes twice, and what it keeps alive afterwards
// (plans, engine, pooled buffers) is below one maxRetainedFloats worth of
// float64s — where one private context, workspace pool and pre-allocated
// workspace per cached plan kept 4–5 MiB per plan, about 200 MiB here. The
// operands are allocated before the baseline reading.
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
			growth := heap() - before
			const bound = 64 << 20 // gemm's maxRetainedFloats, in float64 bytes
			t.Logf("%d cached plans retain %.1f MiB", mu.CachedPlans(), float64(growth)/(1<<20))
			if growth > bound {
				t.Fatalf("%d cached plans retain %d MiB, want < %d MiB", mu.CachedPlans(), growth>>20, bound>>20)
			}
			serial, wide := checkPlansShareEngine(t, mu)
			if serial < 40 || wide != len(dims) {
				t.Fatalf("cache holds %d width-1 and %d full-width plans, want ≥ 40 and %d", serial, wide, len(dims))
			}
			runtime.KeepAlive(jobs)
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
