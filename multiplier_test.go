package fmmfam

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fmmfam/internal/fmmexec"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
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
	// At the default blocking go4x4 serves 100³ GEMM and 1000×100×1000 a
	// fast plan; a multiplier prices the blocking it runs.
	mu := NewMultiplier(Config{MC: 96, KC: 256, NC: 2048, Threads: 1, Kernel: "go4x4"}, PaperArch())
	p1, err := mu.PlanFor(100, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := mu.PlanFor(101, 99, 100) // same power-of-two bucket
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("nearby sizes should share a plan")
	}
	p3, err := mu.PlanFor(1000, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatalf("1000×100×1000 and 100³ share plan %s, want gemm and a fast plan", p1)
	}
	if mu.CachedPlans() != 2 {
		t.Fatalf("cached %d plans, want 2", mu.CachedPlans())
	}
	// Another class sent to an already built family member shares its plan.
	p4, err := mu.PlanFor(40, 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if p4 != p1 || mu.CachedPlans() != 2 {
		t.Fatalf("40×50×60 got %s (%d plans built), want the 100³ class's %s and still 2", p4, mu.CachedPlans(), p1)
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

// TestPlanCacheBoundAcrossWidths: direct traffic and batch traffic share
// one plan table of width-1 plans (the name dates from the table's former
// per-width rows). Over more than 200 shape classes, from 1 to 4096 in every
// dimension, it builds at most one plan per family member, CachedPlans and
// Stats report exactly the members built, and nothing is evicted: every
// class still serves the plan it got first.
func TestPlanCacheBoundAcrossWidths(t *testing.T) {
	cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 2, Kernel: "go4x4"}
	mu := NewMultiplier(cfg, PaperArch())
	check := func(step string) {
		t.Helper()
		built := builtPlans(mu)
		if got := mu.CachedPlans(); got != len(built) {
			t.Fatalf("%s: CachedPlans() = %d, want the %d members built", step, got, len(built))
		}
		if got := mu.Stats().CachedPlans; got != len(built) {
			t.Fatalf("%s: Stats().CachedPlans = %d, want %d", step, got, len(built))
		}
		if family := len(defaultCandidates()); len(built) > family {
			t.Fatalf("%s: the table holds %d plans, the family has %d members", step, len(built), family)
		}
	}
	// Batch traffic alone is visible: three small classes, one gemm member.
	var jobs []BatchJob
	for _, n := range []int{8, 16, 32} {
		jobs = append(jobs, BatchJob{C: NewMatrix(n, n), A: NewMatrix(n, n), B: NewMatrix(n, n)})
	}
	if err := mu.MulAddBatch(jobs); err != nil {
		t.Fatal(err)
	}
	check("batch")
	if got := mu.CachedPlans(); got != 1 {
		t.Fatalf("a batch of three gemm classes built %d plans, want 1", got)
	}
	dims := []int{1, 3, 12, 40, 100, 300, 1000, 4000}
	first := make(map[planKey]*Plan)
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				p, err := mu.PlanFor(m, k, n)
				if err != nil {
					t.Fatal(err)
				}
				first[shapeClass(m, k, n)] = p
			}
		}
	}
	check("classes")
	if n := len(classPlans(mu)); n < 200 {
		t.Fatalf("%d classes filled, want ≥ 200", n)
	}
	for key, p := range first {
		if got := mu.plans.lookup(key); got != p {
			t.Fatalf("class %v now serves %v, first %s", key, got, p)
		}
	}
}

// shapeClass is the plan table's key for an m×k×n product.
func shapeClass(m, k, n int) planKey {
	return planKey{bucket(m), bucket(k), bucket(n)}
}

// builtPlans returns the family members' plans mu's table has built, in
// family order. Call it with no call on mu in flight.
func builtPlans[E matrix.Element](mu *GenericMultiplier[E]) (built []*fmmexec.Plan[E]) {
	for i := range mu.plans.family {
		if p := mu.plans.family[i].p; p != nil {
			built = append(built, p)
		}
	}
	return built
}

// classPlans returns a copy of mu's map from shape class to plan.
func classPlans[E matrix.Element](mu *GenericMultiplier[E]) map[planKey]*fmmexec.Plan[E] {
	mu.plans.mu.RLock()
	defer mu.plans.mu.RUnlock()
	return maps.Clone(mu.plans.classes)
}

// checkPlansShareEngine asserts the one-engine structure over mu's plan
// table: every built family plan reports the same Context() pointer — the
// multiplier's engine, a Threads=1 context on the configured kernel backend
// and the multiplier's own pool; every shape class served maps to a built
// plan, and every built plan serves some class. It returns how many classes
// it saw.
func checkPlansShareEngine(t *testing.T, mu *Multiplier) (classes int) {
	t.Helper()
	engine, err := mu.engine()
	if err != nil {
		t.Fatal(err)
	}
	if engine.Pool() != mu.pool {
		t.Fatal("engine runs on a pool of its own")
	}
	if got := engine.Backend().Name(); got != mu.cfg.Kernel {
		t.Fatalf("engine runs backend %q, want the configured %q", got, mu.cfg.Kernel)
	}
	if got := engine.Config().Threads; got != 1 {
		t.Fatalf("engine runs at width %d, want 1", got)
	}
	built := builtPlans(mu)
	served := make(map[*Plan]bool)
	for key, p := range classPlans(mu) {
		if !slices.Contains(built, p) {
			t.Fatalf("class %v serves %s, no built family plan", key, p)
		}
		served[p] = true
	}
	for _, p := range built {
		if p.Context() != engine {
			t.Fatalf("plan %s executes on a context of its own", p)
		}
		if !served[p] {
			t.Fatalf("plan %s was built for no class", p)
		}
	}
	return len(classPlans(mu))
}

// TestMultiplierPlansShareOnePool: every plan a multiplier builds executes
// on the multiplier's one engine — hence on the multiplier's own pool, the
// one MulAddBatch and the shard paths dispatch on — so there is one worker
// budget to exhaust and one store of buffers to fill, at four threads and at
// eight (wideCfg).
func TestMultiplierPlansShareOnePool(t *testing.T) {
	four := wideCfg()
	four.Threads = 4
	for _, cfg := range []Config{four, wideCfg()} {
		mu := NewMultiplier(cfg, PaperArch())
		for _, n := range []int{24, 96, 256} {
			if _, err := mu.PlanFor(n, n, n); err != nil {
				t.Fatal(err)
			}
		}
		if classes := checkPlansShareEngine(t, mu); classes != 3 {
			t.Fatalf("T=%d: saw %d classes, want 3", cfg.Threads, classes)
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
// whole at width 1, 1×2 column tiles, K-split slabs and an async job — and every plan
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
			if classes := checkPlansShareEngine(t, mu); classes < 40 {
				t.Fatalf("table holds %d classes, want ≥ 40", classes)
			}
			runtime.KeepAlive(jobs)
			runtime.KeepAlive(routeJobs)
		})
	}
}

// TestShardedMulAddAllocatesNothing: a warm sharded MulAdd allocates nothing,
// like the warm unsharded one (gemm's TestParallelMulAddAllocatesNothing):
// its per-call state — tile groups, errors, pool jobs bound once, the
// product's plan — is rented from the multiplier or read from its plan
// table, and its K-split reduction buffers from the engine. On avx2 at T = 2
// that covers 1024³ cut into GEMM tiles, 2880×480×2880 and 2048³ cut into
// tiles that run the product's FMM plan (2048³'s tiles would pick GEMM in
// their own class), 256×16384×256 cut along K, and 384³ and 640×384×512
// below the threshold, cut at the MC floor; on the reference kernel, the
// same kinds at test sizes, the MC-floor one an FMM product below the
// default threshold.
func TestShardedMulAddAllocatesNothing(t *testing.T) {
	avx2 := DefaultConfig()
	avx2.Kernel, avx2.Threads = kernel.AVX2Backend, 2
	below := servingCfg()
	below.ShardThreshold = 0 // DefaultShardThreshold
	for _, tc := range []struct {
		cfg     Config
		m, k, n int
		kind    string // what the tiles run: "gemm", "fmm" or "k-split"
	}{
		{avx2, 1024, 1024, 1024, "gemm"},
		{avx2, 2880, 480, 2880, "fmm"},
		{avx2, 2048, 2048, 2048, "fmm"},
		{avx2, 256, 16384, 256, "k-split"},
		{avx2, 384, 384, 384, "gemm"},
		{avx2, 640, 384, 512, "gemm"},
		{servingCfg(), 96, 64, 256, "gemm"},
		{servingCfg(), 512, 256, 512, "fmm"},
		{kSplitServingCfg(), 48, 512, 48, "k-split"},
		{below, 300, 260, 270, "fmm"},
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
			p, err := mu.PlanFor(tc.m, tc.k, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			kind := "gemm"
			if route.GridK > 1 {
				kind = "k-split"
			} else if len(p.Levels) > 0 {
				kind = "fmm"
			}
			if kind != tc.kind {
				t.Fatalf("%v: %s tiles, want %s", route, kind, tc.kind)
			}
			rng := rand.New(rand.NewSource(26))
			a, b, c := NewMatrix(tc.m, tc.k), NewMatrix(tc.k, tc.n), NewMatrix(tc.m, tc.n)
			a.FillRand(rng)
			b.FillRand(rng)
			// Warm plans, run states and buffers with Threads calls at once.
			// The engine keeps a workspace per worker from its first use, so a
			// call whose tiles overlap — a helper woken while the caller is
			// preempted — never builds one; its other free lists grow to
			// the most calls that ever overlapped.
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
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 64: 64, 65: 128, 1000: 1024, 1 << 62: 1 << 62}
	for x, want := range cases {
		if got := bucket(x); got != want {
			t.Fatalf("bucket(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestHugeDimensionReturns: a dimension above 2^62, whose power-of-two
// bucket would overflow int, still gets an answer from Explain and PlanFor
// (bucket saturates at math.MaxInt) instead of spinning forever.
func TestHugeDimensionReturns(t *testing.T) {
	mu := NewMultiplier(Config{MC: 96, KC: 256, NC: 2048, Threads: 2, Kernel: "go4x4"}, PaperArch())
	defer mu.Close()
	const huge = 1<<62 + 1
	done := make(chan error, 1)
	go func() {
		if _, err := mu.Explain(huge, 1, 1); err != nil {
			done <- err
			return
		}
		_, err := mu.PlanFor(huge, huge, math.MaxInt)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Explain and PlanFor of a %d dimension did not return within 10s", huge)
	}
}

// TestClassPlanIndependentOfHistory: a shape class's plan is a pure function
// of (kernel, dtype, class). On every registered kernel, at both
// element types, two multipliers fill each class
// from opposite sizes — one from the class's smallest size, the other from
// its largest — and then serve both sizes the same plan, and below 2^24
// multiply-adds the same bits. One pair is 71×278×151 and 71×278×150, which
// got <2,2,2> ABC or GEMM on go4x4 by whichever came first while a class was
// priced at the size that filled it.
func TestClassPlanIndependentOfHistory(t *testing.T) {
	t.Run("float64", classPlanIndependentOfHistory[float64])
	t.Run("float32", classPlanIndependentOfHistory[float32])
}

func classPlanIndependentOfHistory[E matrix.Element](t *testing.T) {
	var pairs [][2][3]int // two sizes of one class
	for _, s := range [][3]int{{71, 278, 151}, {100, 100, 100}, {200, 40, 300}, {24, 500, 90},
		{3000, 3000, 3000}, {2880, 480, 2880}, {1500, 1800, 1700}, {5000, 300, 6000}} {
		var lo, hi [3]int
		for d := range s {
			hi[d] = bucket(s[d])
			lo[d] = hi[d]/2 + 1
		}
		pairs = append(pairs, [2][3]int{lo, hi})
	}
	pairs = append(pairs, [2][3]int{{71, 278, 151}, {71, 278, 150}})
	rng := rand.New(rand.NewSource(36))
	for _, kern := range Kernels() {
		if _, ok := archOf(kern, matrix.DtypeOf[E]()); !ok {
			t.Logf("%s not registered here for %s: skipping", kern, matrix.DtypeOf[E]())
			continue
		}
		cfg := DefaultConfig()
		cfg.Kernel, cfg.Threads = kern, 2
		for _, pair := range pairs {
			x, y := NewGenericMultiplier[E](cfg, PaperArch()), NewGenericMultiplier[E](cfg, PaperArch())
			plan := func(mu *GenericMultiplier[E], s [3]int) *fmmexec.Plan[E] {
				p, err := mu.PlanFor(s[0], s[1], s[2])
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			plan(x, pair[0])
			plan(y, pair[1])
			for _, s := range pair {
				if px, py := plan(x, s), plan(y, s); px.String() != py.String() {
					t.Errorf("%s %v: %s filled from %v, %s filled from %v",
						kern, s, px, pair[0], py, pair[1])
				}
			}
			for _, s := range pair {
				if s[0]*s[1]*s[2] > 1<<24 {
					continue
				}
				a, b, c := matrix.New[E](s[0], s[1]), matrix.New[E](s[1], s[2]), matrix.New[E](s[0], s[2])
				a.FillRand(rng)
				b.FillRand(rng)
				c.FillRand(rng)
				cx, cy := c.Clone(), c.Clone()
				if err := errors.Join(x.MulAdd(cx, a, b), y.MulAdd(cy, a, b)); err != nil {
					t.Fatal(err)
				}
				if d := cx.MaxAbsDiff(cy); d != 0 {
					t.Errorf("%s %v: results differ by %g between the two fill orders", kern, s, d)
				}
			}
		}
	}
}

// TestMultiplierPricesItsBlocking: a multiplier prices the blocking its
// engine runs. For a blocking other than the paper's (MC=48, KC=128,
// NC=1024), on every registered kernel at both element types, the Arch
// Explain reports carries the Config's MC, KC and NC, and the K-slab floor is
// the model's break-even on that Arch.
func TestMultiplierPricesItsBlocking(t *testing.T) {
	t.Run("float64", func(t *testing.T) { pricesItsBlocking[float64](t) })
	t.Run("float32", func(t *testing.T) { pricesItsBlocking[float32](t) })
}

func pricesItsBlocking[E matrix.Element](t *testing.T) {
	for _, kern := range kernel.BackendsFor(matrix.DtypeOf[E]()) {
		cfg := Config{MC: 48, KC: 128, NC: 1024, Threads: 2, Kernel: kern}
		mu := NewGenericMultiplier[E](cfg, PaperArch())
		ex, err := mu.Explain(1024, 1024, 1024)
		if err != nil {
			t.Fatalf("%s: %v", kern, err)
		}
		if a := ex.Arch; a.MC != cfg.MC || a.KC != cfg.KC || a.NC != cfg.NC {
			t.Errorf("%s: priced MC=%d KC=%d NC=%d, the engine runs %d/%d/%d", kern, a.MC, a.KC, a.NC, cfg.MC, cfg.KC, cfg.NC)
		}
		if got, want := mu.breakEvenTile(), model.BreakEvenSquare(ex.Arch, model.DefaultCandidates()); got != want {
			t.Errorf("%s: K-slab floor %d, the break-even on the priced Arch is %d", kern, got, want)
		}
	}
}

// TestExplainMatchesServedPlan: Explain names the plan MulAdd serves, for
// sizes sampled across one class whatever order they come in. One multiplier
// runs the sizes; another, fresh, explains them in the reverse order; after
// each call the plan of the product's class — whole or on every shard tile
// — must be the one Explain named. The
// unsharded class is 71×278×151's on go4x4 at T = 2, which straddles the
// break-even; the sharded one is cut into tiles at T = 4 (servingCfg).
func TestExplainMatchesServedPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	in := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	for _, tc := range []struct {
		cfg    Config
		lo, hi [3]int // the class's smallest and largest size
	}{
		{Config{MC: 16, KC: 16, NC: 32, Threads: 2, Kernel: "go4x4"}, [3]int{65, 257, 129}, [3]int{128, 512, 256}},
		{servingCfg(), [3]int{129, 33, 129}, [3]int{256, 64, 256}},
	} {
		sizes := [][3]int{tc.lo, tc.hi}
		for range 10 {
			sizes = append(sizes, [3]int{in(tc.lo[0], tc.hi[0]), in(tc.lo[1], tc.hi[1]), in(tc.lo[2], tc.hi[2])})
		}
		explainer := NewMultiplier(tc.cfg, PaperArch())
		explained := make([]Explanation, len(sizes))
		for i := len(sizes) - 1; i >= 0; i-- {
			s := sizes[i]
			ex, err := explainer.Explain(s[0], s[1], s[2])
			if err != nil {
				t.Fatal(err)
			}
			explained[i] = ex
		}
		runner := NewMultiplier(tc.cfg, PaperArch())
		sharded := 0
		for i, s := range sizes {
			a, b, c := NewMatrix(s[0], s[1]), NewMatrix(s[1], s[2]), NewMatrix(s[0], s[2])
			a.FillRand(rng)
			b.FillRand(rng)
			if err := runner.MulAdd(c, a, b); err != nil {
				t.Fatal(err)
			}
			ex := explained[i]
			if ex.GridM > 0 {
				sharded++
			}
			served := runner.plans.lookup(shapeClass(s[0], s[1], s[2]))
			if served == nil || served.String() != ex.Plan {
				t.Errorf("T=%d %v: Explain names %q, MulAdd ran %v",
					tc.cfg.Threads, s, ex.Plan, served)
			}
		}
		if tc.cfg.ShardThreshold > 0 && sharded == 0 {
			t.Errorf("T=%d: no size of the class sharded", tc.cfg.Threads)
		}
	}
}

// TestConcurrentFirstFill: goroutines hitting distinct sizes of one new
// class at once all get one plan, and the table builds it once (run it under
// -race).
func TestConcurrentFirstFill(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 2, Kernel: "go4x4"}, PaperArch())
	const callers = 8
	plans := make([]*Plan, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range callers {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			plans[i], errs[i] = mu.PlanFor(129+16*i, 300+i, 256-i) // class 256×512×256
		}()
	}
	start.Done()
	done.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("caller %d got plan %p (%s), caller 0 %p (%s)", i, p, p, plans[0], plans[0])
		}
	}
	if got := mu.CachedPlans(); got != 1 {
		t.Fatalf("one class filled by %d callers built %d plans, want 1", callers, got)
	}
	if got := len(classPlans(mu)); got != 1 {
		t.Fatalf("table holds %d classes, want 1", got)
	}
}

// TestPlanForAndExplainRejectBadArgs: PlanFor and Explain refuse a negative
// dimension with a dims error, as MulAdd's operand check does, and file no
// class for it; a zero dimension is still an (empty) product. A multiplier
// with an invalid Config reports its error from both.
func TestPlanForAndExplainRejectBadArgs(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 2, Kernel: "go4x4"}, PaperArch())
	for _, s := range [][3]int{{-3, 5, 5}, {5, -1, 5}, {5, 5, -7}} {
		if p, err := mu.PlanFor(s[0], s[1], s[2]); err == nil || !strings.Contains(err.Error(), "dims") {
			t.Errorf("PlanFor%v = %v, %v; want a dims error", s, p, err)
		}
		if ex, err := mu.Explain(s[0], s[1], s[2]); err == nil || !strings.Contains(err.Error(), "dims") {
			t.Errorf("Explain%v = %+v, %v; want a dims error", s, ex, err)
		}
	}
	if n, classes := mu.CachedPlans(), len(classPlans(mu)); n != 0 || classes != 0 {
		t.Fatalf("negative dims built %d plans and filed %d classes", n, classes)
	}
	if _, err := mu.PlanFor(0, 5, 5); err != nil {
		t.Fatalf("PlanFor(0, 5, 5): %v", err)
	}
	if _, err := mu.Explain(0, 5, 5); err != nil {
		t.Fatalf("Explain(0, 5, 5): %v", err)
	}
	for _, cfg := range []Config{{MC: 16, KC: 16, NC: 32, Threads: 0}, {MC: 16, KC: 16, NC: 32, Threads: 2, QueueDepth: -1}} {
		bad := NewMultiplier(cfg, PaperArch())
		if bad.cfgErr == nil {
			t.Fatalf("%+v passed validation", cfg)
		}
		if _, err := bad.PlanFor(8, 8, 8); err == nil || err.Error() != bad.cfgErr.Error() {
			t.Errorf("%+v: PlanFor error %v, want the Config error %v", cfg, err, bad.cfgErr)
		}
		if _, err := bad.Explain(8, 8, 8); err == nil || err.Error() != bad.cfgErr.Error() {
			t.Errorf("%+v: Explain error %v, want the Config error %v", cfg, err, bad.cfgErr)
		}
	}
}
