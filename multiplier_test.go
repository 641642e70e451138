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
	"fmmfam/internal/gemm"
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

// TestPlanCacheBoundAcrossWidths: direct traffic (full-width plans) and
// batch traffic (width-1 plans) share one plan table. Over more than 200
// shape classes at each width, from 1 to 4096 in every dimension, it builds
// at most one plan per family member per width, CachedPlans and Stats report
// exactly the members built, and nothing is evicted: every class still
// serves the plan it got first.
func TestPlanCacheBoundAcrossWidths(t *testing.T) {
	cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 2, Kernel: "go4x4"}
	mu := NewMultiplier(cfg, PaperArch())
	check := func(step string) {
		t.Helper()
		built := builtPlans(mu)
		want := len(built[0]) + len(built[1])
		if got := mu.CachedPlans(); got != want {
			t.Fatalf("%s: CachedPlans() = %d, want the %d members built", step, got, want)
		}
		if got := mu.Stats().CachedPlans; got != want {
			t.Fatalf("%s: Stats().CachedPlans = %d, want %d", step, got, want)
		}
		for w, row := range built {
			if family := len(defaultCandidates()); len(row) > family {
				t.Fatalf("%s: width row %d holds %d plans, the family has %d members", step, w, len(row), family)
			}
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
				for _, threads := range []int{1, cfg.Threads} {
					p, err := mu.planAt(m, k, n, threads)
					if err != nil {
						t.Fatal(err)
					}
					first[shapeClass(m, k, n, threads)] = p
				}
			}
		}
	}
	check("classes")
	var perWidth [2]int
	for key := range classPlans(mu) {
		perWidth[min(key.threads, 2)-1]++
	}
	if perWidth[0] < 200 || perWidth[1] < 200 {
		t.Fatalf("%d width-1 and %d full-width classes filled, want ≥ 200 each", perWidth[0], perWidth[1])
	}
	for key, p := range first {
		if got := mu.plans.lookup(key); got != p {
			t.Fatalf("class %v now serves %v, first %s", key, got, p)
		}
	}
}

// shapeClass is the plan table's key for an m×k×n product at one width.
func shapeClass(m, k, n, threads int) planKey {
	return planKey{bucket(m), bucket(k), bucket(n), threads}
}

// builtPlans returns the family members' plans mu's table has built, per
// width row (0: width 1, 1: Config.Threads), in family order. Call it with
// no call on mu in flight.
func builtPlans[E matrix.Element](mu *GenericMultiplier[E]) (rows [2][]*fmmexec.Plan[E]) {
	for w := range mu.plans.family {
		for i := range mu.plans.family[w] {
			if p := mu.plans.family[w][i].p; p != nil {
				rows[w] = append(rows[w], p)
			}
		}
	}
	return rows
}

// classPlans returns a copy of mu's map from shape class to plan.
func classPlans[E matrix.Element](mu *GenericMultiplier[E]) map[planKey]*fmmexec.Plan[E] {
	mu.plans.mu.RLock()
	defer mu.plans.mu.RUnlock()
	return maps.Clone(mu.plans.classes)
}

// checkPlansShareEngine asserts the one-engine structure over mu's plan
// table: every built family plan of one width reports the same Context()
// pointer — the multiplier's engine, on the configured kernel backend, for
// full-width plans, that engine's Serial() view for width-1 ones — on the
// multiplier's own pool; every shape class served maps to a built plan of its
// width, and every built plan serves some class. It returns how many classes
// of each width it saw.
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
	built := builtPlans(mu)
	var served [2]map[*Plan]bool
	for key, p := range classPlans(mu) {
		w := min(key.threads, 2) - 1
		if w == 0 {
			serial++
		} else {
			wide++
		}
		if !slices.Contains(built[w], p) {
			t.Fatalf("class %v serves %s, no built family plan of its width", key, p)
		}
		if served[w] == nil {
			served[w] = make(map[*Plan]bool)
		}
		served[w][p] = true
	}
	for w, row := range built {
		want, threads := engine.Serial(), 1
		if w == 1 {
			want, threads = engine, mu.cfg.Threads
		}
		for _, p := range row {
			if p.Context() != want {
				t.Fatalf("plan %s executes on a context of its own", p)
			}
			if got := p.Context().Config().Threads; got != threads {
				t.Fatalf("width-%d row holds a Threads=%d plan %s", threads, got, p)
			}
			if !served[w][p] {
				t.Fatalf("width-%d plan %s was built for no class", threads, p)
			}
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
				if _, err := mu.planAt(n, n, n, threads); err != nil {
					t.Fatal(err)
				}
			}
		}
		if serial, wide := checkPlansShareEngine(t, mu); serial != 3 || wide != 3 {
			t.Fatalf("T=%d: saw %d width-1 and %d full-width classes, want 3 and 3", cfg.Threads, serial, wide)
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
				t.Fatalf("table holds %d width-1 and %d full-width classes, want ≥ 40 and %d", serial, wide, wantWide)
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
// of (kernel, dtype, width, class). On every registered kernel, at both
// element types and at width 1 and Threads, two multipliers fill each class
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
			for _, threads := range []int{1, cfg.Threads} {
				plan := func(mu *GenericMultiplier[E], s [3]int) *fmmexec.Plan[E] {
					p, err := mu.planAt(s[0], s[1], s[2], threads)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				plan(x, pair[0])
				plan(y, pair[1])
				for _, s := range pair {
					if px, py := plan(x, s), plan(y, s); px.String() != py.String() {
						t.Errorf("%s width %d %v: %s filled from %v, %s filled from %v",
							kern, threads, s, px, pair[0], py, pair[1])
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
					if err := errors.Join(x.mulAdd(cx, a, b, threads, gemm.Operands[E]{}), y.mulAdd(cy, a, b, threads, gemm.Operands[E]{})); err != nil {
						t.Fatal(err)
					}
					if d := cx.MaxAbsDiff(cy); d != 0 {
						t.Errorf("%s width %d %v: results differ by %g between the two fill orders", kern, threads, s, d)
					}
				}
			}
		}
	}
}

// TestExplainMatchesServedPlan: Explain names the plan MulAdd serves, for
// sizes sampled across one class whatever order they come in. One multiplier
// runs the sizes; another, fresh, explains them in the reverse order; after
// each call the plan of the class the call ran — the product's, or its
// largest shard tile's at width 1 — must be the one Explain named. The
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
			served := runner.plans.lookup(shapeClass(ex.M, ex.K, ex.N, ex.Threads))
			if served == nil || served.String() != ex.Plan {
				t.Errorf("T=%d %v: Explain names %q for %d×%d×%d at width %d, MulAdd ran %v",
					tc.cfg.Threads, s, ex.Plan, ex.M, ex.K, ex.N, ex.Threads, served)
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
