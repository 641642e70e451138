package gemm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/sched"
)

func smallCfg() Config { return Config{MC: 8, KC: 8, NC: 16, Threads: 1} }

func randMat(rng *rand.Rand, r, c int) matrix.Mat[float64] {
	m := matrix.New[float64](r, c)
	m.FillRand(rng)
	return m
}

func TestMulAddMatchesReferenceVariedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ctx := MustNewContext[float64](smallCfg())
	shapes := [][3]int{
		{1, 1, 1}, {4, 4, 4}, {5, 7, 3}, {8, 8, 8}, {9, 17, 33},
		{16, 1, 16}, {1, 32, 1}, {33, 9, 2}, {40, 40, 40},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := c.Clone()
		matrix.MulAdd(want, a, b)
		ctx.MulAdd(c, a, b)
		if d := c.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("shape %v: diff %g", s, d)
		}
	}
}

func TestMulAddLargeBlocksCrossingAllLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ctx := MustNewContext[float64](Config{MC: 12, KC: 10, NC: 20, Threads: 1})
	// Sizes chosen to exercise partial blocks in every one of the 5 loops.
	m, k, n := 37, 23, 45
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	c := randMat(rng, m, n)
	want := c.Clone()
	matrix.MulAdd(want, a, b)
	ctx.MulAdd(c, a, b)
	if d := c.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("diff %g", d)
	}
}

func TestMulAddOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ctx := MustNewContext[float64](smallCfg())
	big := randMat(rng, 30, 30)
	a := big.View(2, 3, 10, 9)
	b := big.View(12, 0, 9, 11)
	c := matrix.New[float64](10, 11)
	want := matrix.New[float64](10, 11)
	matrix.MulAdd(want, a, b)
	ctx.MulAdd(c, a, b)
	if d := c.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("diff %g", d)
	}
}

func TestFusedMulAddStrassenRow(t *testing.T) {
	// The representative computation of Fig. 1 (right):
	// M = (X+Y)(V+W); C += M; D -= M.
	rng := rand.New(rand.NewSource(4))
	ctx := MustNewContext[float64](smallCfg())
	x, y := randMat(rng, 12, 10), randMat(rng, 12, 10)
	v, w := randMat(rng, 10, 14), randMat(rng, 10, 14)
	c, d := randMat(rng, 12, 14), randMat(rng, 12, 14)
	wantC, wantD := c.Clone(), d.Clone()

	xs := x.Clone()
	xs.AddScaled(1, y)
	vs := v.Clone()
	vs.AddScaled(1, w)
	mtmp := matrix.New[float64](12, 14)
	matrix.MulAdd(mtmp, xs, vs)
	wantC.AddScaled(1, mtmp)
	wantD.AddScaled(-1, mtmp)

	ctx.FusedMulAdd(
		[]Term[float64]{{Coef: 1, M: c}, {Coef: -1, M: d}},
		[]Term[float64]{{Coef: 1, M: x}, {Coef: 1, M: y}},
		[]Term[float64]{{Coef: 1, M: v}, {Coef: 1, M: w}},
	)
	if c.MaxAbsDiff(wantC) > 1e-10 || d.MaxAbsDiff(wantD) > 1e-10 {
		t.Fatal("fused Strassen row diverges from explicit computation")
	}
}

func TestFusedMulAddFractionalCoefs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := MustNewContext[float64](smallCfg())
	a1, a2 := randMat(rng, 9, 9), randMat(rng, 9, 9)
	b1 := randMat(rng, 9, 9)
	c := matrix.New[float64](9, 9)
	as := a1.Clone()
	as.Scale(0.5)
	as.AddScaled(-1.5, a2)
	want := matrix.New[float64](9, 9)
	matrix.MulAdd(want, as, b1)
	ctx.FusedMulAdd(
		kernel.SingleTerm(c),
		[]Term[float64]{{Coef: 0.5, M: a1}, {Coef: -1.5, M: a2}},
		kernel.SingleTerm(b1),
	)
	if d := c.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("diff %g", d)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, k, n := 67, 41, 53
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	c1, c2 := matrix.New[float64](m, n), matrix.New[float64](m, n)
	serial := MustNewContext[float64](Config{MC: 8, KC: 16, NC: 32, Threads: 1})
	parallel := MustNewContext[float64](Config{MC: 8, KC: 16, NC: 32, Threads: 4})
	serial.MulAdd(c1, a, b)
	parallel.MulAdd(c2, a, b)
	if d := c1.MaxAbsDiff(c2); d != 0 {
		t.Fatalf("parallel result differs by %g", d)
	}
}

func TestParallelFusedMultiC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randMat(rng, 40, 24), randMat(rng, 24, 36)
	c1a, c1b := matrix.New[float64](40, 36), matrix.New[float64](40, 36)
	c2a, c2b := matrix.New[float64](40, 36), matrix.New[float64](40, 36)
	serial := MustNewContext[float64](Config{MC: 8, KC: 8, NC: 16, Threads: 1})
	parallel := MustNewContext[float64](Config{MC: 8, KC: 8, NC: 16, Threads: 3})
	serial.FusedMulAdd([]Term[float64]{{Coef: 1, M: c1a}, {Coef: -2, M: c1b}}, kernel.SingleTerm(a), kernel.SingleTerm(b))
	parallel.FusedMulAdd([]Term[float64]{{Coef: 1, M: c2a}, {Coef: -2, M: c2b}}, kernel.SingleTerm(a), kernel.SingleTerm(b))
	if c1a.MaxAbsDiff(c2a) != 0 || c1b.MaxAbsDiff(c2b) != 0 {
		t.Fatal("parallel fused result differs")
	}
}

func TestEmptyDimsNoop(t *testing.T) {
	ctx := MustNewContext[float64](smallCfg())
	c := matrix.New[float64](3, 3)
	c.Fill(1)
	ctx.MulAdd(c, matrix.New[float64](3, 0), matrix.New[float64](0, 3))
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != 1 {
				t.Fatal("k=0 must be a no-op")
			}
		}
	}
}

func TestNewContextRejectsBadConfig(t *testing.T) {
	if _, err := NewContext[float64](Config{MC: 2, KC: 8, NC: 16, Threads: 1}); err == nil {
		t.Fatal("MC < MR accepted")
	}
	if _, err := NewContext[float64](Config{MC: 8, KC: 8, NC: 16, Threads: 0}); err == nil {
		t.Fatal("0 threads accepted")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	ctx := MustNewContext[float64](smallCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctx.MulAdd(matrix.New[float64](3, 3), matrix.New[float64](3, 4), matrix.New[float64](3, 3))
}

func TestRaggedTermsPanics(t *testing.T) {
	ctx := MustNewContext[float64](smallCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctx.FusedMulAdd(
		kernel.SingleTerm(matrix.New[float64](4, 4)),
		[]Term[float64]{{Coef: 1, M: matrix.New[float64](4, 4)}, {Coef: 1, M: matrix.New[float64](4, 5)}},
		kernel.SingleTerm(matrix.New[float64](4, 4)),
	)
}

// Property: GEMM through the blocked driver equals the reference for random
// shapes and random blocking parameters.
func TestBlockedEqualsReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			MC:      4 * (1 + rng.Intn(4)),
			KC:      1 + rng.Intn(24),
			NC:      4 * (1 + rng.Intn(6)),
			Threads: 1 + rng.Intn(3),
		}
		ctx := MustNewContext[float64](cfg)
		m, k, n := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := c.Clone()
		matrix.MulAdd(want, a, b)
		ctx.MulAdd(c, a, b)
		return c.MaxAbsDiff(want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExtremeBlockingKC1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := MustNewContext[float64](Config{MC: 4, KC: 1, NC: 4, Threads: 1})
	a, b := randMat(rng, 9, 7), randMat(rng, 7, 5)
	c := matrix.New[float64](9, 5)
	want := matrix.New[float64](9, 5)
	matrix.MulAdd(want, a, b)
	ctx.MulAdd(c, a, b)
	if d := c.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("KC=1 diff %g", d)
	}
}

// TestContextConcurrentCallers drives one Context from many goroutines (each
// itself running internally parallel) and checks results against the
// reference — the workspace-pool contract, meaningful under -race.
func TestContextConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := MustNewContext[float64](Config{MC: 8, KC: 8, NC: 16, Threads: 2})
	type job struct{ a, b, want matrix.Mat[float64] }
	shapes := [][3]int{{20, 14, 18}, {33, 9, 25}, {8, 8, 8}, {17, 40, 5}}
	jobs := make([]job, len(shapes))
	for i, s := range shapes {
		a, b := randMat(rng, s[0], s[1]), randMat(rng, s[1], s[2])
		want := matrix.New[float64](s[0], s[2])
		matrix.MulAdd(want, a, b)
		jobs[i] = job{a, b, want}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				j := jobs[(g+it)%len(jobs)]
				c := matrix.New[float64](j.want.Rows, j.want.Cols)
				ctx.MulAdd(c, j.a, j.b)
				if d := c.MaxAbsDiff(j.want); d > 1e-10 {
					t.Errorf("goroutine %d: diff %g", g, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWorkspacePoolBounded checks the pool's rent/return discipline: returns
// beyond the bound are dropped rather than queued or blocking.
func TestWorkspacePoolBounded(t *testing.T) {
	cfg := smallCfg()
	bk := kernel.MustResolve[float64](cfg.Kernel)
	p := newWorkspacePool(cfg, bk, 3)
	bound := workspacePoolBound[float64](cfg, bk, 3)
	for i := 0; i < bound+3; i++ {
		p.put(p.alloc()) // must not block past the bound
	}
	if got := len(p.free); got != bound {
		t.Fatalf("pool retained %d workspaces, bound is %d", got, bound)
	}
	for i := 0; i < bound+3; i++ {
		if p.get() == nil { // empties the pool, then falls back to fresh allocs
			t.Fatal("nil workspace")
		}
	}
}

// TestWorkspacePoolBoundRespectsMemoryCap: the bound is derived from what the
// context can observe — twice the worker count of the pool it was built on —
// and capped by maxRetainedFloats. When one workspace alone exceeds the cap
// the bound must drop to 0 — retain nothing, allocate fresh on every get —
// instead of silently keeping oversized workspaces (far past the documented
// cap) warm forever.
func TestWorkspacePoolBoundRespectsMemoryCap(t *testing.T) {
	huge := Config{MC: 1 << 10, KC: 1 << 10, NC: 1 << 14, Threads: 4}
	bk := kernel.MustResolve[float64](huge.Kernel)
	per := bk.PackBBufLen(huge.KC, huge.NC) + huge.Threads*bk.PackABufLen(huge.MC, huge.KC)
	if per <= maxRetainedFloats {
		t.Fatalf("test config too small to exceed the cap: %d ≤ %d", per, maxRetainedFloats)
	}
	if got := workspacePoolBound[float64](huge, bk, huge.Threads); got != 0 {
		t.Fatalf("bound %d for an over-cap workspace, want 0", got)
	}
	// An empty pool must still serve gets (fresh allocations) and drop puts.
	p := newWorkspacePool(huge, bk, huge.Threads)
	ws := p.get()
	if ws == nil {
		t.Fatal("nil workspace from empty pool")
	}
	p.put(ws) // must not block
	if len(p.free) != 0 {
		t.Fatal("zero-bound pool retained a workspace")
	}
	// Small configs retain 2×workers, whatever the context's own width: a
	// Threads=1 context and a wide one on one pool see the same renters.
	small := smallCfg()
	sbk := kernel.MustResolve[float64](small.Kernel)
	for _, workers := range []int{1, 4, 7} {
		if got, want := workspacePoolBound[float64](small, sbk, workers), 2*workers; got != want {
			t.Fatalf("bound %d for small config on %d workers, want %d", got, workers, want)
		}
	}
	// The memory cap still wins over an absurd worker count.
	smallPer := sbk.PackBBufLen(small.KC, small.NC) + small.Threads*sbk.PackABufLen(small.MC, small.KC)
	if got, lim := workspacePoolBound[float64](small, sbk, 1<<30), maxRetainedFloats/smallPer; got != lim {
		t.Fatalf("bound %d on a huge pool, want cap %d", got, lim)
	}
	// And a context reads the worker count off the pool it was built on.
	ctx, err := NewContextOn[float64](small, sched.NewPool(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(ctx.pool.free); got != 10 {
		t.Fatalf("context on a 5-worker pool retains %d workspaces, want 10", got)
	}
}

// TestNarrowContextOnWidePool: a Threads=1 context built on a wide pool —
// the one context a Multiplier builds — runs on that pool, keeps a workspace
// free list sized for the pool's workers, builds workspaces with one Ã buffer
// and no parallel jobs, and is bit-identical to a wide context of the same
// blocking.
func TestNarrowContextOnWidePool(t *testing.T) {
	cfg := Config{MC: 8, KC: 8, NC: 16, Threads: 4}
	wide := MustNewContext[float64](cfg)
	cfg.Threads = 1
	narrow, err := NewContextOn[float64](cfg, wide.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Pool() != wide.Pool() || narrow.Backend() != wide.Backend() {
		t.Fatal("narrow context does not run on the pool and backend it was given")
	}
	if got := cap(narrow.pool.free); got != 2*wide.Pool().Workers() {
		t.Fatalf("narrow context on a %d-worker pool retains %d workspaces, want %d", wide.Pool().Workers(), got, 2*wide.Pool().Workers())
	}
	ws := narrow.GetWorkspace()
	if len(ws.abufs) != 1 || ws.slots != nil || ws.icJobs != nil {
		t.Fatalf("narrow workspace holds %d Ã buffers and %d slots, want 1 and none", len(ws.abufs), len(ws.slots))
	}
	rng := rand.New(rand.NewSource(77))
	a, b := randMat(rng, 37, 29), randMat(rng, 29, 41)
	cw, cs := matrix.New[float64](37, 41), matrix.New[float64](37, 41)
	wide.MulAdd(cw, a, b)
	narrow.MulAddWS(ws, cs, a, b)
	narrow.PutWorkspace(ws)
	if cw.Fingerprint() != cs.Fingerprint() {
		t.Fatal("narrow context is not bit-identical to the wide one")
	}
}

// TestWorkspaceTermListsCleared: the operand lists riding a workspace hold
// views of the renter's matrices; PutWorkspace must clear them to capacity
// (entries past the final length are stale views from wider terms) so a
// pooled workspace pins nothing.
func TestWorkspaceTermListsCleared(t *testing.T) {
	cfg := smallCfg()
	cfg.Threads = 2 // 32×32 at MC=8, NC=16 takes the parallel branch: ws.call is written
	ctx := MustNewContext[float64](cfg)
	ws := ctx.GetWorkspace()
	m := matrix.New[float64](32, 32)
	for i := 0; i < 5; i++ {
		ws.ATerms = append(ws.ATerms, Term[float64]{Coef: 1, M: m})
		ws.BTerms = append(ws.BTerms, Term[float64]{Coef: 1, M: m})
		ws.CTerms = append(ws.CTerms, Term[float64]{Coef: 1, M: m})
	}
	ws.ATerms = ws.ATerms[:1]                 // a later, narrower term
	ctx.MulAddWS(ws, m, m.Clone(), m.Clone()) // fills the single-term lists
	ctx.PutWorkspace(ws)
	for i, tm := range ws.single {
		if tm.M.Data != nil {
			t.Fatalf("single-term list %d still pins a caller matrix", i)
		}
	}
	if ws.call.ctx != nil || ws.call.aTerms != nil || ws.call.bTerms != nil || ws.call.cTerms != nil {
		t.Fatalf("parallel block parameters still pin the caller's operands: %+v", ws.call)
	}
	for _, l := range [][]Term[float64]{ws.ATerms, ws.BTerms, ws.CTerms} {
		if len(l) != 0 {
			t.Fatalf("term list not truncated: len %d", len(l))
		}
		for i, tm := range l[:cap(l)] {
			if tm.M.Data != nil {
				t.Fatalf("entry %d still pins a caller matrix", i)
			}
		}
	}
}

// TestSerialMulAddAllocatesNothing: a serial MulAdd on a warm context touches
// the heap not once, on every registered backend and both dtypes — the
// operand lists ride the rented workspace and the assembly backends keep
// their per-tile descriptors on the stack.
func TestSerialMulAddAllocatesNothing(t *testing.T) {
	for _, name := range kernel.Backends() {
		cfg := DefaultConfig()
		cfg.Kernel = name
		// Full and fringe tiles, more than one kc slab.
		t.Run(name+"/float64", func(t *testing.T) { checkMulAddAllocs[float64](t, cfg, 50, 300, 70) })
		t.Run(name+"/float32", func(t *testing.T) { checkMulAddAllocs[float32](t, cfg, 50, 300, 70) })
	}
}

// TestParallelMulAddAllocatesNothing: neither does a parallel one, however
// many (jc, pc) blocks it walks — here 3 × 4, with fringe tiles in every
// dimension and a last jc block narrow enough to pack serially. The B̃-pack
// and ic-loop jobs are the rented workspace's own and the pool's run state
// is the pool's (sched's TestPoolRunAllocatesNothingWarm).
func TestParallelMulAddAllocatesNothing(t *testing.T) {
	for _, name := range kernel.Backends() {
		for _, threads := range []int{2, 4} {
			cfg := Config{MC: 24, KC: 32, NC: 48, Threads: threads, Kernel: name}
			t.Run(fmt.Sprintf("%s/float64/T=%d", name, threads), func(t *testing.T) { checkMulAddAllocs[float64](t, cfg, 100, 101, 103) })
			t.Run(fmt.Sprintf("%s/float32/T=%d", name, threads), func(t *testing.T) { checkMulAddAllocs[float32](t, cfg, 100, 101, 103) })
		}
	}
}

func checkMulAddAllocs[E matrix.Element](t *testing.T, cfg Config, m, k, n int) {
	ctx, err := NewContext[E](cfg)
	if err != nil {
		t.Skipf("%v", err)
	}
	a, b, c := matrix.New[E](m, k), matrix.New[E](k, n), matrix.New[E](m, n)
	a.FillRand(rand.New(rand.NewSource(1)))
	b.FillRand(rand.New(rand.NewSource(2)))
	ctx.MulAdd(c, a, b) // warm: the pool's run state, with helpers recruited
	if n := testing.AllocsPerRun(10, func() { ctx.MulAdd(c, a, b) }); n != 0 {
		t.Fatalf("warm MulAdd (Threads=%d) allocates %v times per call", cfg.Threads, n)
	}
}

// TestScratchListBounded pins RentMat/ReturnMat's discipline: a returned
// buffer is reused by the next rent of its size class, contents are the
// caller's to initialize, oversized buffers and returns past the element
// bound go to the GC, foreign buffers are refused, and a put never blocks.
func TestScratchListBounded(t *testing.T) {
	ctx := MustNewContext[float64](Config{MC: 8, KC: 8, NC: 16, Threads: 2})
	m := ctx.RentMat(10, 10)
	if m.Rows != 10 || m.Cols != 10 || m.Stride != 10 || len(m.Data) != 100 {
		t.Fatalf("rented %d×%d stride %d len %d", m.Rows, m.Cols, m.Stride, len(m.Data))
	}
	first := &m.Data[0]
	ctx.ReturnMat(m)
	if got := ctx.RentMat(9, 12); &got.Data[0] != first { // 108 elements: same class
		t.Fatal("a returned buffer was not reused by the next rent of its class")
	} else {
		ctx.ReturnMat(got)
	}
	if ctx.scratch.held != 128 {
		t.Fatalf("retained %d elements after one return, want the 128-element class", ctx.scratch.held)
	}
	// Oversized: allocated exactly, never retained.
	big := ctx.RentMat(1, maxRetainedFloats+1)
	if cap(big.Data) != maxRetainedFloats+1 {
		t.Fatalf("oversized rent has capacity %d", cap(big.Data))
	}
	ctx.ReturnMat(big)
	// Foreign and empty buffers are refused.
	ctx.ReturnMat(matrix.New[float64](10, 10))
	ctx.ReturnMat(matrix.Mat[float64]{})
	if ctx.scratch.held != 128 {
		t.Fatalf("oversized/foreign returns were retained: %d elements", ctx.scratch.held)
	}
	// Returns past the element bound are dropped: three quarter-cap buffers
	// and the 128 already held fit, the fourth does not.
	quarter := maxRetainedFloats / 4
	var rented []matrix.Mat[float64]
	for i := 0; i < 6; i++ {
		rented = append(rented, ctx.RentMat(1, quarter))
	}
	for _, r := range rented {
		ctx.ReturnMat(r)
	}
	if got, want := ctx.scratch.held, 3*quarter+128; got != want {
		t.Fatalf("retained %d elements, want %d (≤ cap %d)", got, want, maxRetainedFloats)
	}
}

func TestOperandsAsStridedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	big := randMat(rng, 64, 64)
	a := big.View(1, 1, 20, 30)
	b := big.View(25, 10, 30, 22)
	cHost := matrix.New[float64](40, 40)
	c := cHost.View(3, 5, 20, 22)
	want := matrix.New[float64](20, 22)
	matrix.MulAdd(want, a, b)
	MustNewContext[float64](Config{MC: 8, KC: 8, NC: 16, Threads: 2}).MulAdd(c, a, b)
	if d := c.Clone().MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("view diff %g", d)
	}
	// The host matrix outside the view must be untouched.
	if cHost.At(0, 0) != 0 || cHost.At(39, 39) != 0 || cHost.At(2, 5) != 0 {
		t.Fatal("write leaked outside the C view")
	}
}

func TestManyCTermsScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := randMat(rng, 12, 12), randMat(rng, 12, 12)
	targets := make([]Term[float64], 5)
	for i := range targets {
		targets[i] = Term[float64]{Coef: float64(i) - 2, M: matrix.New[float64](12, 12)}
	}
	MustNewContext[float64](smallCfg()).FusedMulAdd(targets, kernel.SingleTerm(a), kernel.SingleTerm(b))
	prod := matrix.New[float64](12, 12)
	matrix.MulAdd(prod, a, b)
	for i, tm := range targets {
		want := matrix.New[float64](12, 12)
		want.AddScaled(float64(i)-2, prod)
		if d := tm.M.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("target %d diff %g", i, d)
		}
	}
}

// TestDefaultBackendBitIdenticalGolden pins the default backend's output to
// the exact bit pattern it produced before the Backend interface existed
// (hashes captured from the PR-3 tree on amd64). The default kernel's
// numerics are a compatibility surface — the serving layer's bit-determinism
// contracts and cross-version reproducibility stand on it — so any refactor
// of the kernel seam must keep these fingerprints stable. Skipped off amd64:
// the Go spec lets other architectures fuse a*b+c into FMA, which rounds
// differently, so the goldens are per-architecture by nature.
func TestDefaultBackendBitIdenticalGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fingerprints captured on amd64; GOARCH=%s may fuse FMA", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(2024))
	a, b := randMat(rng, 129, 67), randMat(rng, 67, 93)
	c := randMat(rng, 129, 93)
	MustNewContext[float64](Config{MC: 96, KC: 256, NC: 2048, Threads: 1}).MulAdd(c, a, b)
	if got := c.Fingerprint(); got != 0xc8256f6c555923f0 {
		t.Errorf("plain MulAdd fingerprint %#x, want %#x (default backend no longer bit-identical)", got, uint64(0xc8256f6c555923f0))
	}

	rng = rand.New(rand.NewSource(77))
	x, y := randMat(rng, 40, 24), randMat(rng, 40, 24)
	v, w := randMat(rng, 24, 36), randMat(rng, 24, 36)
	c1, c2 := randMat(rng, 40, 36), randMat(rng, 40, 36)
	MustNewContext[float64](Config{MC: 8, KC: 8, NC: 16, Threads: 3}).FusedMulAdd(
		[]Term[float64]{{Coef: 1, M: c1}, {Coef: -0.5, M: c2}},
		[]Term[float64]{{Coef: 1, M: x}, {Coef: 0.25, M: y}},
		[]Term[float64]{{Coef: 1, M: v}, {Coef: -1, M: w}},
	)
	if got := c1.Fingerprint(); got != 0x6f376137339adffa {
		t.Errorf("fused C1 fingerprint %#x, want %#x", got, uint64(0x6f376137339adffa))
	}
	if got := c2.Fingerprint(); got != 0xbda2c638fe5c9862 {
		t.Errorf("fused C2 fingerprint %#x, want %#x", got, uint64(0xbda2c638fe5c9862))
	}
}

// TestKernelSelection: a context built with Config.Kernel drives the named
// backend, its results match the reference, and an unknown name is rejected
// at construction.
func TestKernelSelection(t *testing.T) {
	if _, err := NewContext[float64](Config{MC: 8, KC: 8, NC: 16, Threads: 1, Kernel: "no-such-kernel"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	for _, name := range kernel.Backends() {
		bk := kernel.MustResolve[float64](name)
		cfg := Config{MC: 2 * bk.MR(), KC: 8, NC: 2 * bk.NR(), Threads: 2, Kernel: name}
		ctx, err := NewContext[float64](cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := ctx.Backend().Name(); got != name {
			t.Fatalf("context drives %q, want %q", got, name)
		}
		rng := rand.New(rand.NewSource(21))
		a, b := randMat(rng, 37, 29), randMat(rng, 29, 41)
		c := matrix.New[float64](37, 41)
		want := matrix.New[float64](37, 41)
		matrix.MulAdd(want, a, b)
		ctx.MulAdd(c, a, b)
		if d := c.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("%s: diff %g", name, d)
		}
	}
}

// TestValidateRejectsBlockingBelowBackendTile: the blocking floor is the
// selected backend's micro-tile — MC=4 is fine for go4x4 and MC=3 is not,
// while the 6-row avx2 tile (where the host has it) already rejects MC=4.
func TestValidateRejectsBlockingBelowBackendTile(t *testing.T) {
	if _, err := NewContext[float64](Config{MC: 4, KC: 8, NC: 16, Threads: 1}); err != nil {
		t.Fatalf("MC=4 must be valid for the default 4×4 backend: %v", err)
	}
	if _, err := NewContext[float64](Config{MC: 3, KC: 8, NC: 16, Threads: 1}); err == nil {
		t.Fatal("MC=3 accepted for the 4×4 backend")
	}
	if kernel.HostCPU().AVX2 {
		if _, err := NewContext[float64](Config{MC: 4, KC: 8, NC: 16, Threads: 1, Kernel: kernel.AVX2Backend}); err == nil {
			t.Fatal("MC=4 accepted for the 6×8 avx2 backend")
		}
	}
}

// alignedBuf's property tests live in alignedbuf_test.go; CI additionally
// runs this package with -asan to shadow-check the unsafe.Pointer offset
// arithmetic.
