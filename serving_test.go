package fmmfam

// Tests for the serving layer: automatic sharding of large MulAdds, the
// Future-based async queue, and their interaction with the batch pool. Run
// with -race; the CI workflow always does.

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/shard"
)

// servingCfg is a small-blocking config that shards aggressively so the
// tests cover the sharded path at test-sized problems: tiles are cut at
// MC = 16, and a product reaching 128 in some dimension may also be cut into
// K slabs at the break-even where the model prices them lower. It names the
// reference kernel, whose break-even (~148) test-sized problems clear, so
// tiles and unsharded products run FMM plans;
// TestKernelBackendEndToEnd takes every backend down the same paths.
func servingCfg() Config {
	return Config{
		MC: 16, KC: 16, NC: 32, Threads: 4,
		ShardThreshold: 128,
		Kernel:         "go4x4",
	}
}

// TestShardedMatchesUnsharded drives the auto-sharding MulAdd path over
// square, tall, wide, and non-power-of-two shapes and checks, per shape:
//
//  1. the sharded result is bit-identical to running the product's plan on
//     the same tile decomposition sequentially (replaySharded) — sharding is
//     pure scheduling, so pool interleaving must not perturb a single bit;
//  2. repeated sharded runs are bit-identical (deterministic serving);
//  3. the sharded result matches the unsharded plan path within a tight
//     tolerance — the two paths group the additions of the exact same real
//     product differently (one plan on the whole product vs the same plan
//     per tile), so equality is up to roundoff, not bitwise;
//  4. the sharded result matches the naive triple-loop reference.
func TestShardedMatchesUnsharded(t *testing.T) {
	shapes := [][3]int{
		{256, 256, 256}, // square
		{512, 96, 64},   // tall: shards along M only
		{64, 96, 512},   // wide: shards along N only
		{257, 97, 193},  // non-power-of-two everywhere
		{300, 40, 200},  // shallow K below the tile floor
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		mu := NewMultiplier(servingCfg(), PaperArch())
		spec, ok := mu.shardSpec(m, k, n)
		if !ok {
			t.Fatalf("shape %v: expected the serving config to shard, got %v", s, spec)
		}
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		a.FillRand(rng)
		b.FillRand(rng)

		sharded := NewMatrix(m, n)
		if err := mu.MulAdd(sharded, a, b); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}

		// (1) bit-identical to the product's plan run tile by tile. This
		// is the 2D contract — these shapes must keep K whole (K-split
		// would still be correct, but only run-to-run deterministic).
		if spec.GridK != 1 {
			t.Fatalf("shape %v: expected the 2D decomposition, got %v", s, spec)
		}
		seq := NewMatrix(m, n)
		if err := replaySharded(serialTwin(mu), spec, seq, a, b); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		if d := sharded.MaxAbsDiff(seq); d != 0 {
			t.Fatalf("shape %v: pool scheduling perturbed the result by %g", s, d)
		}

		// (2) deterministic across runs.
		again := NewMatrix(m, n)
		if err := mu.MulAdd(again, a, b); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		if d := sharded.MaxAbsDiff(again); d != 0 {
			t.Fatalf("shape %v: sharded MulAdd not deterministic, diff %g", s, d)
		}

		// (3) tolerance-equal to the unsharded plan path.
		cfg := servingCfg()
		cfg.ShardThreshold = -1 // disable sharding
		unsharded := NewMatrix(m, n)
		if err := NewMultiplier(cfg, PaperArch()).MulAdd(unsharded, a, b); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		if d := sharded.MaxAbsDiff(unsharded); d > 1e-9 {
			t.Fatalf("shape %v: sharded vs unsharded diff %g", s, d)
		}

		// (4) matches the naive reference.
		want := NewMatrix(m, n)
		matrix.MulAdd(want, a, b)
		if d := sharded.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("shape %v: sharded vs reference diff %g", s, d)
		}
	}
}

// serialTwin is a Threads=1 multiplier of mu's configuration: its PlanFor of
// a sharded product is the plan the call runs on every tile.
func serialTwin[E matrix.Element](mu *GenericMultiplier[E]) *GenericMultiplier[E] {
	cfg := mu.cfg
	cfg.Threads = 1
	return NewGenericMultiplier[E](cfg, PaperArch())
}

// replaySharded replays a sharded c += a·b one (tile, slab) product at a time
// on the product's plan, twin.PlanFor(m, k, n) — the member its own shape
// class picks, whatever class a tile falls in: slab 0 of each output tile
// into the tile's C view, each later slab into a zeroed matrix, and those
// folded into the tile's view in ascending slab order. With K whole that is
// the plan run on the tiles one after another.
func replaySharded[E matrix.Element](twin *GenericMultiplier[E], spec shard.Spec, c, a, b matrix.Mat[E]) error {
	p, err := twin.PlanFor(a.Rows, a.Cols, b.Cols)
	if err != nil {
		return err
	}
	gk := max(spec.GridK, 1)
	tiles := spec.Tiles()
	for g := 0; g < len(tiles); g += gk {
		t0 := tiles[g]
		cv := c.View(t0.I, t0.J, t0.Rows, t0.Cols)
		bufs := []matrix.Mat[E]{cv}
		for range gk - 1 {
			bufs = append(bufs, matrix.New[E](t0.Rows, t0.Cols))
		}
		for s, tl := range tiles[g : g+gk] {
			p.MulAdd(bufs[s], a.View(tl.I, tl.P, tl.Rows, tl.Depth), b.View(tl.P, tl.J, tl.Depth, tl.Cols))
		}
		for _, buf := range bufs[1:] {
			cv.AddScaled(1, buf)
		}
	}
	return nil
}

// TestShardedTilesRunProductPlan: a sharded product runs its own plan on every
// tile, also where a tile's own shape class would pick another family member.
// With the shard threshold lowered so that a small product cuts into 1×2
// tiles at T = 2 — 260³ on go4x4 (the product's class picks
// <2,2,2>+<2,2,2> ABC, a tile's <2,2,2> ABC) and 1025×520×1025 on avx2
// (<2,2,2> ABC, a tile's GEMM) — PlanFor names the product's member, and the
// sharded MulAdd is bit-identical to that plan run tile by tile
// (replaySharded) and to itself across three runs.
func TestShardedTilesRunProductPlan(t *testing.T) {
	for _, tc := range []struct {
		kern    string
		thr     int
		m, k, n int
	}{
		{kernel.DefaultBackend, 256, 260, 260, 260},
		{kernel.AVX2Backend, 512, 1025, 520, 1025},
	} {
		t.Run(tc.kern, func(t *testing.T) {
			if _, ok := archOf(tc.kern, matrix.Float64); !ok {
				t.Skipf("%s not registered on this host/build", tc.kern)
			}
			cfg := DefaultConfig()
			cfg.Kernel, cfg.Threads, cfg.ShardThreshold = tc.kern, 2, tc.thr
			mu := NewMultiplier(cfg, PaperArch())
			route, ok := mu.shardSpec(tc.m, tc.k, tc.n)
			if !ok || route.GridM*route.GridN != 2 || route.GridK != 1 {
				t.Fatalf("%d×%d×%d: route %v (sharded %v), want two tiles with K whole", tc.m, tc.k, tc.n, route, ok)
			}
			twin := serialTwin(mu)
			p, err := twin.PlanFor(tc.m, tc.k, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			tl := route.Tile(0)
			own, err := twin.PlanFor(tl.Rows, tl.Depth, tl.Cols)
			if err != nil {
				t.Fatal(err)
			}
			if own.String() == p.String() {
				t.Fatalf("a %d×%d×%d tile's class picks the product's %s too: no test", tl.Rows, tl.Depth, tl.Cols, p)
			}
			if served, err := mu.PlanFor(tc.m, tc.k, tc.n); err != nil || served.String() != p.String() {
				t.Fatalf("PlanFor = %v (%v), want the product's %s", served, err, p)
			}
			rng := rand.New(rand.NewSource(41))
			a, b := NewMatrix(tc.m, tc.k), NewMatrix(tc.k, tc.n)
			a.FillRand(rng)
			b.FillRand(rng)
			want := NewMatrix(tc.m, tc.n)
			if err := replaySharded(twin, route, want, a, b); err != nil {
				t.Fatal(err)
			}
			for run := range 3 {
				c := NewMatrix(tc.m, tc.n)
				if err := mu.MulAdd(c, a, b); err != nil {
					t.Fatal(err)
				}
				if d := c.MaxAbsDiff(want); d != 0 {
					t.Fatalf("run %d: sharded MulAdd differs from %s run tile by tile by %g", run, p, d)
				}
			}
		})
	}
}

// TestShardedKSplit drives the K-split path on K-dominant shapes (M×N too
// small to cut, huge inner dimension) and checks, per shape:
//
//  1. the problem actually takes the 3D path (GridK ≥ 2) — these shapes
//     never sharded at all under the 2D-only decomposition;
//  2. the result matches the naive triple-loop reference within tolerance;
//  3. the result is bit-identical to replaying the slabs on the product's
//     plan and folding them in ascending slab order (replaySharded) — the
//     fold order is part of the contract, not only its determinism;
//  4. repeated runs are bit-identical — the reduction buffers fold into C
//     in fixed slab order, so scheduling nondeterminism must not leak into
//     the numbers (the K-split determinism contract).
func TestShardedKSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range kSplitAcceptanceShapes {
		m, k, n := s[0], s[1], s[2]
		mu := NewMultiplier(kSplitServingCfg(), PaperArch())
		spec, ok := mu.shardSpec(m, k, n)
		if !ok || spec.GridK < 2 {
			t.Fatalf("shape %v: expected a K-split, got %v ok=%v", s, spec, ok)
		}
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		a.FillRand(rng)
		b.FillRand(rng)

		got := NewMatrix(m, n)
		if err := mu.MulAdd(got, a, b); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		want := NewMatrix(m, n)
		matrix.MulAdd(want, a, b)
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("shape %v: K-split vs reference diff %g", s, d)
		}
		replay := NewMatrix(m, n)
		if err := replaySharded(serialTwin(mu), spec, replay, a, b); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		if d := got.MaxAbsDiff(replay); d != 0 {
			t.Fatalf("shape %v: K-split differs from its slab-by-slab replay by %g", s, d)
		}

		// Run-to-run bit determinism, several times so the scheduler gets
		// chances to interleave differently (and the reduction-buffer pool
		// serves both fresh and recycled buffers).
		for rep := 0; rep < 5; rep++ {
			again := NewMatrix(m, n)
			if err := mu.MulAdd(again, a, b); err != nil {
				t.Fatalf("shape %v rep %d: %v", s, rep, err)
			}
			if d := got.MaxAbsDiff(again); d != 0 {
				t.Fatalf("shape %v rep %d: K-split not bit-deterministic, diff %g", s, rep, d)
			}
		}
	}
}

// FuzzShardedMulAdd: on go4x4 multipliers that shard from 128 up, every
// sharded MulAdd of a random m, n ≤ 400, k ≤ 1200 product onto a random C —
// 2-D grids, single-tile and multi-tile K-splits alike — leaves C
// bit-identical to its replay (replaySharded). Threads is 3, or 4 when wide:
// with m, n ≤ 400 the model never cuts a multi-tile K-split for three
// workers, where its six tiles would take two rounds, and for four only
// where M is too thin for MC tiles to win (m = 1). Shapes that do not
// shard are skipped. The seeds cover the three grid kinds and the MC-floor
// route below the threshold.
//
// The replay runs every tile on the product's plan, taken from one Threads=1
// multiplier shared by every input (its PlanFor of the product): a shape
// class's plan depends on the class alone, never on which of its sizes
// either multiplier saw first, so however the fuzzer's shapes interleave,
// the twin hands over the plan the sharded call ran its tiles with.
func FuzzShardedMulAdd(f *testing.F) {
	f.Add(uint16(256), uint16(96), uint16(200), false, int64(1)) // 3×1 tiles
	f.Add(uint16(48), uint16(700), uint16(60), false, int64(2))  // one tile, 3 K-slabs
	f.Add(uint16(0), uint16(999), uint16(349), true, int64(3))   // 1×1000×350: 1×2 tiles, 2 K-slabs each
	f.Add(uint16(100), uint16(60), uint16(90), false, int64(4))  // below the threshold: MC-floor tiles
	cfg := servingCfg()
	cfg.Threads = 3
	narrow := NewMultiplier(cfg, PaperArch())
	cfg.Threads = 4
	wideMu := NewMultiplier(cfg, PaperArch())
	cfg.Threads = 1
	twin := NewMultiplier(cfg, PaperArch())
	f.Fuzz(func(t *testing.T, m, k, n uint16, wide bool, seed int64) {
		mu := narrow
		if wide {
			mu = wideMu
		}
		dm, dk, dn := 1+int(m)%400, 1+int(k)%1200, 1+int(n)%400
		route, ok := mu.shardSpec(dm, dk, dn)
		if !ok {
			t.Skipf("%d×%d×%d does not shard", dm, dk, dn)
		}
		rng := rand.New(rand.NewSource(seed))
		a, b, c := NewMatrix(dm, dk), NewMatrix(dk, dn), NewMatrix(dm, dn)
		a.FillRand(rng)
		b.FillRand(rng)
		c.FillRand(rng)
		want := c.Clone()
		if err := mu.MulAdd(c, a, b); err != nil {
			t.Fatalf("%v: %v", route, err)
		}
		if err := replaySharded(twin, route, want, a, b); err != nil {
			t.Fatalf("%v: %v", route, err)
		}
		if d := c.MaxAbsDiff(want); d != 0 {
			t.Fatalf("%v: sharded MulAdd differs from its replay by %g", route, d)
		}
	})
}

// TestKDominantAcceptanceShape pins the acceptance criterion: the
// 256×32768×256 inner-product shape on a default parallel config — which a
// 2-D-only decomposition would cut into thin column tiles that each stream all
// of K — shards via K-split, every slab at least the break-even deep.
func TestKDominantAcceptanceShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 4
	mu := NewMultiplier(cfg, PaperArch())
	spec, ok := mu.shardSpec(256, 32768, 256)
	if !ok {
		t.Fatal("256×32768×256 must shard on the default parallel config")
	}
	if spec.GridK < 2 {
		t.Fatalf("256×32768×256 sharded without K-split: %v", spec)
	}
	for _, tl := range spec.Tiles() {
		if tl.Depth < mu.breakEvenTile() {
			t.Fatalf("%v: slab %+v under the break-even floor %d", spec, tl, mu.breakEvenTile())
		}
	}
}

// TestShardGating: sharding must stay off for single-threaded multipliers,
// products with no room for two tiles at the MC floor (smaller than 2·MC in
// M and N), and explicitly disabled configs — those calls run their plan
// whole at width 1. A sub-threshold product with that room is cut at the MC
// floor, K whole. At or above the threshold the K-whole grid is still cut at
// MC, and a default config shards a product at the threshold into a tile per
// thread at T = 2 and T = 8.
func TestShardGating(t *testing.T) {
	single := servingCfg()
	single.Threads = 1
	if _, ok := NewMultiplier(single, PaperArch()).shardSpec(4096, 4096, 4096); ok {
		t.Fatal("Threads=1 must not shard")
	}
	small := servingCfg()
	mu := NewMultiplier(small, PaperArch())
	if _, ok := mu.shardSpec(24, 100, 24); ok {
		t.Fatalf("a product under 2·MC = %d in M and N must not shard", 2*small.MC)
	}
	checkFloor := func(spec shard.Spec, floor int) {
		t.Helper()
		for _, tl := range spec.Tiles() {
			if tl.Rows < floor && spec.GridM > 1 || tl.Cols < floor && spec.GridN > 1 {
				t.Fatalf("%v: tile %+v under the MC floor %d", spec, tl, floor)
			}
		}
	}
	spec, ok := mu.shardSpec(100, 100, 100)
	if !ok || spec.GridK != 1 {
		t.Fatalf("sub-threshold 100³: %v (sharded %v), want a 2-D grid at MC = %d", spec, ok, small.MC)
	}
	checkFloor(spec, small.MC)
	off := servingCfg()
	off.ShardThreshold = -1
	for _, side := range []int{100, 4096} {
		if _, ok := NewMultiplier(off, PaperArch()).shardSpec(side, side, side); ok {
			t.Fatalf("ShardThreshold<0 must disable sharding, %d³ shards", side)
		}
	}
	def := DefaultConfig()
	for _, threads := range []int{2, 8} {
		def.Threads = threads
		spec, ok := NewMultiplier(def, PaperArch()).shardSpec(DefaultShardThreshold, DefaultShardThreshold, DefaultShardThreshold)
		if !ok || spec.GridK != 1 || spec.NumTiles() < threads {
			t.Fatalf("default config at T=%d: %d³ shards as %v (sharded %v), want a 2-D tile per thread", threads, DefaultShardThreshold, spec, ok)
		}
		checkFloor(spec, def.MC)
	}
}

// TestNoKCutBelowThreshold: below Config.ShardThreshold no product is cut
// along K. On every registered kernel at T = 2, 3 and 4, over a grid of
// sub-threshold shapes from thin to square, Explain reports at most one K
// slab, so tiles write disjoint regions of C and nothing is folded — what
// TestGEMMServedBitsIndependentOfThreads rests on.
func TestNoKCutBelowThreshold(t *testing.T) {
	dims := []int{1, 16, 48, 95, 96, 191, 192, 300, 384, 512, 640, 768, 1000, DefaultShardThreshold - 1}
	for _, kern := range Kernels() {
		for _, threads := range []int{2, 3, 4} {
			cfg := DefaultConfig()
			cfg.Kernel, cfg.Threads = kern, threads
			mu := NewMultiplier(cfg, PaperArch())
			sharded := 0
			for _, m := range dims {
				for _, k := range dims {
					for _, n := range dims {
						ex, err := mu.Explain(m, k, n)
						if err != nil {
							t.Fatal(err)
						}
						if ex.GridK > 1 {
							t.Errorf("%s T=%d: %d×%d×%d below the threshold is cut into %d×%d×%d", kern, threads, m, k, n, ex.GridM, ex.GridN, ex.GridK)
						}
						if ex.GridM > 0 {
							sharded++
						}
					}
				}
			}
			if sharded == 0 {
				t.Errorf("%s T=%d: no shape of the sweep sharded", kern, threads)
			}
		}
	}
}

// TestMulAddBatchIndependentOfThreads pins the unified batch contract:
// whatever the worker count, batch jobs plan and execute at width 1, so
// batch results and plan table behavior do not depend on Threads — one batch
// of one shape builds exactly one plan.
func TestMulAddBatchIndependentOfThreads(t *testing.T) {
	run := func(threads int) (*Multiplier, Matrix) {
		cfg := Config{MC: 16, KC: 16, NC: 32, Threads: threads}
		mu := NewMultiplier(cfg, PaperArch())
		rng := rand.New(rand.NewSource(11))
		a, b := NewMatrix(96, 64), NewMatrix(64, 96)
		a.FillRand(rng)
		b.FillRand(rng)
		c := NewMatrix(96, 96)
		if err := mu.MulAddBatch([]BatchJob{{C: c, A: a, B: b}}); err != nil {
			t.Fatal(err)
		}
		return mu, c
	}
	mu1, c1 := run(1)
	mu4, c4 := run(4)
	if d := c1.MaxAbsDiff(c4); d != 0 {
		t.Fatalf("batch result depends on worker count: diff %g", d)
	}
	for _, mu := range []*Multiplier{mu1, mu4} {
		if got := mu.CachedPlans(); got != 1 {
			t.Fatalf("Threads=%d: one batch of one shape cached %d plans, want 1", mu.cfg.Threads, got)
		}
		if mu.plans.lookup(shapeClass(96, 64, 96)) == nil {
			t.Fatalf("Threads=%d: batch did not plan at width 1", mu.cfg.Threads)
		}
	}
}

// TestMulAddAsyncConcurrentSubmitters hammers one multiplier's async queue
// from many goroutines with mixed shapes. Each submitter makes all five of
// its submissions before waiting on any, and the 30 are more than the
// 4×Threads = 12 the queue holds plus the 3 its drainers run, so submitters
// block on backpressure whenever the drainers fall behind. Every future must
// resolve with the right product. Under -race this proves the submission
// path shares no unsynchronized state.
func TestMulAddAsyncConcurrentSubmitters(t *testing.T) {
	cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 3}
	mu := NewMultiplier(cfg, PaperArch())
	defer mu.Close()
	refs := makeRefProducts(5)
	const submitters = 6
	const perSubmitter = 5
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			futures := make([]*Future, perSubmitter)
			results := make([]Matrix, perSubmitter)
			for it := 0; it < perSubmitter; it++ {
				r := refs[(g+it)%len(refs)]
				results[it] = NewMatrix(r.want.Rows, r.want.Cols)
				futures[it] = mu.MulAddAsync(results[it], r.a, r.b)
			}
			for it, f := range futures {
				if err := f.Wait(); err != nil {
					t.Errorf("submitter %d future %d: %v", g, it, err)
					return
				}
				r := refs[(g+it)%len(refs)]
				if d := results[it].MaxAbsDiff(r.want); d > 1e-9 {
					t.Errorf("submitter %d future %d: diff %g", g, it, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMulAddAsyncErrorsAndClose covers the async lifecycle: dimension errors
// resolve immediately without queueing, Close drains all submitted futures,
// submissions after Close fail with ErrClosed, Close is idempotent, and an
// unused multiplier closes trivially.
func TestMulAddAsyncErrorsAndClose(t *testing.T) {
	// Close before the async path was ever used must still stick — later
	// submissions get ErrClosed rather than lazily reviving the queue — and
	// must not start drainers just to stop them.
	unused := NewMultiplier(servingCfg(), PaperArch())
	if err := unused.Close(); err != nil {
		t.Fatalf("closing an unused multiplier: %v", err)
	}
	if unused.async.q != nil {
		t.Fatal("Close on a never-used async path started the queue")
	}
	if err := unused.MulAddAsync(NewMatrix(4, 4), NewMatrix(4, 4), NewMatrix(4, 4)).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("submission after pre-use Close: err=%v, want ErrClosed", err)
	}

	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, PaperArch())
	bad := mu.MulAddAsync(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
	select {
	case <-bad.Done():
	default:
		t.Fatal("dimension-error future must resolve immediately")
	}
	if bad.Wait() == nil {
		t.Fatal("expected dimension error")
	}

	refs := makeRefProducts(6)
	futures := make([]*Future, 0, len(refs))
	results := make([]Matrix, 0, len(refs))
	for _, r := range refs {
		c := NewMatrix(r.want.Rows, r.want.Cols)
		results = append(results, c)
		futures = append(futures, mu.MulAddAsync(c, r.a, r.b))
	}
	if err := mu.Close(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futures {
		select {
		case <-f.Done():
		default:
			t.Fatalf("future %d not resolved after Close", i)
		}
		if err := f.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if d := results[i].MaxAbsDiff(refs[i].want); d > 1e-9 {
			t.Fatalf("future %d: diff %g", i, d)
		}
	}
	if err := mu.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	good := refs[0]
	late := mu.MulAddAsync(NewMatrix(good.want.Rows, good.want.Cols), good.a, good.b)
	if err := late.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("submission after Close: err=%v, want ErrClosed", err)
	}
	// The synchronous paths outlive Close.
	c := NewMatrix(good.want.Rows, good.want.Cols)
	if err := mu.MulAdd(c, good.a, good.b); err != nil {
		t.Fatalf("MulAdd after Close: %v", err)
	}
	if d := c.MaxAbsDiff(good.want); d > 1e-9 {
		t.Fatalf("MulAdd after Close: diff %g", d)
	}
}

// TestCloseReleasesGoroutines: Close must tear down every worker the async
// pool started — a serving process that opens and closes multipliers (e.g.
// per tenant) must not leak a goroutine per lifetime. NumGoroutine is
// compared with retries because exiting workers are only eventually gone.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 4}, PaperArch())
	refs := makeRefProducts(3)
	futures := make([]*Future, 0, len(refs))
	for _, r := range refs {
		futures = append(futures, mu.MulAddAsync(NewMatrix(r.want.Rows, r.want.Cols), r.a, r.b))
	}
	for _, f := range futures {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mu.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close (wanted ≤ before)",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMulAddAsyncLargeJobSharded is the end-to-end serving flow: an async
// submission big enough to shard is cut by its drainer, an ordinary MulAdd
// caller, into tiles on the multiplier's pool. Pool.Run runs the tiles on
// the drainer itself when no token is free, so the drainer cannot deadlock
// on the pool it feeds; the result is the right answer with MulAdd's bits.
func TestMulAddAsyncLargeJobSharded(t *testing.T) {
	mu := NewMultiplier(servingCfg(), PaperArch())
	defer mu.Close()
	if _, ok := mu.shardSpec(192, 64, 192); !ok {
		t.Fatal("192×64×192 does not shard: no test")
	}
	rng := rand.New(rand.NewSource(13))
	a, b := NewMatrix(192, 64), NewMatrix(64, 192)
	a.FillRand(rng)
	b.FillRand(rng)
	want, direct := NewMatrix(192, 192), NewMatrix(192, 192)
	matrix.MulAdd(want, a, b)
	if err := mu.MulAdd(direct, a, b); err != nil {
		t.Fatal(err)
	}
	c := NewMatrix(192, 192)
	if err := mu.MulAddAsync(c, a, b).Wait(); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("diff %g", d)
	}
	if n := bitsDiffer(c, direct); n != 0 {
		t.Fatalf("%d of %d elements differ from MulAdd's", n, len(c.Data))
	}
}
