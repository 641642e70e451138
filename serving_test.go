package fmmfam

// Tests for the serving layer: automatic sharding of large MulAdds, the
// Future-based async queue, and their interaction with the batch pool. Run
// with -race; the CI workflow always does.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fmmfam/internal/matrix"
	"fmmfam/internal/shard"
)

// servingCfg is a small-blocking config that shards aggressively so the
// tests cover the sharded path at test-sized problems: a product reaching 128
// in some dimension splits with tiles of at least 64 (half the threshold)
// where that gives each of the four threads a 2-D tile, else at the
// break-even. It names the reference kernel, whose break-even (~148)
// test-sized problems clear, so tiles and unsharded products run FMM plans;
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
//  1. the sharded result is bit-identical to executing the same tile
//     decomposition sequentially on a Threads=1 multiplier — sharding is
//     pure scheduling, so pool interleaving must not perturb a single bit;
//  2. repeated sharded runs are bit-identical (deterministic serving);
//  3. the sharded result matches the unsharded plan path within a tight
//     tolerance — the two paths group the additions of the exact same real
//     product differently (full-size plan vs per-tile plans), so equality is
//     up to roundoff, not bitwise;
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

		// (1) bit-identical to sequential execution of the same tiles. This
		// is the 2D contract — these shapes must keep K whole (K-split
		// would still be correct, but only run-to-run deterministic).
		if spec.GridK != 1 {
			t.Fatalf("shape %v: expected the 2D decomposition, got %v", s, spec)
		}
		seq := NewMatrix(m, n)
		if err := replaySharded(serialTwin(mu).MulAdd, spec.Spec, seq, a, b); err != nil {
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

// serialTwin is a Threads=1 multiplier of mu's configuration: what a sharded
// call's tiles are replayed on.
func serialTwin[E matrix.Element](mu *GenericMultiplier[E]) *GenericMultiplier[E] {
	cfg := mu.cfg
	cfg.Threads = 1
	return NewGenericMultiplier[E](cfg, PaperArch())
}

// replaySharded replays a sharded c += a·b one (tile, slab) product at a time
// through mulAdd: slab 0 of each output tile into the tile's C view, each
// later slab into a zeroed matrix, and those folded into the tile's view in
// ascending slab order. With K whole that is the tiles run one after another.
func replaySharded[E matrix.Element](mulAdd func(c, a, b matrix.Mat[E]) error, spec shard.Spec, c, a, b matrix.Mat[E]) error {
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
			if err := mulAdd(bufs[s], a.View(tl.I, tl.P, tl.Rows, tl.Depth), b.View(tl.P, tl.J, tl.Depth, tl.Cols)); err != nil {
				return fmt.Errorf("tile %+v: %w", tl, err)
			}
		}
		for _, buf := range bufs[1:] {
			cv.AddScaled(1, buf)
		}
	}
	return nil
}

// TestShardedKSplit drives the K-split path on K-dominant shapes (M×N too
// small to cut, huge inner dimension) and checks, per shape:
//
//  1. the problem actually takes the 3D path (GridK ≥ 2) — these shapes
//     never sharded at all under the 2D-only decomposition;
//  2. the result matches the naive triple-loop reference within tolerance;
//  3. the result is bit-identical to replaying the slabs on a Threads=1
//     multiplier and folding them in ascending slab order (replaySharded) —
//     the fold order is part of the contract, not only its determinism;
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
		if err := replaySharded(serialTwin(mu).MulAdd, spec.Spec, replay, a, b); err != nil {
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
// workers, where its six tiles would take two rounds. Shapes that do not
// shard are skipped. The seeds cover the three grid kinds.
//
// The replay runs on one Threads=1 multiplier shared by every input: a shape
// class's plan depends on the class alone, never on which of its sizes
// either multiplier saw first, so however the fuzzer's shapes interleave,
// the twin serves each tile the plan the sharded call ran it with.
func FuzzShardedMulAdd(f *testing.F) {
	f.Add(uint16(256), uint16(96), uint16(200), false, int64(1)) // 3×1 tiles
	f.Add(uint16(48), uint16(700), uint16(60), false, int64(2))  // one tile, 3 K-slabs
	f.Add(uint16(70), uint16(300), uint16(300), true, int64(3))  // 1×2 tiles, 2 K-slabs each
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
		if err := replaySharded(twin.MulAdd, route.Spec, want, a, b); err != nil {
			t.Fatalf("%v: %v", route, err)
		}
		if d := c.MaxAbsDiff(want); d != 0 {
			t.Fatalf("%v: sharded MulAdd differs from its replay by %g", route, d)
		}
	})
}

// TestKDominantAcceptanceShape pins the acceptance criterion: the
// 256×32768×256 inner-product shape on a default parallel config — which a
// 2-D-only decomposition would leave unsharded on one worker — shards via
// K-split at the break-even floor (a K-split grid never takes the lower one),
// every slab at least that deep.
func TestKDominantAcceptanceShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 4
	mu := NewMultiplier(cfg, PaperArch())
	route, ok := mu.shardSpec(256, 32768, 256)
	if !ok {
		t.Fatal("256×32768×256 must shard on the default parallel config")
	}
	if route.GridK < 2 {
		t.Fatalf("256×32768×256 sharded without K-split: %v", route)
	}
	if route.floor != mu.breakEvenTile() {
		t.Fatalf("%v cut at floor %d, want the break-even %d", route, route.floor, mu.breakEvenTile())
	}
	for _, tl := range route.Tiles() {
		if tl.Depth < route.floor {
			t.Fatalf("%v: slab %+v under the break-even floor %d", route, tl, route.floor)
		}
	}
}

// TestShardGating: sharding must stay off for single-threaded multipliers,
// sub-threshold problems, and explicitly disabled configs — those calls take
// the plain plan path.
func TestShardGating(t *testing.T) {
	single := servingCfg()
	single.Threads = 1
	if _, ok := NewMultiplier(single, PaperArch()).shardSpec(4096, 4096, 4096); ok {
		t.Fatal("Threads=1 must not shard")
	}
	small := servingCfg()
	if _, ok := NewMultiplier(small, PaperArch()).shardSpec(100, 100, 100); ok {
		t.Fatal("sub-threshold problem must not shard")
	}
	off := servingCfg()
	off.ShardThreshold = -1
	if _, ok := NewMultiplier(off, PaperArch()).shardSpec(4096, 4096, 4096); ok {
		t.Fatal("ShardThreshold<0 must disable sharding")
	}
	// Default knobs derive the tile floor from the model's break-even, and a
	// product with room for two tiles at or above the floor it was cut at
	// shards out of the box. At T = 2 a product at the threshold splits at the
	// lower of half the threshold and the break-even: its 2-D halves give
	// each thread a tile, and either GEMM serves it or the break-even is
	// already lower. At T = 8 a product twice the break-even shards at one
	// of the two floors.
	def := DefaultConfig()
	def.Threads = 2
	breakEven := NewMultiplier(def, PaperArch()).breakEvenTile()
	if breakEven < 64 || breakEven > 1<<15 {
		t.Fatalf("model break-even %d out of range", breakEven)
	}
	half := DefaultShardThreshold / 2
	for _, tc := range []struct{ threads, side int }{
		{2, DefaultShardThreshold},
		{8, max(2*breakEven, DefaultShardThreshold)},
	} {
		def.Threads = tc.threads
		route, ok := NewMultiplier(def, PaperArch()).shardSpec(tc.side, tc.side, tc.side)
		if !ok {
			t.Fatalf("default config at T=%d must shard a %d³ problem (floor %d)", tc.threads, tc.side, route.floor)
		}
		if route.floor != half && route.floor != breakEven ||
			tc.threads == 2 && route.floor != min(half, breakEven) {
			t.Fatalf("%d³ at T=%d cut at floor %d (half the threshold %d, break-even %d)", tc.side, tc.threads, route.floor, half, breakEven)
		}
		for _, tl := range route.Tiles() {
			if tl.Rows < route.floor || tl.Cols < route.floor {
				t.Fatalf("tile %+v under the applied floor %d", tl, route.floor)
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
		if mu.plans.lookup(shapeClass(96, 64, 96, 1)) == nil {
			t.Fatalf("Threads=%d: batch did not plan at width 1", mu.cfg.Threads)
		}
	}
}

// TestMulAddAsyncConcurrentSubmitters hammers one multiplier's async queue
// from many goroutines with mixed shapes through a deliberately tiny queue
// (so submitters block on backpressure) and verifies every future resolves
// with the right product. Under -race this proves the submission path shares
// no unsynchronized state.
func TestMulAddAsyncConcurrentSubmitters(t *testing.T) {
	cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 3, QueueDepth: 2}
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
// submission whose problem is big enough to shard still returns the right
// answer (the queue drainer executes it at width 1, so it must not
// recursively re-shard into a deadlock).
func TestMulAddAsyncLargeJobSharded(t *testing.T) {
	mu := NewMultiplier(servingCfg(), PaperArch())
	defer mu.Close()
	rng := rand.New(rand.NewSource(13))
	a, b := NewMatrix(192, 64), NewMatrix(64, 192)
	a.FillRand(rng)
	b.FillRand(rng)
	want := NewMatrix(192, 192)
	matrix.MulAdd(want, a, b)
	c := NewMatrix(192, 192)
	if err := mu.MulAddAsync(c, a, b).Wait(); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("diff %g", d)
	}
}
