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

	"fmmfam/internal/matrix"
)

// servingCfg is a small-blocking config that shards aggressively so the
// tests cover the sharded path at test-sized problems: any max(m,n) ≥ 128
// with tiles ≥ 48 splits. It names the reference kernel, whose break-even
// (~148) test-sized problems clear, so tiles and unsharded products run FMM
// plans; TestKernelBackendEndToEnd takes every backend down the same paths.
func servingCfg() Config {
	return Config{
		MC: 16, KC: 16, NC: 32, Threads: 4,
		ShardThreshold: 128, ShardMinTile: 48,
		Kernel: "go4x4",
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
		{257, 129, 193}, // non-power-of-two everywhere
		{300, 40, 200},  // shallow K below the tile floor
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		mu := NewMultiplier(servingCfg(), PaperArch())
		spec, ok := mu.shardSpec(m, k, n)
		if !ok {
			t.Fatalf("shape %v: expected the serving config to shard", s)
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
		seqCfg := servingCfg()
		seqCfg.Threads = 1
		exec := NewMultiplier(seqCfg, PaperArch())
		for _, tl := range spec.Tiles() {
			if err := exec.MulAdd(
				seq.View(tl.I, tl.J, tl.Rows, tl.Cols),
				a.View(tl.I, tl.P, tl.Rows, tl.Depth),
				b.View(tl.P, tl.J, tl.Depth, tl.Cols),
			); err != nil {
				t.Fatalf("shape %v tile %+v: %v", s, tl, err)
			}
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

// TestShardedKSplit drives the K-split path on K-dominant shapes (M×N too
// small to cut, huge inner dimension) and checks, per shape:
//
//  1. the problem actually takes the 3D path (GridK ≥ 2) — these shapes
//     never sharded at all under the 2D-only decomposition;
//  2. the result matches the naive triple-loop reference within tolerance;
//  3. repeated runs are bit-identical — the reduction buffers fold into C
//     in fixed slab order, so scheduling nondeterminism must not leak into
//     the numbers (the K-split determinism contract);
//  4. disabling Config.ShardKSplit restores the PR 2 behavior: the problem
//     does not shard, and still computes the same product unsharded.
func TestShardedKSplit(t *testing.T) {
	shapes := [][3]int{
		{48, 512, 48},  // K-dominant, divisible
		{40, 513, 52},  // non-dividing K and ragged output
		{64, 1024, 80}, // deeper K, more slabs available
	}
	rng := rand.New(rand.NewSource(17))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		cfg := Config{
			MC: 16, KC: 16, NC: 32, Threads: 4,
			ShardThreshold: 256, ShardMinTile: 48,
		}
		mu := NewMultiplier(cfg, PaperArch())
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

		// Knob off: no shard for this shape, same product unsharded.
		off := cfg
		off.ShardKSplit = -1
		muOff := NewMultiplier(off, PaperArch())
		if spec, ok := muOff.shardSpec(m, k, n); ok {
			t.Fatalf("shape %v: ShardKSplit<0 still sharded as %v", s, spec)
		}
		unsharded := NewMatrix(m, n)
		if err := muOff.MulAdd(unsharded, a, b); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		if d := unsharded.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("shape %v: unsharded vs reference diff %g", s, d)
		}
	}
}

// TestKDominantAcceptanceShape pins the acceptance criterion: the
// 256×32768×256 inner-product shape on a default parallel config — which
// PR 2's 2D decomposition left unsharded on one worker — now shards via
// K-split, and the C += A·B it computes at a scaled-down K stays correct
// and bit-deterministic.
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
		if tl.Depth < mu.shardMinTile() {
			t.Fatalf("%v: slab %+v under the model tile floor %d", spec, tl, mu.shardMinTile())
		}
	}
	// 2D-only would not shard it at all (the PR 2 behavior).
	off := cfg
	off.ShardKSplit = -1
	if spec, ok := NewMultiplier(off, PaperArch()).shardSpec(256, 32768, 256); ok {
		t.Fatalf("2D-only decomposition sharded the K-dominant shape as %v", spec)
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
	// Default knobs derive the tile floor from the model: a problem with room
	// for two tiles above it, on a parallel config, shards out of the box. The
	// floor is the break-even of whichever kernel an empty Config.Kernel
	// resolved to here, so the problem is sized from it.
	def := DefaultConfig()
	def.Threads = 8
	mu := NewMultiplier(def, PaperArch())
	floor := mu.shardMinTile()
	if floor < 64 || floor > 1<<15 {
		t.Fatalf("model-derived tile floor %d out of range", floor)
	}
	side := max(2*floor, DefaultShardThreshold)
	spec, ok := mu.shardSpec(side, side, side)
	if !ok {
		t.Fatalf("default parallel config must shard a %d³ problem (tile floor %d)", side, floor)
	}
	for _, tl := range spec.Tiles() {
		if tl.Rows < floor || tl.Cols < floor {
			t.Fatalf("tile %+v under model floor %d", tl, floor)
		}
	}
}

// TestMulAddBatchIndependentOfThreads pins the unified batch contract:
// whatever the worker count, batch jobs plan and execute at width 1, so
// batch results and cache behavior do not depend on Threads — one batch of
// one shape caches exactly one plan.
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
		if _, ok := mu.plans.get(shapeClass(96, 64, 96, 1)); !ok {
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
