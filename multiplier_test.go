package fmmfam

import (
	"math/rand"
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
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 1}, PaperArch())
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

// TestMultiplierPlansShareOnePool: every plan a multiplier builds, at either
// width, runs its contexts on the multiplier's own pool — the one MulAddBatch
// and the shard paths dispatch on — so there is one worker budget to exhaust.
// (fmmexec's TestPlanOnSharedPool covers the plan's second context.)
func TestMultiplierPlansShareOnePool(t *testing.T) {
	for _, traversal := range []string{TraversalAuto, TraversalBFS} {
		mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 4, Traversal: traversal}, PaperArch())
		for _, threads := range []int{1, 4} {
			e, err := mu.entryFor(96, 96, 96, threads)
			if err != nil {
				t.Fatal(err)
			}
			if e.p.Context().Pool() != mu.pool {
				t.Fatalf("traversal %s width %d: plan runs on a pool of its own", traversal, threads)
			}
			if got := e.p.Context().Config().Threads; got != threads {
				t.Fatalf("traversal %s: width-%d entry holds a Threads=%d plan", traversal, threads, got)
			}
		}
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
