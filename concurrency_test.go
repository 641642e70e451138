package fmmfam

// Concurrency tests for the execution engine's contract: immutable
// Plans/Multipliers, all mutable state pooled per call. Run with -race;
// the CI workflow always does.

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fmmfam/internal/matrix"
	"fmmfam/internal/sched"
)

// concurrencyShapes mixes divisible, fringed, and rank-k problems so
// concurrent callers exercise different plans, scratch rents, and the
// peeling paths at once.
var concurrencyShapes = [][3]int{
	{64, 64, 64}, {48, 16, 48}, {33, 77, 51}, {100, 30, 100}, {31, 29, 37},
}

// refProduct precomputes the naive reference C = A·B for one shape.
type refProduct struct {
	a, b, want Matrix
}

func makeRefProducts(seed int64) []refProduct {
	rng := rand.New(rand.NewSource(seed))
	out := make([]refProduct, len(concurrencyShapes))
	for i, s := range concurrencyShapes {
		a, b := NewMatrix(s[0], s[1]), NewMatrix(s[1], s[2])
		a.FillRand(rng)
		b.FillRand(rng)
		want := NewMatrix(s[0], s[2])
		matrix.MulAdd(want, a, b)
		out[i] = refProduct{a: a, b: b, want: want}
	}
	return out
}

// TestMultiplierConcurrentMixedShapes hammers one Multiplier from many
// goroutines with mixed shapes and checks every result against the naive
// reference. Under -race this proves MulAdd shares no mutable state across
// callers (plan cache, packing workspaces, scratch rents).
func TestMultiplierConcurrentMixedShapes(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, PaperArch())
	refs := makeRefProducts(1)
	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				r := refs[(g+it)%len(refs)]
				c := NewMatrix(r.want.Rows, r.want.Cols)
				if err := mu.MulAdd(c, r.a, r.b); err != nil {
					errc <- err
					return
				}
				if d := c.MaxAbsDiff(r.want); d > 1e-9 {
					t.Errorf("goroutine %d iter %d: diff %g", g, it, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPlanConcurrentCallersShareOnePlan drives a single cached Plan (not
// just a shared Multiplier) from many goroutines on different sizes within
// its shape class — the case the old plan-owned asum/bsum/mtmp buffers made
// impossible.
func TestPlanConcurrentCallersShareOnePlan(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, PaperArch())
	p, err := mu.PlanFor(60, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sizes := [][3]int{{60, 60, 60}, {57, 61, 59}, {64, 50, 64}}
	type job struct{ a, b, want Matrix }
	jobs := make([]job, len(sizes))
	for i, s := range sizes {
		a, b := NewMatrix(s[0], s[1]), NewMatrix(s[1], s[2])
		a.FillRand(rng)
		b.FillRand(rng)
		want := NewMatrix(s[0], s[2])
		matrix.MulAdd(want, a, b)
		jobs[i] = job{a, b, want}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				j := jobs[(g+it)%len(jobs)]
				c := NewMatrix(j.want.Rows, j.want.Cols)
				p.MulAdd(c, j.a, j.b)
				if d := c.MaxAbsDiff(j.want); d > 1e-9 {
					t.Errorf("goroutine %d: diff %g", g, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMulAddBatch checks the batch API: results match the reference, and a
// bad job reports an error without poisoning the rest of the batch.
func TestMulAddBatch(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 4}, PaperArch())
	refs := makeRefProducts(3)
	jobs := make([]BatchJob, 0, 3*len(refs))
	wants := make([]Matrix, 0, 3*len(refs))
	for rep := 0; rep < 3; rep++ {
		for _, r := range refs {
			c := NewMatrix(r.want.Rows, r.want.Cols)
			jobs = append(jobs, BatchJob{C: c, A: r.a, B: r.b})
			wants = append(wants, r.want)
		}
	}
	if err := mu.MulAddBatch(jobs); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if d := j.C.MaxAbsDiff(wants[i]); d > 1e-9 {
			t.Fatalf("job %d: diff %g", i, d)
		}
	}

	// One mismatched job errors; the good job beside it still runs.
	good := refs[0]
	c := NewMatrix(good.want.Rows, good.want.Cols)
	err := mu.MulAddBatch([]BatchJob{
		{C: NewMatrix(2, 2), A: NewMatrix(2, 3), B: NewMatrix(2, 2)},
		{C: c, A: good.a, B: good.b},
	})
	if err == nil {
		t.Fatal("expected dim error from bad job")
	}
	if d := c.MaxAbsDiff(good.want); d > 1e-9 {
		t.Fatalf("good job skipped after bad job: diff %g", d)
	}
}

// TestGoroutineCeiling pins the multiplier's goroutine invariant — live
// compute goroutines ≤ callers + Threads − 1 helpers, plus the Threads queue
// drainers once MulAddAsync has been used — under the worst mix: concurrent
// callers of unsharded MulAdd on distinct shape classes (intra-GEMM fan-out),
// sharded MulAdd (2-D tiles and K-split slabs) and MulAddBatch, all on one
// Threads=4 multiplier, while a sampler counts the goroutines in
// runtime.Stack that are callers or helpers still claiming jobs.
func TestGoroutineCeiling(t *testing.T) {
	const threads = 4
	cfg := servingCfg() // Threads 4, shards from 128 up with tiles ≥ 48
	mu := NewMultiplier(cfg, PaperArch())
	defer mu.Close()

	type problem struct {
		a, b, want Matrix
		batch      bool
	}
	rng := rand.New(rand.NewSource(21))
	mk := func(m, k, n int, batch bool) problem {
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		want := NewMatrix(m, n)
		matrix.MulAdd(want, a, b)
		return problem{a: a, b: b, want: want, batch: batch}
	}
	problems := []problem{
		mk(100, 100, 100, false), mk(60, 120, 90, false), mk(120, 40, 30, false), // unsharded, three shape classes
		mk(256, 96, 256, false), mk(192, 64, 160, false), // 2-D sharded
		mk(48, 512, 48, false),                      // K-split
		mk(90, 70, 80, true), mk(40, 100, 60, true), // batches of these
	}
	for i, p := range problems[3:6] {
		spec, ok := mu.shardSpec(p.a.Rows, p.a.Cols, p.b.Cols)
		if !ok || (i == 2) != (spec.GridK > 1) {
			t.Fatalf("problem %d: shardSpec = %v, %v; the mix needs two 2-D shards and one K-split", 3+i, spec, ok)
		}
	}

	// The frame every pool worker runs its jobs under: the caller of a job,
	// found by running one. A pool helper gives its token back on leaving
	// that frame, so the next Run can start a helper while this one has yet
	// to exit; only helpers still under it are live compute goroutines.
	var claim string
	sched.NewPool(2).Run([]sched.Job{{Run: func() {
		pc := make([]uintptr, 1)
		runtime.Callers(2, pc)
		f, _ := runtime.CallersFrames(pc).Next()
		claim = f.Function
	}}, {Run: func() {}}})
	if claim != "fmmfam/internal/sched.(*run).claim" {
		t.Fatalf("jobs run under %q, want sched's claim loop", claim)
	}
	helper, inClaim := []byte("created by fmmfam/internal/sched.(*Pool).Run"), []byte(claim+"(")
	stacks := make([]byte, 1<<20)
	live := func() int {
		n := 0
		for _, g := range bytes.Split(stacks[:runtime.Stack(stacks, true)], []byte("\n\n")) {
			if !bytes.Contains(g, helper) || bytes.Contains(g, inClaim) {
				n++
			}
		}
		return n
	}

	// run starts one goroutine per problem, each making iters calls, and
	// returns the highest live goroutine count seen above the count before
	// it started anything.
	run := func(iters int, async bool) int {
		base := live()
		var stop atomic.Bool
		peak := make(chan int)
		go func() {
			hi := 0
			for !stop.Load() {
				hi = max(hi, live())
				runtime.Gosched()
			}
			peak <- hi
		}()
		var wg sync.WaitGroup
		for g, p := range problems {
			wg.Add(1)
			go func(g int, p problem) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					cs := []Matrix{NewMatrix(p.want.Rows, p.want.Cols)}
					var err error
					switch {
					case async && g%2 == 0:
						err = mu.MulAddAsync(cs[0], p.a, p.b).Wait()
					case p.batch:
						jobs := make([]BatchJob, 6)
						for i := range jobs {
							if i > 0 {
								cs = append(cs, NewMatrix(p.want.Rows, p.want.Cols))
							}
							jobs[i] = BatchJob{C: cs[i], A: p.a, B: p.b}
						}
						err = mu.MulAddBatch(jobs)
					default:
						err = mu.MulAdd(cs[0], p.a, p.b)
					}
					if err != nil {
						t.Errorf("caller %d iter %d: %v", g, it, err)
						return
					}
					for _, c := range cs {
						if d := c.MaxAbsDiff(p.want); d > 1e-9 {
							t.Errorf("caller %d iter %d: diff %g", g, it, d)
							return
						}
					}
				}
			}(g, p)
		}
		wg.Wait()
		stop.Store(true)
		return <-peak - base - 1 // less the sampler itself
	}

	callers := len(problems)
	if got, limit := run(12, false), callers+threads-1; got > limit {
		t.Fatalf("%d concurrent callers peaked at %d goroutines, want ≤ callers + Threads − 1 = %d", callers, got, limit)
	}
	// With the async queue in use its Threads drainers join, as callers.
	if got, limit := run(12, true), callers+2*threads-1; got > limit {
		t.Fatalf("%d callers with MulAddAsync peaked at %d goroutines, want ≤ callers + 2·Threads − 1 = %d", callers, got, limit)
	}
}

// TestDefaultMultiplierReusesPlans verifies package-level Multiply routes
// through the shared default Multiplier (the old implementation rebuilt a
// full plan — buffers and all — on every call).
func TestDefaultMultiplierReusesPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := NewMatrix(40, 40), NewMatrix(40, 40)
	a.FillRand(rng)
	b.FillRand(rng)
	want := NewMatrix(40, 40)
	matrix.MulAdd(want, a, b)
	c := NewMatrix(40, 40)
	if err := Multiply(c, a, b); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("diff %g", d)
	}
	before := defaultMultiplier[float64]().CachedPlans()
	c.Zero()
	if err := Multiply(c, a, b); err != nil {
		t.Fatal(err)
	}
	if after := defaultMultiplier[float64]().CachedPlans(); after != before {
		t.Fatalf("second Multiply built a new plan: %d → %d", before, after)
	}
	p1, err := defaultMultiplier[float64]().PlanFor(40, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := defaultMultiplier[float64]().PlanFor(40, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("default multiplier did not cache the plan")
	}

	// float32 operands take the same entry point and land on a multiplier of
	// their own; finding either costs no allocation.
	a32, b32, c32 := NewMatrix32(40, 40), NewMatrix32(40, 40), NewMatrix32(40, 40)
	a32.FillRand(rng)
	b32.FillRand(rng)
	want32 := NewMatrix32(40, 40)
	matrix.MulAdd(want32, a32, b32)
	if err := Multiply(c32, a32, b32); err != nil {
		t.Fatal(err)
	}
	if d := c32.MaxAbsDiff(want32); d > 1e-3 {
		t.Fatalf("float32 diff %g", d)
	}
	if defaultMultiplier[float32]().CachedPlans() == 0 || defaultMultiplier[float64]().CachedPlans() != before {
		t.Fatal("float32 Multiply did not run on its own default multiplier")
	}
	if n := testing.AllocsPerRun(100, func() { defaultMultiplier[float64](); defaultMultiplier[float32]() }); n != 0 {
		t.Fatalf("defaultMultiplier allocates %v times per lookup pair", n)
	}
}
