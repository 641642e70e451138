package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunExecutesAllJobsExactlyOnce sweeps pool and job counts,
// including the degenerate corners (no jobs, one job, single-worker pool).
func TestPoolRunExecutesAllJobsExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, workers := range []int{0, 1, 2, 4, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 301} {
			counts := make([]atomic.Int32, n)
			jobs := make([]Job, n)
			for i := range jobs {
				i := i
				jobs[i] = Job{Cost: rng.Int63n(1000), Run: func() { counts[i].Add(1) }}
			}
			p.Run(jobs)
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: job %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestPoolSerialFallbackKeepsOrder: a single-worker pool (no helper tokens)
// must run jobs on the caller in submission order — the property the BFS
// executor's Threads=1 degradation and the addScaled fallback rely on.
func TestPoolSerialFallbackKeepsOrder(t *testing.T) {
	p := NewPool(1)
	var order []int
	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{Cost: int64(i), Run: func() { order = append(order, i) }}
	}
	p.Run(jobs)
	for i, got := range order {
		if got != i {
			t.Fatalf("serial fallback reordered jobs: %v", order)
		}
	}
}

// TestPoolNestedRunNoDeadlock is the deadlock regression test for nested
// submission: every outer job submits an inner batch to the same pool. With
// blocking token acquisition this wedges as soon as all helpers are parked
// in outer jobs; the non-blocking caller-participates design must complete —
// bounded here by a watchdog so a regression fails fast instead of hanging
// the suite.
func TestPoolNestedRunNoDeadlock(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int32
	outer := make([]Job, 16)
	for i := range outer {
		outer[i] = Job{Cost: 1, Run: func() {
			inner := make([]Job, 8)
			for j := range inner {
				inner[j] = Job{Cost: 1, Run: func() {
					// Third nesting level, fan-out inside fan-out.
					p.Run([]Job{{Cost: 1, Run: func() { ran.Add(1) }}})
				}}
			}
			p.Run(inner)
		}}
	}
	done := make(chan struct{})
	go func() {
		p.Run(outer)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Pool.Run deadlocked")
	}
	if got := ran.Load(); got != 16*8 {
		t.Fatalf("innermost jobs ran %d times, want %d", got, 16*8)
	}
}

// TestPoolConcurrencyStaysWithinBudget: C concurrent Run calls on a pool of
// W may run on at most C + W − 1 goroutines total; with C=1 the in-flight
// job count must never exceed W.
func TestPoolConcurrencyStaysWithinBudget(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var inFlight, highWater atomic.Int32
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{Cost: 1, Run: func() {
			cur := inFlight.Add(1)
			for {
				hw := highWater.Load()
				if cur <= hw || highWater.CompareAndSwap(hw, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
		}}
	}
	p.Run(jobs)
	if hw := highWater.Load(); hw > workers {
		t.Fatalf("high-water concurrency %d exceeds budget %d", hw, workers)
	}
	if hw := highWater.Load(); hw < 2 {
		t.Fatalf("high-water concurrency %d, want ≥ 2 (helpers never recruited)", hw)
	}
}

// TestPoolTokensReturned: after Run completes, the full helper budget must
// be available again — leaked tokens would silently serialize later calls.
func TestPoolTokensReturned(t *testing.T) {
	p := NewPool(4)
	for round := 0; round < 5; round++ {
		jobs := make([]Job, 12)
		var n atomic.Int32
		for i := range jobs {
			jobs[i] = Job{Cost: 1, Run: func() { n.Add(1) }}
		}
		p.Run(jobs)
		if n.Load() != 12 {
			t.Fatalf("round %d: ran %d jobs", round, n.Load())
		}
	}
	if got := len(p.tokens); got != cap(p.tokens) {
		t.Fatalf("%d of %d helper tokens banked after quiesce", got, cap(p.tokens))
	}
}

// TestPoolRunRace exercises concurrent top-level Run calls under -race.
func TestPoolRunRace(t *testing.T) {
	p := NewPool(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				jobs := make([]Job, 9)
				for i := range jobs {
					jobs[i] = Job{Cost: int64(i), Run: func() { total.Add(1) }}
				}
				p.Run(jobs)
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 6*20*9 {
		t.Fatalf("ran %d jobs, want %d", got, 6*20*9)
	}
}

// TestPoolRunAllocatesNothingWarm: once a pool has served one Run of a given
// width, further Runs rent their state — cursor, wait-group, claim order —
// and start helpers off a bound method, so they allocate nothing: neither on
// equal-cost jobs (the gemm ic loop; no sort) nor on mixed-cost ones (batch
// jobs, B̃ pack chunks; the order slice is reused).
func TestPoolRunAllocatesNothingWarm(t *testing.T) {
	for _, tc := range []struct {
		name string
		cost func(i int) int64
	}{
		{"equal-cost", func(int) int64 { return 7 }},
		{"mixed-cost", func(i int) int64 { return int64(i % 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(4)
			var ran atomic.Int64
			jobs := make([]Job, 64)
			for i := range jobs {
				jobs[i] = Job{Cost: tc.cost(i), Run: func() { ran.Add(1) }}
			}
			p.Run(jobs) // warm: the run state and its order slice
			if avg := testing.AllocsPerRun(50, func() { p.Run(jobs) }); avg != 0 {
				t.Fatalf("warm Pool.Run allocates %.1f objects per call, want 0", avg)
			}
			if got := ran.Load(); got != 52*64 {
				t.Fatalf("ran %d jobs, want %d", got, 52*64)
			}
		})
	}
}
