package sched

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmmfam/internal/shard"
)

// TestRunExecutesAllJobsExactlyOnce sweeps worker and job counts, including
// the degenerate corners (no jobs, one job, more workers than jobs), and
// checks every job ran exactly once.
func TestRunExecutesAllJobsExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, workers := range []int{0, 1, 2, 3, 8, 16} {
		for _, n := range []int{0, 1, 2, 7, 64, 501} {
			counts := make([]atomic.Int32, n)
			jobs := make([]Job, n)
			for i := range jobs {
				i := i
				jobs[i] = Job{
					Cost: rng.Int63n(1000),
					Run:  func() { counts[i].Add(1) },
				}
			}
			Run(workers, jobs)
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: job %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestRunActuallyOverlapsJobs: with sleeping jobs, the pool must reach a
// concurrency level above one — the static serial fallback would not.
func TestRunActuallyOverlapsJobs(t *testing.T) {
	var inFlight, highWater atomic.Int32
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Cost: 1, Run: func() {
			cur := inFlight.Add(1)
			for {
				hw := highWater.Load()
				if cur <= hw || highWater.CompareAndSwap(hw, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
		}}
	}
	Run(4, jobs)
	if hw := highWater.Load(); hw < 2 {
		t.Fatalf("high-water concurrency %d, want ≥ 2", hw)
	}
}

// TestRunStealsFromStragglers: one worker takes a long job with the rest of
// the work queued behind it; the other workers must take all of that, so
// total wall time stays near the long job instead of serializing behind it.
func TestRunStealsFromStragglers(t *testing.T) {
	const workers = 4
	// Costs are descending, so job 0 (the long one) is claimed first.
	var ran atomic.Int32
	jobs := make([]Job, 16)
	jobs[0] = Job{Cost: 1000, Run: func() {
		time.Sleep(60 * time.Millisecond)
		ran.Add(1)
	}}
	for i := 1; i < len(jobs); i++ {
		jobs[i] = Job{Cost: int64(1000 - i), Run: func() {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}}
	}
	start := time.Now()
	Run(workers, jobs)
	elapsed := time.Since(start)
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d jobs, want 16", got)
	}
	// The other workers take the short jobs while the long one runs.
	// Generous bound to stay robust on loaded CI machines.
	if elapsed > 55*time.Millisecond*4 {
		t.Fatalf("elapsed %v suggests no overlap at all", elapsed)
	}
}

// TestRunRace is the -race fodder: many concurrent Run calls sharing
// nothing, each hammering its own counter set.
func TestRunRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var total atomic.Int64
			jobs := make([]Job, 100)
			for i := range jobs {
				i := i
				jobs[i] = Job{Cost: int64(i % 7), Run: func() { total.Add(int64(i)) }}
			}
			Run(3, jobs)
			if total.Load() != 99*100/2 {
				t.Errorf("sum %d, want %d", total.Load(), 99*100/2)
			}
		}()
	}
	wg.Wait()
}

// TestLoneWorkerClaimsInDescendingCostOrder pins the hand-out itself: on a
// 2-worker pool with the costliest job blocked on a channel, the other worker
// alone must run every remaining job exactly once, claiming them off the
// cursor costliest-first with equal costs in submission order.
func TestLoneWorkerClaimsInDescendingCostOrder(t *testing.T) {
	costs := []int64{5, 9, 1, 9, 7, 3, 7, 2}
	// Stable costliest-first order of the indices above.
	want := []int{1, 3, 4, 6, 0, 5, 7, 2}

	release := make(chan struct{})
	var mu sync.Mutex // the claimer may be the caller or the helper, never both
	var claimed []int
	jobs := make([]Job, 1+len(costs))
	jobs[0] = Job{Cost: 1 << 60, Run: func() { <-release }}
	for i, c := range costs {
		i := i
		jobs[1+i] = Job{Cost: c, Run: func() {
			mu.Lock()
			claimed = append(claimed, i)
			n := len(claimed)
			mu.Unlock()
			if n == len(costs) {
				close(release)
			}
		}}
	}
	done := make(chan struct{})
	go func() {
		NewPool(2).Run(jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: the free worker did not drain the jobs behind the blocked one")
	}
	if !slices.Equal(claimed, want) {
		t.Fatalf("claim order %v, want each of %v exactly once, in that order", claimed, want)
	}
}

// TestStealDistributionRaggedGrid drives the hand-out on a ragged 3D shard
// grid — tile costs spanning two orders of magnitude, few workers. One
// worker is pinned in a long job; the remaining worker must drain every
// other job (exactly once) before the long job finishes, which requires
// that no job is reserved for the blocked worker.
func TestStealDistributionRaggedGrid(t *testing.T) {
	spec, ok := shard.Split(3000, 2000, 900, shard.Options{Workers: 8, MinTile: 96, KSplit: true})
	if !ok {
		t.Fatal("expected the ragged problem to shard")
	}
	tiles := spec.Tiles()
	if len(tiles) < 8 {
		t.Fatalf("want a ragged grid with ≥ 8 tiles, got %d (%v)", len(tiles), spec)
	}

	const workers = 2
	// jobs[0] gets the largest cost, so it is claimed first; its worker
	// blocks in it until every other job has run.
	others := int32(len(tiles))
	allOthersDone := make(chan struct{})
	var doneOnce sync.Once
	var ran atomic.Int32
	jobs := make([]Job, 1+len(tiles))
	jobs[0] = Job{Cost: 1 << 60, Run: func() {
		<-allOthersDone
		ran.Add(1)
	}}
	for i, tile := range tiles {
		cost := int64(tile.Rows) * int64(tile.Cols) * int64(tile.Depth)
		jobs[1+i] = Job{Cost: cost, Run: func() {
			ran.Add(1)
			if atomic.AddInt32(&others, -1) == 0 {
				doneOnce.Do(func() { close(allOthersDone) })
			}
		}}
	}
	done := make(chan struct{})
	go func() {
		Run(workers, jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: the free worker failed to drain the jobs behind the blocked one")
	}
	if got := ran.Load(); got != int32(len(jobs)) {
		t.Fatalf("ran %d jobs, want %d", got, len(jobs))
	}
}
