// Package sched runs a fixed batch of independent jobs on a small worker
// pool with work stealing. It replaces static tile hand-outs in the
// sharding and batch layers: jobs carry a modelled cost, the costliest are
// seeded first, and idle workers steal from busy ones, so ragged grids and
// heterogeneous job costs no longer pay the straggler round a
// ⌈jobs/workers⌉ round-robin schedule models — the realized schedule tracks
// LPT (longest processing time first) list scheduling instead.
//
// There is one implementation: Pool.Run draws helpers from a bounded token
// budget with the caller participating — the nesting-safe form every layer
// of the library submits through (batch jobs, shard tiles, K-split slabs,
// BFS term jobs, row-split adds, the gemm ic loop and B̃ packing), so jobs
// that are themselves pool workers can submit more work. The package-level
// Run is the same call on a throwaway Pool, for callers outside the library's
// worker budget (benchmarks, tests).
package sched

import (
	"sort"
	"sync"
)

// Job is one unit of work. Run executes it; Cost orders the seeding
// (largest first), so expensive jobs start as early as possible. Cost is a
// relative weight — any consistent unit (flops, tile volume, bytes) works.
type Job struct {
	Cost int64
	Run  func()
}

// Run executes every job exactly once on a private Pool of workers and
// returns when all jobs have finished: NewPool(workers).Run(jobs). Library
// code submits to its Multiplier's (or context's) long-lived Pool instead, so
// it stays inside one worker budget.
func Run(workers int, jobs []Job) {
	NewPool(workers).Run(jobs)
}

// seedDeques sorts jobs costliest-first (stable, so equal costs keep
// submission order) and deals them round-robin across workers per-worker
// deques.
func seedDeques(jobs []Job, workers int) []deque {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Cost > jobs[order[b]].Cost })
	deques := make([]deque, workers)
	for pos, idx := range order {
		d := &deques[pos%workers]
		d.jobs = append(d.jobs, idx)
	}
	return deques
}

// drain is one worker's loop: pop from the own deque front, steal from the
// back of a victim when empty, exit when one empty-handed sweep of every
// deque finds no work.
func drain(deques []deque, jobs []Job, self int) {
	for {
		idx, ok := deques[self].popFront()
		if !ok {
			var batch []int
			batch, ok = steal(deques, self)
			if ok {
				idx = batch[0]
				if len(batch) > 1 {
					// The thief's own deque is empty (that is why it
					// stole), so the surplus lands at its front in
					// the segment's original costliest-first order.
					deques[self].pushBatch(batch[1:])
				}
			}
		}
		if !ok {
			return
		}
		jobs[idx].Run()
	}
}

// Pool is a shared worker budget for fork-join parallelism that may nest:
// term-level fan-out inside one FMM call, row-split submatrix additions
// inside one of those terms, and concurrent top-level calls all draw helper
// goroutines from one budget instead of each spawning their own workers and
// oversubscribing the machine.
//
// A Pool of size W holds W−1 helper tokens. Pool.Run always executes jobs on
// the calling goroutine and additionally recruits up to min(len(jobs)−1,
// available) helpers by acquiring tokens without blocking; a helper returns
// its token when it runs out of work. Because submission never blocks and the
// caller always makes progress by itself, a job may call Run on the same Pool
// (or any other) freely: when the budget is exhausted the nested call simply
// degrades to the caller running its jobs serially — nesting can reduce
// parallelism, never deadlock. Each top-level caller contributes its own
// goroutine, so C concurrent Run calls execute on at most C + W − 1
// goroutines.
type Pool struct {
	tokens chan struct{}
}

// NewPool returns a Pool with a budget of workers goroutines (the caller of
// Run counts as one, so workers−1 helper tokens are banked). workers < 1 is
// treated as 1: every Run executes serially on its caller.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tokens: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Workers reports the pool's goroutine budget: the size it was built with.
func (p *Pool) Workers() int { return cap(p.tokens) + 1 }

// Run executes every job exactly once and returns when all have finished.
// The calling goroutine participates as a worker, joined by however many
// helper tokens were free, so Run is safe to call from inside a job running
// on this same Pool. Jobs are sorted costliest-first (stable, so equal costs
// keep submission order — Run is deterministic in which worker deque each job
// lands in, though not in execution interleaving) and seeded round-robin
// across per-worker deques; each worker drains its own deque front to back
// (its costliest first) and, when empty, steals from the back of the first
// non-empty victim — half the victim's deque at once when it is backlogged
// (≥ stealHalfMin jobs), one job otherwise. Jobs must not enqueue further
// jobs into the same Run; with a fixed job set, one empty-handed sweep of
// every deque means no work remains and the worker exits. With no free
// tokens (or a single job) the jobs run serially on the caller in submission
// order.
func (p *Pool) Run(jobs []Job) {
	n := len(jobs)
	if n == 0 {
		return
	}
	maxHelpers := n - 1
	if c := cap(p.tokens); maxHelpers > c {
		maxHelpers = c
	}
	helpers := 0
	for helpers < maxHelpers {
		select {
		case <-p.tokens:
			helpers++
			continue
		default:
		}
		break
	}
	if helpers == 0 {
		for i := range jobs {
			jobs[i].Run()
		}
		return
	}
	deques := seedDeques(jobs, helpers+1)
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go func(self int) {
			defer wg.Done()
			defer func() { p.tokens <- struct{}{} }()
			drain(deques, jobs, self)
		}(w)
	}
	drain(deques, jobs, 0)
	wg.Wait()
}

// deque is one worker's job queue: indices into the job slice, costliest
// first. A mutex is plenty here — jobs are matrix products, so queue
// operations are noise next to job runtimes.
type deque struct {
	mu   sync.Mutex
	jobs []int
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) == 0 {
		return 0, false
	}
	idx := d.jobs[0]
	d.jobs = d.jobs[1:]
	return idx, true
}

// stealHalfMin is the victim backlog at which a thief takes half the deque
// in one steal instead of a single job. Below it, batching would leave the
// victim's owner with almost nothing the moment it finishes its current
// job; at or above it, per-job steals on ragged grids degenerate into one
// lock acquisition per job while the backlogged owner is still busy — the
// classic work-stealing trade, resolved the same way Cilk-style runtimes
// do (steal a constant fraction, not a constant count).
const stealHalfMin = 4

// stealBack removes work from the back of the deque for a thief: half the
// deque (rounded down) when it holds at least stealHalfMin jobs, one job
// otherwise. The returned segment preserves deque order, so its first
// element is the costliest of the stolen jobs.
func (d *deque) stealBack() ([]int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.jobs)
	if n == 0 {
		return nil, false
	}
	take := 1
	if n >= stealHalfMin {
		take = n / 2
	}
	batch := append([]int(nil), d.jobs[n-take:]...)
	d.jobs = d.jobs[:n-take]
	return batch, true
}

// pushBatch appends a stolen surplus to the deque in order.
func (d *deque) pushBatch(batch []int) {
	d.mu.Lock()
	d.jobs = append(d.jobs, batch...)
	d.mu.Unlock()
}

// steal scans the other workers' deques round-robin from self+1 and takes
// from the back of the first non-empty one — the victim's cheapest
// remaining jobs, leaving its costliest (front) work undisturbed for the
// owner. Backlogged victims (≥ stealHalfMin jobs) lose half their deque in
// one steal, so on ragged grids a starved worker re-balances in O(log n)
// steals instead of one steal per job.
func steal(deques []deque, self int) ([]int, bool) {
	for off := 1; off < len(deques); off++ {
		if batch, ok := deques[(self+off)%len(deques)].stealBack(); ok {
			return batch, true
		}
	}
	return nil, false
}
