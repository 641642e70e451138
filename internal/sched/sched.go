// Package sched runs a fixed batch of independent jobs on a small worker
// budget. It replaces static tile hand-outs in the sharding and batch layers:
// jobs carry a modelled cost, and every worker claims the costliest job not
// yet started off one shared cursor, so ragged grids and heterogeneous job
// costs no longer pay the straggler round a ⌈jobs/workers⌉ round-robin
// schedule models — the realized schedule is greedy LPT (longest processing
// time first) list scheduling. This is the paper's plain data parallelism:
// one sorted list, one atomic add per job, no per-worker queues to rebalance.
//
// There is one implementation: Pool.Run draws helpers from a bounded token
// budget with the caller participating — the nesting-safe form every layer
// of the library submits through (the multiplier's batch workers, which run
// batch jobs, shard tiles and K-split slabs alike; row-split adds; the gemm
// ic loop and B̃ packing), so jobs that are themselves pool
// workers can submit more work. The package-level
// Run is the same call on a throwaway Pool, for callers outside the library's
// worker budget (benchmarks, tests).
package sched

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Job is one unit of work. Run executes it; Cost orders the hand-out
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

// Pool is a shared worker budget for fork-join parallelism that may nest:
// batch jobs and shard tiles, gemm's ic loop and B̃ packing inside each of
// an FMM plan's in-order terms, row-split submatrix additions, and concurrent
// top-level calls all draw helper goroutines from one budget instead of each
// spawning their own workers and oversubscribing the machine.
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
	// free banks idle run states (one per helper token: a Run needs one only
	// while it holds a token), so a warm Run reuses its cursor, wait-group
	// and claim order instead of allocating them.
	free chan *run
}

// NewPool returns a Pool with a budget of workers goroutines (the caller of
// Run counts as one, so workers−1 helper tokens are banked). workers < 1 is
// treated as 1: every Run executes serially on its caller.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tokens: make(chan struct{}, workers-1), free: make(chan *run, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Workers reports the pool's goroutine budget: the size it was built with.
func (p *Pool) Workers() int { return cap(p.tokens) + 1 }

// run is the state of one Pool.Run call that recruited helpers: the jobs,
// their claim order, the shared cursor and the helpers' wait-group. It is
// rented from the pool for the call — a helper touches it last when it
// signals wg, which Run waits for before handing it back.
type run struct {
	p    *Pool
	jobs []Job
	// order is the costliest-first claim order; empty when every job carries
	// the same cost, where the claim order is the submission order.
	order []int
	next  atomic.Int64
	wg    sync.WaitGroup
	// help is r.helper, bound once so starting a helper allocates no closure.
	help func()
}

func (p *Pool) rent() *run {
	select {
	case r := <-p.free:
		return r
	default:
		r := &run{p: p}
		r.help = r.helper
		return r
	}
}

func (p *Pool) release(r *run) {
	r.jobs = nil // pin none of the caller's closures while idle
	select {
	case p.free <- r:
	default: // more runs were live than tokens exist: drop, the GC reclaims it
	}
}

// setOrder fills r.order with the stable costliest-first permutation of
// r.jobs, or empties it when the costs are all equal.
func (r *run) setOrder() {
	jobs := r.jobs
	r.order = r.order[:0]
	if !slices.ContainsFunc(jobs, func(j Job) bool { return j.Cost != jobs[0].Cost }) {
		return
	}
	for i := range jobs {
		r.order = append(r.order, i)
	}
	slices.SortStableFunc(r.order, func(a, b int) int { return cmp.Compare(jobs[b].Cost, jobs[a].Cost) })
}

// claim runs jobs off the shared cursor, in claim order, until none remain.
//
//fmm:hotpath
func (r *run) claim() {
	n := int64(len(r.jobs))
	for {
		pos := r.next.Add(1) - 1
		if pos >= n {
			return
		}
		if len(r.order) > 0 {
			pos = int64(r.order[pos])
		}
		r.jobs[pos].Run()
	}
}

// helper is one recruited goroutine: it claims until the jobs run out, banks
// its token, and only then signals the wait-group.
func (r *run) helper() {
	r.claim()
	r.p.tokens <- struct{}{}
	r.wg.Done()
}

// Run executes every job exactly once and returns when all have finished.
// The calling goroutine participates as a worker, joined by however many
// helper tokens were free, so Run is safe to call from inside a job running
// on this same Pool. Jobs are ordered costliest-first (stable, so equal costs
// keep submission order) and handed out off one atomic cursor: each worker
// claims the next job in that order until none remain, so the claim order is
// deterministic though the execution interleaving is not. With no free tokens
// (or a single job) the jobs run serially on the caller in submission order.
// A warm Run allocates nothing: its state is rented from the pool.
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
	r := p.rent()
	r.jobs = jobs
	r.setOrder()
	r.next.Store(0)
	r.wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go r.help()
	}
	r.claim()
	r.wg.Wait()
	p.release(r)
}
