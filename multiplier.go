package fmmfam

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/sched"
	"fmmfam/internal/shard"
)

// GenericMultiplier is the library-integration entry point the paper's
// conclusion argues for ("Strassen-like fast matrix multiplication can be
// incorporated into libraries for practical use"), generic over the element
// type: a reusable multiplier that selects an implementation per problem
// shape with the performance model — a fast algorithm where one is predicted
// to pay, plain GEMM where none is — and keeps the constructed plans, so
// steady-state calls pay no selection or setup cost. Multiplier and
// Multiplier32 are its float64 and float32 instantiations; the float64
// surface is the historical bit-stable one, the float32 surface trades
// precision for halved memory traffic (the regime where fast algorithms
// win earliest — see README "Precision").
//
// Concurrency contract: a multiplier is safe for unlimited concurrent
// callers. Plans are immutable, stateless descriptions shared across callers
// of the same shape class; all mutable per-call state (packing buffers,
// variant temporaries, reduction buffers) is rented from the engine below,
// so concurrent MulAdd calls never serialize on workspace. Buffers are typed
// per element — a float32 buffer can never be handed to a float64 call,
// however the two surfaces interleave.
//
// One engine: every plan executes on one Threads=1 gemm.Context of the
// configured kernel backend, built on first use on the multiplier's pool. The
// context owns all the memory; plans own none. So the multiplier's idle
// retained memory is bounded by gemm.Context's invariant, independent of how
// many plans are built and of how many shapes were served.
//
// One worker budget: a multiplier owns exactly one sched.Pool of
// Config.Threads (Threads − 1 helper tokens; the submitting goroutine always
// works too), and one cross-job runner (batchRun) is its one parallel
// mechanism: it serves MulAddBatch's jobs and a sharded MulAdd's tiles and
// K-split slabs alike, each job a width-1 plan. Pool.Run's one rule — no free
// token, run the jobs serially on the caller — is what bounds goroutines,
// for any mix and nesting of concurrent callers:
//
//	live compute goroutines ≤ callers + (Threads − 1) helpers,
//
// the MulAddAsync queue counting as at most Threads callers (its drainers,
// each an ordinary MulAdd caller).
//
// Win or abstain: plain GEMM is candidate zero of the family the model ranks
// (model.DefaultCandidates), priced by the model's own GEMM column, and its
// plan is the zero-level fmmexec.Plan — gemm.Context.MulAdd straight through.
// A product's shape class (each dimension rounded up to a power of two) is
// priced at its upper corner, so where the class's corner is below the
// kernel's break-even (model.BreakEvenSquare: ~148 on go4x4, ~1793 on avx2,
// ~3524 on avx512 at the paper's machine constants and the default blocking)
// the multiplier serves GEMM, bit-identical to a bare gemm.Context, and above
// it the fast plan the model ranks first there. There is no size threshold
// and no second code path: the only thing deciding GEMM versus FMM is
// model.Best (the head of model.Rank) on this multiplier's Arch, and every
// route to a plan abstains the same way — a direct call, each batch job, each
// shard tile and K-split slab, each async job and coalesced wire request.
//
// One plan table: one slot per family member, built once on first use, and
// a class is only an index into it — a pure function of (kernel, dtype,
// class), never of which sizes came first, so two multipliers serve every
// product alike and nothing is evicted (planTable). Every plan runs at width
// 1, so the determinism contracts depend on which plan runs and on the fixed
// fold orders, never on who runs a job: batch results do not depend on
// Threads, and a 2-D sharded result equals its product's plan run on the
// tiles one after another — a Threads=1 multiplier's PlanFor of the product
// — bit for bit.
//
// Serving behavior: with Threads ≥ 2 a MulAdd is cut into independent block
// products where a grid of at least two tiles fits (shardSpec), and
// otherwise served whole at width 1; MulAddAsync submits work to a bounded
// queue whose drainers call MulAdd, and returns a Future. Tiles ≥ MC; K
// slabs ≥ break-even at or above Config.ShardThreshold; the cheaper grid
// wins: a 2-D grid with K whole is cut at Config.MC, at or above the
// threshold a grid that may also cut the inner dimension at the model's
// break-even, and the model's makespan picks between them. The product's
// plan is chosen once, at its own shape class, and every tile runs it:
// sharding decides how a plan is parallelised, never which plan runs
// (shardSpec, mulAddSharded).
type GenericMultiplier[E matrix.Element] struct {
	cfg  Config
	arch Arch

	// cfgErr is the construction-time validation result; every entry
	// point returns it so an invalid multiplier fails fast and uniformly.
	cfgErr error

	pool  *sched.Pool // the one worker budget
	plans *planTable[E]

	// ctx is the one gemm.Context every plan executes on, built on first use
	// (engine); ctxErr is why it could not be.
	ctxOnce sync.Once
	ctx     *gemm.Context[E]
	ctxErr  error

	// breakEven is the lazily-computed model break-even (breakEvenTile).
	breakEvenOnce sync.Once
	breakEven     int

	// batchRuns banks idle cross-job runners, the state of one MulAddBatch or
	// sharded MulAdd. Threads of them cover Threads concurrent calls, more
	// than the pool can run at full width; callers beyond that build a
	// runner the GC takes back.
	batchRuns chan *batchRun[E]

	async asyncQueue[E]
}

// Multiplier is the float64 multiplier — the historical public surface,
// source-compatible with every release since PR 1.
type Multiplier = GenericMultiplier[float64]

// Multiplier32 is the float32 multiplier: the same serving engine
// instantiated at single precision.
type Multiplier32 = GenericMultiplier[float32]

// NewGenericMultiplier returns a multiplier for element type E using the
// given blocking/threads and machine parameters for selection. An empty
// cfg.Kernel is resolved here, once, to the fastest backend registered for E
// (resolveConfig) and stored. The arch is the model's machine with this
// multiplier's engine in it: its blocking is replaced by cfg's MC, KC and NC,
// the blocking every plan runs, and it is re-priced for E
// (model.ArchForDtype — float32 halves the per-element bandwidth cost τb)
// and for cfg.Kernel's backend (model.ArchForKernel), so plan selection, the
// K-slab floor, and the shard grid score all price the blocking and the
// (kernel, dtype) pair actually in use; τa and τb from model.Calibrate[E]
// with the same cfg.Kernel pass through unchanged. An invalid cfg is
// reported by every entry point's first call (see Config.Validate).
func NewGenericMultiplier[E matrix.Element](cfg Config, arch Arch) *GenericMultiplier[E] {
	cfg, cfgErr := resolveConfig[E](cfg)
	arch.MC, arch.KC, arch.NC = cfg.MC, cfg.KC, cfg.NC
	return &GenericMultiplier[E]{
		cfg:       cfg,
		arch:      model.ArchForKernel(model.ArchForDtype(arch, matrix.DtypeOf[E]()), cfg.Kernel),
		cfgErr:    cfgErr,
		pool:      sched.NewPool(cfg.Threads),
		plans:     newPlanTable[E](),
		batchRuns: make(chan *batchRun[E], max(cfg.Threads, 1)),
	}
}

// NewMultiplier returns a float64 Multiplier; see NewGenericMultiplier.
// PaperArch() is the machine every built-in multiplier prices with; relative
// rankings transfer well across machines.
func NewMultiplier(cfg Config, arch Arch) *Multiplier {
	return NewGenericMultiplier[float64](cfg, arch)
}

// NewMultiplier32 returns a float32 Multiplier32; see NewGenericMultiplier.
func NewMultiplier32(cfg Config, arch Arch) *Multiplier32 {
	return NewGenericMultiplier[float32](cfg, arch)
}

// checkMulDims validates C(m×n) += A(m×k)·B(k×n) dimensions.
func checkMulDims[E matrix.Element](c, a, b matrix.Mat[E]) error {
	if !dimsAgree(c, a, b) {
		return fmt.Errorf("fmmfam: dims C(%d×%d) += A(%d×%d)·B(%d×%d)",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

func dimsAgree[E matrix.Element](c, a, b matrix.Mat[E]) bool {
	return a.Cols == b.Rows && c.Rows == a.Rows && c.Cols == b.Cols
}

// MulAdd computes c += a·b, choosing and caching an implementation for the
// problem's shape class. With Threads ≥ 2 a product with room for two tiles
// is split into independent block products scheduled across the worker pool
// — tiles ≥ MC; K slabs ≥ break-even at or above the threshold; the cheaper
// grid wins (shardSpec) — and any other product runs whole at width 1. Safe
// for concurrent callers.
//
// Before a plan reads c, the goroutine running it write-touches the part of
// c it computes (fmmexec.Plan.MulAdd): one integer add of zero to a 4-byte
// word of every 4 KiB page of c's rows, so a freshly allocated c faults once
// per page instead of twice, and a sharded product's tiles fault in in
// parallel. No bit of c changes and nothing outside its rows is written.
func (mu *GenericMultiplier[E]) MulAdd(c, a, b matrix.Mat[E]) error {
	if mu.cfgErr != nil {
		return mu.cfgErr
	}
	if dimsAgree(c, a, b) {
		if spec, ok := mu.shardSpec(a.Rows, a.Cols, b.Cols); ok {
			p, err := mu.planFor(a.Rows, a.Cols, b.Cols)
			if err != nil {
				return err
			}
			mu.mulAddSharded(spec, p, c, a, b)
			return nil
		}
	}
	return mu.mulAdd(c, a, b, gemm.Operands[E]{})
}

// mulAdd is c += a·b served whole: its class's plan, at width 1. MulAdd
// calls it for a product it does not shard; batch jobs always do.
// next names the product the caller runs after this one (a batch worker's
// claimed-ahead job), handed to the plan as its successor hint
// (fmmexec.Plan.MulAddNext); the zero Operands names none.
func (mu *GenericMultiplier[E]) mulAdd(c, a, b matrix.Mat[E], next gemm.Operands[E]) error {
	if err := checkMulDims(c, a, b); err != nil {
		return err
	}
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return nil
	}
	p, err := mu.planFor(a.Rows, a.Cols, b.Cols)
	if err != nil {
		return err
	}
	p.MulAddNext(c, a, b, next)
	return nil
}

// GenericBatchJob is one independent multiplication C += A·B of a batch.
type GenericBatchJob[E matrix.Element] struct {
	C, A, B matrix.Mat[E]
}

// BatchJob is the float64 batch job.
type BatchJob = GenericBatchJob[float64]

// BatchJob32 is the float32 batch job.
type BatchJob32 = GenericBatchJob[float32]

// MulAddBatch runs the jobs on the multiplier's worker pool: up to Threads
// workers claim them costliest-first (by classical flop count 2·m·k·n) off
// one shared cursor, so mixed-size batches don't pay a straggler round. While
// at least as many jobs are unclaimed as the batch has workers, each worker
// claims ahead: it holds the next job it will run and runs the current one
// with that job's operands as the successor hint, so a GEMM-served job
// prefetches its successor's A, B and C under its own micro-kernel calls
// (gemm.Workspace.SetNext; FMM-served jobs ignore the hint). Below that it
// claims one job at a time, so a batch of no more jobs than workers runs one
// job per worker. The price is a tail imbalance of at most one job per worker
// — the smallest ones, by the claim order — held by a worker that is still
// running while another has run out. Batch contract: every job executes its
// own shape class's width-1 plan, unsharded — the parallelism is across jobs,
// not within one; the tiles of a sharded MulAdd, which share this runner,
// all run their product's plan instead — so results and plan selection are
// identical whether the pool has one worker or many, and the prefetch never
// changes a bit. Jobs must be
// independent (no C aliases another job's operands). It returns the join of
// all per-job errors; jobs after a failed one still run. The call's state is
// rented (batchRun), so a warm batch of cached shape classes allocates
// nothing.
func (mu *GenericMultiplier[E]) MulAddBatch(jobs []GenericBatchJob[E]) error {
	if mu.cfgErr != nil {
		return mu.cfgErr
	}
	if len(jobs) == 0 {
		return nil
	}
	r := mu.rentBatchRun()
	err := r.run(jobs)
	mu.releaseBatchRun(r)
	return err
}

// batchRun is the multiplier's one cross-job runner: the state of one
// MulAddBatch or sharded MulAdd in flight — the jobs, their costs, their
// costliest-first claim order and the cursor into it, how many workers run them, one error
// per job, and Threads pool jobs bound once to work. A batch job runs its
// own shape class's width-1 plan; a sharded call's jobs all run the one
// plan it hands over (plan), its product's. A sharded call builds its jobs
// in tiles, which the runner banks between calls. It is rented for the call
// from a bounded free list (the multiplier's batchRuns), and its slices grow
// to the largest call it has served.
type batchRun[E matrix.Element] struct {
	mu      *GenericMultiplier[E]
	plan    *fmmexec.Plan[E] // every job's plan when set (sharded); else each job's class's
	jobs    []GenericBatchJob[E]
	order   []int
	costs   []int64 // jobCost of each job, by index
	cursor  atomic.Int64
	width   int // workers submitted for jobs: min(Threads, len(jobs))
	errs    []error
	tiles   []GenericBatchJob[E]
	workers []sched.Job
}

// rentBatchRun takes an idle batchRun off the free list, or builds one.
func (mu *GenericMultiplier[E]) rentBatchRun() *batchRun[E] {
	var r *batchRun[E]
	select {
	case r = <-mu.batchRuns:
	default:
		r = &batchRun[E]{mu: mu}
		r.workers = make([]sched.Job, max(mu.cfg.Threads, 1))
		for w := range r.workers {
			r.workers[w] = sched.Job{Cost: 1, Run: r.work}
		}
	}
	return r
}

// load sets r up to run jobs: the claim order — costliest first, ties in
// submission order, each job's cost computed once — the cursor, the worker
// count and one error slot per job.
func (r *batchRun[E]) load(jobs []GenericBatchJob[E]) {
	r.jobs = jobs
	r.order = r.order[:0]
	r.costs = grow(r.costs, len(jobs))
	for i := range jobs {
		r.order = append(r.order, i)
		r.costs[i] = jobCost(jobs[i])
	}
	costs := r.costs
	slices.SortFunc(r.order, func(x, y int) int {
		if c := cmp.Compare(costs[y], costs[x]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	r.cursor.Store(0)
	r.width = min(len(r.workers), len(jobs))
	r.errs = grow(r.errs, len(jobs))
}

// run executes jobs on the multiplier's pool and returns the join of their
// errors once every job has finished.
func (r *batchRun[E]) run(jobs []GenericBatchJob[E]) error {
	r.load(jobs)
	r.mu.pool.Run(r.workers[:r.width])
	return errors.Join(r.errs[:len(jobs)]...)
}

// releaseBatchRun banks r for the next call, first dropping its references
// to the caller's plan, jobs, tile views and errors.
func (mu *GenericMultiplier[E]) releaseBatchRun(r *batchRun[E]) {
	r.plan, r.jobs = nil, nil
	clear(r.tiles)
	clear(r.errs)
	select {
	case mu.batchRuns <- r:
	default: // more calls were live than the list holds: the GC takes it
	}
}

// jobCost is a batch job's classical flop count, its claim priority.
func jobCost[E matrix.Element](j GenericBatchJob[E]) int64 {
	return 2 * int64(j.A.Rows) * int64(j.A.Cols) * int64(j.B.Cols)
}

// claim returns the index of the next unclaimed job in claim order.
func (r *batchRun[E]) claim() (int, bool) {
	pos := int(r.cursor.Add(1)) - 1
	if pos >= len(r.order) {
		return 0, false
	}
	return r.order[pos], true
}

// claimAhead claims a successor for the job a worker holds, but only while
// at least as many jobs are unclaimed as the batch has workers: a worker that
// took a job another one would have started at once would serialize them.
func (r *batchRun[E]) claimAhead() (int, bool) {
	if len(r.order)-int(r.cursor.Load()) < r.width {
		return 0, false
	}
	return r.claim()
}

// work is one batch worker: it runs jobs until none are left to claim, each
// on the run's plan when it has one (a sharded call's tiles, whose views
// always agree), else through mulAdd. When it claims a successor
// ahead of the job it holds, it hands the successor's operands to that job
// as its hint — unless their dimensions disagree, in which case the
// successor only reports its error; otherwise it claims its next job once
// the one it holds is done.
//
//fmm:hotpath
func (r *batchRun[E]) work() {
	i, ok := r.claim()
	for ok {
		j, ahead := r.claimAhead()
		var next gemm.Operands[E]
		if ahead {
			if s := r.jobs[j]; dimsAgree(s.C, s.A, s.B) {
				next = gemm.Operands[E](s)
			}
		}
		job := &r.jobs[i]
		if r.plan != nil {
			r.plan.MulAddNext(job.C, job.A, job.B, next)
		} else {
			r.errs[i] = r.mu.mulAdd(job.C, job.A, job.B, next)
		}
		if ahead {
			i = j
		} else {
			i, ok = r.claim()
		}
	}
}

// breakEvenTile is the model's fast-algorithm break-even on this
// multiplier's arch (model.BreakEvenSquare), computed once: the slab floor of
// the K-split grid shardSpec builds at or above the threshold.
func (mu *GenericMultiplier[E]) breakEvenTile() int {
	mu.breakEvenOnce.Do(func() {
		mu.breakEven = model.BreakEvenSquare(mu.arch, defaultCandidates())
	})
	return mu.breakEven
}

// shardSpec decides whether C(m×n) += A(m×k)·B(k×n) should be sharded and,
// if so, how. Sharding needs a pool to feed (Threads ≥ 2) and sharding left on
// (ShardThreshold ≥ 0). Tiles ≥ MC; K slabs ≥ break-even at or above the
// threshold; the cheaper grid wins:
//
//   - the 2-D grid with K whole, every cut side at least Config.MC, so a tile
//     still fills at least one Ã block of the GEMM it runs;
//   - only where max(m,k,n) ≥ ShardThreshold, also the grid that may cut K,
//     every cut dimension at least the model's fast-algorithm break-even.
//
// Each grid is the one of least modelled makespan its floor admits
// (model.ShardMakespan on this multiplier's arch, through shard.Split), and
// the lower of the two is served, a tie going to K whole — so K is split only
// when the slab products' smaller operand traffic pays for the reduction
// folds. Independent width-1 tiles outrun one product's in-call loop
// whichever plan serves the product, and the tiles run the product's own
// plan, so the grid never changes which plan runs. A product neither grid
// fits runs whole at width 1 and wakes nobody. It reads no plan table.
func (mu *GenericMultiplier[E]) shardSpec(m, k, n int) (shard.Spec, bool) {
	thr := mu.cfg.shardThreshold()
	if mu.cfg.Threads < 2 || thr == 0 {
		return shard.Spec{}, false
	}
	tiles, ok := mu.splitAt(m, k, n, mu.cfg.MC, false)
	if max(m, k, n) < thr {
		return tiles, ok
	}
	slabs, sok := mu.splitAt(m, k, n, mu.breakEvenTile(), true)
	if sok && (!ok || mu.makespan(slabs) < mu.makespan(tiles)) {
		return slabs, true
	}
	return tiles, ok
}

// splitAt asks shard.Split for the grid of an m×k×n product at one tile
// floor, with or without cutting K.
func (mu *GenericMultiplier[E]) splitAt(m, k, n, floor int, kSplit bool) (shard.Spec, bool) {
	cost := func(gm, gn, gk int) float64 {
		return mu.makespan(shard.Spec{M: m, K: k, N: n, GridM: gm, GridN: gn, GridK: gk})
	}
	return shard.Split(m, k, n, shard.Options{Workers: mu.cfg.Threads, MinTile: floor, KSplit: kSplit, Cost: cost})
}

// makespan is the modelled time of a grid's tiles on Threads workers.
func (mu *GenericMultiplier[E]) makespan(s shard.Spec) float64 {
	return model.ShardMakespan(mu.arch, s.M, s.K, s.N, s.GridM, s.GridN, s.GridK, mu.cfg.Threads)
}

// grow returns s lengthened to at least n elements, keeping its contents.
func grow[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// mulAddSharded executes a sharded MulAdd as a batch: every (tile, slab)
// pair is one batch job computing A[ti, p0:p1]·B[p0:p1, tj] on views of the
// operands with p, the product's plan at width 1 — chosen once, at the
// product's shape class, whatever class a tile's own shape falls in — run by
// the same workers as MulAddBatch's jobs. Slab 0 accumulates directly into
// the tile's C view; each later slab accumulates into a zeroed reduction
// buffer rented from p's engine; and once every job has finished, the caller
// folds each tile's buffers into C in ascending slab order. With K whole
// (GridK == 1) there is only slab 0: tiles write disjoint regions of C and
// nothing is folded, so the result is bit-identical to running p on the
// tiles one after another, however the pool interleaves them. With K split
// the fold order is fixed, so repeated runs produce bit-identical C even
// though the schedule is not deterministic — the serving determinism
// contract for K-split. The call's runner and its tile jobs are rented
// (batchRun), so a warm call allocates nothing.
func (mu *GenericMultiplier[E]) mulAddSharded(spec shard.Spec, p *fmmexec.Plan[E], c, a, b matrix.Mat[E]) {
	ctx := p.Context() // rents the reduction buffers; unused with K whole
	n, gk := spec.NumTiles(), max(spec.GridK, 1)
	r := mu.rentBatchRun()
	r.plan = p
	r.tiles = grow(r.tiles, n)
	tiles := r.tiles[:n] // GridK consecutive slabs per output tile, ascending P
	for i := range tiles {
		t := spec.Tile(i)
		tiles[i] = GenericBatchJob[E]{A: a.View(t.I, t.P, t.Rows, t.Depth), B: b.View(t.P, t.J, t.Depth, t.Cols)}
		if i%gk == 0 {
			tiles[i].C = c.View(t.I, t.J, t.Rows, t.Cols)
		} else {
			tiles[i].C = ctx.RentMat(t.Rows, t.Cols)
			tiles[i].C.Zero()
		}
	}
	_ = r.run(tiles) // every job runs p, which reports no error
	for i := range tiles {
		if s := i % gk; s > 0 {
			tiles[i-s].C.AddScaled(1, tiles[i].C)
			ctx.ReturnMat(tiles[i].C)
		}
	}
	mu.releaseBatchRun(r)
}

// engine returns the one gemm.Context every plan executes on — Threads = 1,
// so a plan never fans out within a call, built on the multiplier's pool so
// its free lists are sized for Threads concurrent workers — building it on
// first use.
func (mu *GenericMultiplier[E]) engine() (*gemm.Context[E], error) {
	mu.ctxOnce.Do(func() {
		cfg := mu.cfg.gemmConfig()
		cfg.Threads = 1
		mu.ctx, mu.ctxErr = gemm.NewContextOn[E](cfg, mu.pool)
	})
	return mu.ctx, mu.ctxErr
}

// RentMat returns a rows×cols matrix with unspecified contents from the
// scratch list of the engine the multiplier's products run on — the one
// bounded store of buffers a multiplier keeps warm, shared with its plans'
// temporaries. It is how a front-end that builds operands and results per
// request (package serve) avoids a second pool: give the matrix back with
// ReturnMat once no product that reads or writes it can still be running. A
// matrix that is never returned is simply collected.
func (mu *GenericMultiplier[E]) RentMat(rows, cols int) matrix.Mat[E] {
	ctx, err := mu.engine()
	if err != nil { // invalid Config: every product fails with it; nothing to pool
		return matrix.New[E](rows, cols)
	}
	return ctx.RentMat(rows, cols)
}

// ReturnMat gives a RentMat matrix back; the caller must not use it after.
func (mu *GenericMultiplier[E]) ReturnMat(m matrix.Mat[E]) {
	if ctx, err := mu.engine(); err == nil {
		ctx.ReturnMat(m)
	}
}

// MultiplierStats is the multiplier's observability surface.
type MultiplierStats struct {
	// Kernel is the micro-kernel backend this engine resolved from its
	// configuration (Config.Kernel; an empty selection resolves to the
	// fastest backend registered). A configured-but-unavailable backend is
	// reported with an " (unavailable)" suffix — every compute call is
	// failing validation in that state.
	Kernel string
	// CachedPlans mirrors CachedPlans(): the family members whose plans
	// are built.
	CachedPlans int
}

// Stats returns a point-in-time snapshot of the multiplier's serving state.
// Safe for concurrent use with serving traffic.
func (mu *GenericMultiplier[E]) Stats() MultiplierStats {
	return MultiplierStats{Kernel: mu.resolvedKernel(), CachedPlans: mu.CachedPlans()}
}

// resolvedKernel names the backend this engine runs on, marking a named
// selection that is not registered for its element type on this host.
func (mu *GenericMultiplier[E]) resolvedKernel() string {
	if _, ok := kernel.ResolveNameFor(mu.cfg.Kernel, matrix.DtypeOf[E]()); !ok {
		return mu.cfg.Kernel + " (unavailable)"
	}
	return mu.cfg.Kernel
}

// PlanFor exposes the plan of a problem size's shape class (useful for
// inspection and testing): the width-1 plan MulAdd runs when it serves the
// product whole, and on every tile and K-slab when the product shards. An
// invalid Config or a negative dimension is an error.
func (mu *GenericMultiplier[E]) PlanFor(m, k, n int) (*fmmexec.Plan[E], error) {
	if err := mu.checkDims(m, k, n); err != nil {
		return nil, err
	}
	return mu.planFor(m, k, n)
}

// checkDims is PlanFor's and Explain's argument check: the multiplier's
// Config error, or a negative dimension, which no product has.
func (mu *GenericMultiplier[E]) checkDims(m, k, n int) error {
	if mu.cfgErr != nil {
		return mu.cfgErr
	}
	if min(m, k, n) < 0 {
		return fmt.Errorf("fmmfam: dims %d×%d×%d", m, k, n)
	}
	return nil
}

// Explanation is what a multiplier does with one product and what it priced
// to decide: MulAdd's decisions without the multiplication.
type Explanation struct {
	// Kernel is the backend the engine runs on (Stats().Kernel).
	Kernel string
	// Arch holds the machine constants the selector prices with: the
	// constructor's arch with the Config's MC, KC and NC, re-priced for the
	// element type and Kernel.
	Arch Arch
	// GridM×GridN×GridK is the shard grid (M×N×K); all zero when the product
	// is served whole.
	GridM, GridN, GridK int
	// M, K and N are the shape one job runs, at width 1: the product, or its
	// largest shard tile.
	M, K, N int
	// Plan names the plan MulAdd runs, as PlanFor does: the family member
	// the product's shape class picks, whole or on every shard tile.
	Plan string
}

// Explain reports what MulAdd would do with an m×k×n product, without
// multiplying: it resolves the route and plan the call resolves, so it fills
// the plan table exactly as the call would. A negative dimension is an error.
func (mu *GenericMultiplier[E]) Explain(m, k, n int) (Explanation, error) {
	if err := mu.checkDims(m, k, n); err != nil {
		return Explanation{}, err
	}
	p, err := mu.planFor(m, k, n)
	if err != nil {
		return Explanation{}, err
	}
	spec, sharded := mu.shardSpec(m, k, n)
	ex := Explanation{Kernel: mu.cfg.Kernel, Arch: mu.arch, M: m, K: k, N: n, Plan: p.String()}
	if sharded {
		t := spec.Tile(0)
		ex.GridM, ex.GridN, ex.GridK = spec.GridM, spec.GridN, spec.GridK
		ex.M, ex.K, ex.N = t.Rows, t.Depth, t.Cols
	}
	return ex, nil
}

// planFor returns the plan an m×k×n product runs: its shape class's family
// member, on the engine.
func (mu *GenericMultiplier[E]) planFor(m, k, n int) (*fmmexec.Plan[E], error) {
	key := planKey{bucket(m), bucket(k), bucket(n)}
	if p := mu.plans.lookup(key); p != nil {
		return p, nil
	}
	return mu.fillClass(key)
}

// fillClass sends a shape class to the family member model.Best picks at the
// class's upper corner — so it depends on the class alone, never on which of
// its sizes came first — building that member's plan if no class has yet.
// Racing fills of one class record the same plan.
func (mu *GenericMultiplier[E]) fillClass(key planKey) (*fmmexec.Plan[E], error) {
	cands := defaultCandidates()
	i := model.Best(mu.arch, cands, key.bm, key.bk, key.bn)
	fp := &mu.plans.family[i]
	fp.once.Do(func() {
		ctx, err := mu.engine()
		if err == nil {
			fp.p, err = fmmexec.NewPlanOn(ctx, cands[i].Variant, cands[i].Levels...)
		}
		if fp.err = err; err == nil {
			mu.plans.built.Add(1)
		}
	})
	if fp.err != nil {
		return nil, fp.err
	}
	mu.plans.mu.Lock()
	mu.plans.classes[key] = fp.p
	mu.plans.mu.Unlock()
	return fp.p, nil
}

// CachedPlans reports how many family members' plans the multiplier has
// built: at most the family's size.
func (mu *GenericMultiplier[E]) CachedPlans() int { return int(mu.plans.built.Load()) }

// planTable holds a multiplier's plans: one slot per family member
// (defaultCandidates), built on first use and kept; and a map sending every
// shape class served so far to its member's plan. Nothing is evicted: the
// family bounds the plans.
type planTable[E matrix.Element] struct {
	family []familyPlan[E]
	built  atomic.Int64 // members built

	mu      sync.RWMutex
	classes map[planKey]*fmmexec.Plan[E]
}

// familyPlan is one family member's plan, or why it failed.
type familyPlan[E matrix.Element] struct {
	once sync.Once
	p    *fmmexec.Plan[E]
	err  error
}

func newPlanTable[E matrix.Element]() *planTable[E] {
	return &planTable[E]{
		family:  make([]familyPlan[E], len(defaultCandidates())),
		classes: make(map[planKey]*fmmexec.Plan[E]),
	}
}

// lookup returns the plan a shape class was sent to, or nil before its first
// fill: the one read a warm call makes.
//
//fmm:hotpath
func (t *planTable[E]) lookup(key planKey) *fmmexec.Plan[E] {
	t.mu.RLock()
	p := t.classes[key]
	t.mu.RUnlock()
	return p
}

// planKey is a shape class: each dimension rounded up to its power-of-two
// bucket.
type planKey struct{ bm, bk, bn int }

// bucket rounds x up to a power of two. Above 2^62, where the next one
// overflows int, every x shares the one top class, math.MaxInt.
func bucket(x int) int {
	if x <= 1 {
		return 1
	}
	if x > 1<<62 {
		return math.MaxInt
	}
	return 1 << bits.Len(uint(x-1))
}

// defaultCandidates is model.DefaultCandidates, enumerated (and its stats
// computed) once per process: every Recommend, every class fill, every
// multiplier's plan table and break-even read this one table.
var defaultCandidatesOnce struct {
	sync.Once
	cands []Candidate
}

func defaultCandidates() []Candidate {
	defaultCandidatesOnce.Do(func() {
		defaultCandidatesOnce.cands = model.DefaultCandidates()
	})
	return defaultCandidatesOnce.cands
}

// defaultMultipliers backs the package-level Multiply/MultiplyBatch/
// MultiplyAsync: per element type (indexed by matrix.Dtype) one
// lazily-initialized multiplier with default parallel blocking and the
// paper's machine model, shared by all callers so repeated package-level
// calls reuse its plans instead of rebuilding a plan per call — and built
// on first use, so a program that never touches float32 pays nothing for it.
// The FMMFAM_KERNEL environment variable names the micro-kernel backend
// (EnvKernel; see Kernels), unset meaning the fastest registered one; an
// unknown name is reported by every call through a default multiplier rather
// than silently falling back.
var defaultMultipliers [2]struct {
	sync.Once
	mu any // *GenericMultiplier[E] of the slot's element type
}

func defaultMultiplier[E matrix.Element]() *GenericMultiplier[E] {
	d := &defaultMultipliers[matrix.DtypeOf[E]()]
	d.Do(func() {
		cfg := DefaultConfig().Parallel()
		cfg.Kernel = EnvKernel()
		d.mu = NewGenericMultiplier[E](cfg, PaperArch())
	})
	return d.mu.(*GenericMultiplier[E])
}
