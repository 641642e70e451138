package fmmfam

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
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
// to pay, plain GEMM where none is — and caches the constructed plans, so
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
// One engine per kernel: every plan of one micro-kernel backend, at either
// width, executes on one gemm.Context (width-1 plans on its Serial() view),
// built on first use — one in normal serving, one more per alternative
// backend the autotuner tries. The context owns all the memory; plans own
// none. So the multiplier's idle retained memory is bounded by gemm.Context's
// invariant times the kernels in use, independent of Config.PlanCacheCap and
// of how many shapes were served.
//
// One worker budget: a multiplier owns exactly one sched.Pool of
// Config.Threads (Threads − 1 helper tokens; the submitting goroutine always
// works too) and builds every engine on it. Batch jobs, shard
// tiles, K-split slabs, BFS term jobs, row-split adds, the gemm ic loop and
// B̃ packing all call Pool.Run on that pool, whose one rule — no free token,
// run the jobs serially on the caller — is what bounds goroutines, for any
// mix and nesting of concurrent callers:
//
//	live compute goroutines ≤ callers + (Threads − 1) helpers,
//
// the MulAddAsync queue counting as at most Threads callers (its drainers).
//
// Win or abstain: plain GEMM is candidate zero of the family the model ranks
// (model.DefaultCandidates), priced by the model's own GEMM column, and its
// plan is the zero-level fmmexec.Plan — gemm.Context.MulAdd straight through.
// So below the kernel's break-even (model.BreakEvenSquare: ~148 on go4x4,
// ~1793 on avx2 at the paper's machine constants) the multiplier serves GEMM,
// bit-identical to the bare driver, and above it the fast plan the model
// ranks first. There is no size threshold and no second code path: the only
// thing deciding GEMM versus FMM is model.Rank on this multiplier's Arch, and
// every route to a plan abstains the same way — a direct call, each batch
// job, each shard tile and K-split slab (a sharded product whose tiles fall
// below the break-even is a tiled GEMM), each async job and coalesced wire
// request, and each autotune arm, where gemm is an arm like any other: it can
// be the incumbent with fast plans shadowing it, or the challenger.
//
// One plan cache, keyed by (shape class, width): a direct unsharded MulAdd
// runs its class's width-Threads plan (intra-GEMM fan-out, model-chosen
// traversal); shard tiles, K-split slabs, batch and async jobs run the
// width-1 plan, their parallelism being across jobs. The determinism
// contracts depend on which plan runs and on the fixed fold orders, never on
// who runs a job: batch and tile results do not depend on Threads, and a 2-D
// sharded result equals the sequential execution of its tiles on a Threads=1
// multiplier bit for bit.
//
// Serving behavior: problems at or above Config.ShardThreshold (with
// Threads ≥ 2) are split into independent block products — cutting the M×N
// output and, for K-dominant shapes with Config.ShardKSplit enabled, the
// inner dimension too; MulAddAsync submits work to a bounded queue and
// returns a Future; the plan cache is LRU-bounded by Config.PlanCacheCap.
type GenericMultiplier[E matrix.Element] struct {
	cfg  Config
	arch Arch

	// cfgErr is the construction-time validation result; every entry
	// point returns it so an invalid multiplier fails fast and uniformly.
	cfgErr error

	// With Config.Autotune set, plan-cache entries carry a bandit and its arm
	// plans, MulAdd times every call, and feedback holds the measured medians
	// promotions write back for selection (model.RankMeasured). foldScale is
	// the fitted traversal fold-cost scale (math.Float64bits; 0 = analytic),
	// written on promotions that cross traversal modes and read by
	// traversalFor.
	feedback  *model.Feedback
	foldScale atomic.Uint64

	pool  *sched.Pool // the one worker budget
	plans *planCache[E]

	// engines is the lazily filled table kernel name → the one gemm.Context
	// every plan of that backend executes on.
	engines struct {
		sync.Mutex
		m map[string]*gemm.Context[E]
	}

	// shardTuns holds the per-shape-class shard-grid tuners (the sharded
	// path has no plan-cache entry to hang a bandit off). Bounded by the
	// plan-cache cap: beyond it new shape classes serve untuned rather than
	// growing without bound.
	shardTuns struct {
		sync.Mutex
		m map[planKey]*shardTuner
	}

	// minTile is the lazily-computed shard tile floor (model break-even).
	minTileOnce sync.Once
	minTile     int

	async asyncQueue[E]
}

// Multiplier is the float64 multiplier — the historical public surface,
// source-compatible with every release since PR 1.
type Multiplier = GenericMultiplier[float64]

// Multiplier32 is the float32 multiplier: the same serving engine
// instantiated at single precision.
type Multiplier32 = GenericMultiplier[float32]

// archCache memoizes measured machine constants per (kernel, dtype) pair,
// process-wide: every multiplier constructed with calibration enabled for
// the same pair reuses one measurement (the probes cost ~100ms and allocate
// a bandwidth-sweep buffer, so per-construction measurement would make
// servers and tests pay repeatedly for identical numbers).
var archCache = struct {
	sync.Mutex
	m map[archKey]Arch
}{m: make(map[archKey]Arch)}

type archKey struct {
	kernel string
	dtype  matrix.Dtype
}

// calibrateProbe is the square GEMM size the opt-in construction-time
// calibration measures τa with: large enough that the five loops and packing
// run at steady state, small enough to keep NewMultiplier under ~100ms the
// first time a (kernel, dtype) pair is seen.
const calibrateProbe = 256

// calibratedArch returns the measured Arch for a validated cfg's (kernel,
// dtype) pair, measuring on first use and caching process-wide. The probe runs
// single-threaded regardless of cfg.Threads so τa stays a per-core constant,
// exactly as the paper's model defines it.
func calibratedArch[E matrix.Element](gcfg gemm.Config) (Arch, error) {
	key := archKey{kernel: gcfg.Kernel, dtype: matrix.DtypeOf[E]()}
	archCache.Lock()
	defer archCache.Unlock()
	if a, ok := archCache.m[key]; ok {
		return a, nil
	}
	gcfg.Threads = 1
	a, err := model.Calibrate[E](gcfg, calibrateProbe)
	if err != nil {
		return Arch{}, err
	}
	archCache.m[key] = a
	return a, nil
}

// NewGenericMultiplier returns a multiplier for element type E using the
// given blocking/threads and machine parameters for selection. An empty
// cfg.Kernel is resolved here, once, to the fastest backend registered for E
// (resolveConfig) and stored. The arch is
// re-priced for E (model.ArchForDtype — float32 halves the per-element
// bandwidth cost τb) and for cfg.Kernel's backend (model.ArchForKernel), so
// plan selection, the shard tile floor, and the shard grid score all price
// the (kernel, dtype) pair actually in use; an arch from model.Calibrate[E]
// with the same cfg.Kernel passes through unchanged. With Config.Calibrate
// set, the provided arch's τ constants are replaced by measured ones, cached
// process-wide per (kernel, dtype). An invalid cfg is reported by every entry
// point's first call (see Config.Validate).
func NewGenericMultiplier[E matrix.Element](cfg Config, arch Arch) *GenericMultiplier[E] {
	cfg, cfgErr := resolveConfig[E](cfg)
	if cfgErr == nil && cfg.Calibrate {
		if measured, err := calibratedArch[E](cfg.gemmConfig()); err == nil {
			arch = measured
		} else {
			cfgErr = err
		}
	}
	mu := &GenericMultiplier[E]{
		cfg:    cfg,
		arch:   model.ArchForKernel(model.ArchForDtype(arch, matrix.DtypeOf[E]()), cfg.Kernel),
		cfgErr: cfgErr,
		pool:   sched.NewPool(cfg.Threads),
		plans:  newPlanCache[E](cfg.planCacheCap()),
	}
	mu.engines.m = make(map[string]*gemm.Context[E])
	if cfg.Autotune {
		mu.feedback = model.NewFeedback()
	}
	return mu
}

// NewMultiplier returns a float64 Multiplier; see NewGenericMultiplier. Use
// PaperArch() when no calibration is available; relative rankings transfer
// well across machines.
func NewMultiplier(cfg Config, arch Arch) *Multiplier {
	return NewGenericMultiplier[float64](cfg, arch)
}

// NewMultiplier32 returns a float32 Multiplier32; see NewGenericMultiplier.
func NewMultiplier32(cfg Config, arch Arch) *Multiplier32 {
	return NewGenericMultiplier[float32](cfg, arch)
}

// checkMulDims validates C(m×n) += A(m×k)·B(k×n) dimensions.
func checkMulDims[E matrix.Element](c, a, b matrix.Mat[E]) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("fmmfam: dims C(%d×%d) += A(%d×%d)·B(%d×%d)",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

// MulAdd computes c += a·b, choosing and caching an implementation for the
// problem's shape class. Problems at or above the configured shard threshold
// are split into independent block products and scheduled across the worker
// pool instead of parallelizing one product's loops. Safe for concurrent
// callers.
func (mu *GenericMultiplier[E]) MulAdd(c, a, b matrix.Mat[E]) error {
	if mu.cfgErr != nil {
		return mu.cfgErr
	}
	return mu.mulAdd(c, a, b, mu.cfg.Threads)
}

// mulAdd is c += a·b at one plan width. MulAdd asks for Config.Threads: the
// problem may shard, and otherwise runs its class's full-width plan. Pool
// jobs (batch, shard tile, K-split slab, async) ask for 1: no re-sharding,
// and the plan a Threads=1 multiplier would run.
func (mu *GenericMultiplier[E]) mulAdd(c, a, b matrix.Mat[E], threads int) error {
	if err := checkMulDims(c, a, b); err != nil {
		return err
	}
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return nil
	}
	if threads > 1 {
		if spec, ok := mu.shardSpec(a.Rows, a.Cols, b.Cols); ok {
			if mu.cfg.Autotune {
				return mu.mulAddShardedTuned(spec, c, a, b)
			}
			return mu.mulAddSharded(spec, c, a, b)
		}
	}
	e, err := mu.entryFor(a.Rows, a.Cols, b.Cols, threads)
	if err != nil {
		return err
	}
	if e.tun != nil {
		return e.tun.mulAdd(mu, c, a, b)
	}
	e.p.MulAdd(c, a, b)
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

// MulAddBatch schedules the jobs on the multiplier's worker pool: jobs are
// handed out costliest-first (by classical flop count 2·m·k·n), each free
// worker claiming the next one, so mixed-size batches don't pay a straggler
// round. Batch contract: every job executes its shape class's width-1 plan — the
// parallelism is across jobs, not within one — so results and plan selection
// are identical whether the pool has one worker or many. Jobs must be
// independent (no C aliases another job's operands). It returns the join of
// all per-job errors; jobs after a failed one still run.
func (mu *GenericMultiplier[E]) MulAddBatch(jobs []GenericBatchJob[E]) error {
	if mu.cfgErr != nil {
		return mu.cfgErr
	}
	if len(jobs) == 0 {
		return nil
	}
	errs := make([]error, len(jobs))
	sjobs := make([]sched.Job, len(jobs))
	for i := range jobs {
		i := i
		j := jobs[i]
		sjobs[i] = sched.Job{
			Cost: 2 * int64(j.A.Rows) * int64(j.A.Cols) * int64(j.B.Cols),
			Run:  func() { errs[i] = mu.mulAdd(j.C, j.A, j.B, 1) },
		}
	}
	mu.pool.Run(sjobs)
	return errors.Join(errs...)
}

// shardMinTile resolves the shard tile floor: the configured override, or
// the model's fast-algorithm break-even for this multiplier's arch.
func (mu *GenericMultiplier[E]) shardMinTile() int {
	if mu.cfg.ShardMinTile > 0 {
		return mu.cfg.ShardMinTile
	}
	mu.minTileOnce.Do(func() {
		mu.minTile = model.BreakEvenSquare(mu.arch, defaultCandidates())
	})
	return mu.minTile
}

// shardSpec decides whether C(m×n) += A(m×k)·B(k×n) should be sharded and,
// if so, how. Sharding needs a pool to feed (Threads ≥ 2), a problem at or
// above the threshold — in m or n, or in k when K-split is enabled — and
// room for at least two tiles above the break-even floor. Candidate grids
// are scored with the performance model's makespan (model.ShardMakespan on
// this multiplier's arch), so the K dimension is split only when the slab
// products' smaller operand traffic pays for the reduction folds.
func (mu *GenericMultiplier[E]) shardSpec(m, k, n int) (shard.Spec, bool) {
	if mu.cfg.Threads < 2 {
		return shard.Spec{}, false
	}
	thr := mu.cfg.shardThreshold()
	kSplit := mu.cfg.shardKSplit()
	if thr == 0 || (m < thr && n < thr && (!kSplit || k < thr)) {
		return shard.Spec{}, false
	}
	return shard.Split(m, k, n, shard.Options{
		Workers: mu.cfg.Threads,
		MinTile: mu.shardMinTile(),
		KSplit:  kSplit,
		Cost: func(gm, gn, gk int) float64 {
			return model.ShardMakespan(mu.arch, m, k, n, gm, gn, gk, mu.cfg.Threads)
		},
	})
}

// kGroup is the per-output-tile state of a sharded execution: the C view the
// tile owns, the reduction buffers of slabs 1…GridK−1 (slab 0 accumulates
// straight into C, so a tile with K whole has none), and the count of slabs
// still running.
type kGroup[E matrix.Element] struct {
	c         matrix.Mat[E]
	bufs      []matrix.Mat[E]
	remaining atomic.Int32
}

// mulAddSharded executes a sharded MulAdd: every (tile, slab) pair is one
// scheduled job computing A[ti, p0:p1]·B[p0:p1, tj] on views of the operands
// with its width-1 plan. Slab 0 accumulates directly into the tile's C view;
// each later slab accumulates into a zeroed reduction buffer rented from the
// configured kernel's engine; and whichever worker finishes a tile's last slab
// folds that tile's buffers into C in ascending slab order. With K whole
// (GridK == 1) there is only slab 0: tiles write disjoint regions of C and
// nothing is folded, so the result is bit-identical to executing the tiles
// one after another, however the pool interleaves them. With K split the fold
// order is fixed, so repeated runs produce bit-identical C even though the
// schedule is not deterministic — the serving determinism contract for
// K-split.
func (mu *GenericMultiplier[E]) mulAddSharded(spec shard.Spec, c, a, b matrix.Mat[E]) error {
	tiles := spec.Tiles() // GridK consecutive slabs per output tile, ascending P
	groups := make([]kGroup[E], spec.GridM*spec.GridN)
	gk := len(tiles) / len(groups) // GridK, 1 when K is whole
	bufs := make([]matrix.Mat[E], len(groups)*(gk-1))
	var ctx *gemm.Context[E] // rents the reduction buffers; unused with K whole
	if gk > 1 {
		var err error
		if ctx, err = mu.engine("", 1); err != nil {
			return fmt.Errorf("%v: %w", spec, err)
		}
	}
	for gi := range groups {
		t0 := tiles[gi*gk]
		g := &groups[gi]
		g.c = c.View(t0.I, t0.J, t0.Rows, t0.Cols)
		g.bufs = bufs[gi*(gk-1) : (gi+1)*(gk-1)]
		for s := range g.bufs {
			g.bufs[s] = ctx.RentMat(t0.Rows, t0.Cols)
			g.bufs[s].Zero()
		}
		g.remaining.Store(int32(gk))
	}
	errs := make([]error, len(tiles))
	run := func(i int) {
		t, g := tiles[i], &groups[i/gk]
		cv := g.c
		if s := i % gk; s > 0 {
			cv = g.bufs[s-1]
		}
		errs[i] = mu.mulAdd(cv, a.View(t.I, t.P, t.Rows, t.Depth), b.View(t.P, t.J, t.Depth, t.Cols), 1)
		if g.remaining.Add(-1) == 0 {
			for _, buf := range g.bufs {
				g.c.AddScaled(1, buf)
			}
		}
	}
	sjobs := make([]sched.Job, len(tiles))
	for i, t := range tiles {
		sjobs[i] = sched.Job{
			Cost: int64(t.Rows) * int64(t.Cols) * int64(t.Depth),
			Run:  func() { run(i) },
		}
	}
	mu.pool.Run(sjobs)
	for _, buf := range bufs {
		ctx.ReturnMat(buf)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%v: %w", spec, err)
	}
	return nil
}

// engine returns the one gemm.Context plans of the given kernel backend
// (empty = the configured one) execute on, at the given width — the context
// itself at Config.Threads, its Serial() view at 1 — building it on the
// multiplier's pool on first use.
func (mu *GenericMultiplier[E]) engine(kern string, threads int) (*gemm.Context[E], error) {
	gcfg := mu.cfg.gemmConfig()
	if kern != "" {
		gcfg.Kernel = kern
	}
	mu.engines.Lock()
	defer mu.engines.Unlock()
	ctx := mu.engines.m[gcfg.Kernel]
	if ctx == nil {
		var err error
		if ctx, err = gemm.NewContextOn[E](gcfg, mu.pool); err != nil {
			return nil, err
		}
		mu.engines.m[gcfg.Kernel] = ctx
	}
	if threads == 1 {
		return ctx.Serial(), nil
	}
	return ctx, nil
}

// RentMat returns a rows×cols matrix with unspecified contents from the
// scratch list of the engine the multiplier's products run on — the one
// bounded store of buffers a multiplier keeps warm, shared with its plans'
// temporaries. It is how a front-end that builds operands and results per
// request (package serve) avoids a second pool: give the matrix back with
// ReturnMat once no product that reads or writes it can still be running. A
// matrix that is never returned is simply collected.
func (mu *GenericMultiplier[E]) RentMat(rows, cols int) matrix.Mat[E] {
	ctx, err := mu.engine("", 1)
	if err != nil { // invalid Config: every product fails with it; nothing to pool
		return matrix.New[E](rows, cols)
	}
	return ctx.RentMat(rows, cols)
}

// ReturnMat gives a RentMat matrix back; the caller must not use it after.
func (mu *GenericMultiplier[E]) ReturnMat(m matrix.Mat[E]) {
	if ctx, err := mu.engine("", 1); err == nil {
		ctx.ReturnMat(m)
	}
}

// PlanFor exposes the plan a direct, unsharded MulAdd would use for a problem
// size (useful for inspection and testing).
func (mu *GenericMultiplier[E]) PlanFor(m, k, n int) (*fmmexec.Plan[E], error) {
	e, err := mu.entryFor(m, k, n, mu.cfg.Threads)
	if err != nil {
		return nil, err
	}
	return e.p, nil
}

// Explanation is what a multiplier does with one product and what it priced
// to decide: MulAdd's decisions without the multiplication.
type Explanation struct {
	// Kernel is the backend the engine runs on (Stats().Kernel).
	Kernel string
	// Arch holds the machine constants the selector prices with: the
	// constructor's arch re-priced for the element type and Kernel, or the
	// calibrated one.
	Arch Arch
	// MinTile is the shard tile floor: Config.ShardMinTile, or the model's
	// FMM break-even on Arch.
	MinTile int
	// GridM×GridN×GridK is the shard grid (M×N×K); all zero when the product
	// is served whole.
	GridM, GridN, GridK int
	// M, K, N and Threads are the shape and width a plan is chosen for: the
	// product at Config.Threads, or its largest shard tile at width 1.
	M, K, N, Threads int
	// Plan names the plan serving that shape; Traversal is its per-level term
	// traversal, empty for the serial term loop.
	Plan      string
	Traversal string
}

// Explain reports what MulAdd would do with an m×k×n product, without
// multiplying: it asks the same shardSpec and entryFor the call asks, so it
// fills the plan cache exactly as the call would. With Autotune set the grid
// and plan are the model's picks the tuners start from (Stats has where they
// have moved since).
func (mu *GenericMultiplier[E]) Explain(m, k, n int) (Explanation, error) {
	if mu.cfgErr != nil {
		return Explanation{}, mu.cfgErr
	}
	ex := Explanation{Kernel: mu.cfg.Kernel, Arch: mu.arch, MinTile: mu.shardMinTile(),
		M: m, K: k, N: n, Threads: mu.cfg.Threads}
	if spec, ok := mu.shardSpec(m, k, n); ok {
		t := spec.Tiles()[0]
		ex.GridM, ex.GridN, ex.GridK = spec.GridM, spec.GridN, max(spec.GridK, 1)
		ex.M, ex.K, ex.N, ex.Threads = t.Rows, t.Depth, t.Cols, 1
	}
	e, err := mu.entryFor(ex.M, ex.K, ex.N, ex.Threads)
	if err != nil {
		return Explanation{}, err
	}
	ex.Plan = e.p.String()
	if tr := e.p.Traversal(); len(tr) > 0 {
		ex.Traversal = fmt.Sprint(tr)
	}
	return ex, nil
}

// entryFor returns the cached plan-cache entry for a problem's shape class
// at the given width, building it on first use: the model-selected plan,
// plus — when autotuning is on — the shape class's bandit and its challenger
// arm plans.
func (mu *GenericMultiplier[E]) entryFor(m, k, n, threads int) (*planEntry[E], error) {
	key := shapeClass(m, k, n, threads)
	if e, ok := mu.plans.get(key); ok {
		return e, nil
	}
	if mu.cfg.Autotune {
		tun, err := mu.newPlanTuner(key, m, k, n)
		if err != nil {
			return nil, err
		}
		return mu.plans.add(key, &planEntry[E]{p: tun.arms[tun.tuner.Incumbent()].plan, tun: tun}), nil
	}
	cand := Recommend(mu.arch, m, k, n)
	_, arm, err := mu.buildArm(cand, mu.traversalFor(cand, m, k, n, threads), "", threads)
	if err != nil {
		return nil, err
	}
	return mu.plans.add(key, &planEntry[E]{p: arm.plan}), nil
}

// traversalFor resolves a plan's per-level term traversal: forced modes map
// directly (nil steps for "dfs", all-BFS for "bfs"), and "auto" asks the
// performance model (model.TraversalPlan) with the shape-class bucket sizes —
// the same bucketing that keys the plan cache, so a cached plan's traversal
// is a stable property of its shape class rather than of whichever concrete
// size happened to construct it first. At width 1 auto always resolves to
// nil, so batch, sharded, and async jobs keep the serial term loop —
// intra-plan fan-out composes with, never multiplies, cross-job parallelism.
func (mu *GenericMultiplier[E]) traversalFor(cand Candidate, m, k, n, threads int) []fmmexec.Step {
	switch mu.cfg.Traversal {
	case TraversalDFS:
		return nil
	case TraversalBFS:
		return forcedSteps(TraversalBFS, len(cand.Levels))
	}
	return model.TraversalPlanScaled(mu.arch, cand.Variant, bucket(m), bucket(k), bucket(n), cand.Levels, threads, mu.foldScaleVal())
}

// foldScaleVal reads the fitted traversal fold-cost scale: 1 (the analytic
// model) until an autotune promotion crossing traversal modes fits one.
func (mu *GenericMultiplier[E]) foldScaleVal() float64 {
	if bits := mu.foldScale.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return 1
}

// CachedPlans reports how many plans are cached, over both widths (a shape
// class served both directly and through pool jobs counts twice).
func (mu *GenericMultiplier[E]) CachedPlans() int { return mu.plans.len() }

// planCache is the multiplier's bounded plan cache: a map guarded by an
// RWMutex for the hot read path, with least-recently-used eviction driven by
// per-entry atomic timestamps so cache hits never take the write lock.
type planCache[E matrix.Element] struct {
	cap  int // ≤0 means unbounded
	tick atomic.Int64

	mu sync.RWMutex
	m  map[planKey]*planEntry[E]
}

// planEntry is one cached shape class: the plan untuned serving executes,
// and — when autotuning — the bandit plus its arm plans (tun non-nil; tun's
// incumbent arm and p start out the same plan, and p stays the construction-
// time pick for PlanFor inspection while the tuner's incumbent may move).
type planEntry[E matrix.Element] struct {
	p    *fmmexec.Plan[E]
	tun  *planTuner[E]
	last atomic.Int64 // logical timestamp of the most recent use
}

func newPlanCache[E matrix.Element](cap int) *planCache[E] {
	return &planCache[E]{cap: cap, m: make(map[planKey]*planEntry[E])}
}

func (pc *planCache[E]) get(key planKey) (*planEntry[E], bool) {
	pc.mu.RLock()
	e := pc.m[key]
	pc.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	e.last.Store(pc.tick.Add(1))
	return e, true
}

// add inserts e under key unless another caller won the race, in which case
// the incumbent entry is returned — callers of the same shape class always
// share one plan (and one tuner). When the cache is over capacity the
// least-recently-used entry is evicted.
func (pc *planCache[E]) add(key planKey, e *planEntry[E]) *planEntry[E] {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if have, ok := pc.m[key]; ok {
		have.last.Store(pc.tick.Add(1))
		return have
	}
	e.last.Store(pc.tick.Add(1))
	pc.m[key] = e
	if pc.cap > 0 {
		for len(pc.m) > pc.cap {
			var oldestKey planKey
			oldest := int64(1<<63 - 1)
			for k, v := range pc.m {
				if last := v.last.Load(); last < oldest {
					oldest, oldestKey = last, k
				}
			}
			delete(pc.m, oldestKey)
		}
	}
	return e
}

// entries returns a point-in-time copy of the cache's (key, entry) pairs.
func (pc *planCache[E]) entries() map[planKey]*planEntry[E] {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	out := make(map[planKey]*planEntry[E], len(pc.m))
	for k, v := range pc.m {
		out[k] = v
	}
	return out
}

func (pc *planCache[E]) len() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.m)
}

// planKey identifies one cached plan: a shape class — each dimension rounded
// up to its power-of-two bucket, so nearby sizes share a plan (the model's
// selection is stable well beyond this granularity) — and the gemm thread
// count the plan was built for (1 or Config.Threads).
type planKey struct{ bm, bk, bn, threads int }

func shapeClass(m, k, n, threads int) planKey {
	return planKey{bucket(m), bucket(k), bucket(n), threads}
}

// String names the shape class alone ("m/k/n"): the key model.Feedback and
// ShapeTuning.Shape use, shared by a class's two widths.
func (k planKey) String() string {
	return fmt.Sprintf("%d/%d/%d", k.bm, k.bk, k.bn)
}

func bucket(x int) int {
	b := 1
	for b < x {
		b <<= 1
	}
	return b
}

// defaultCandidates avoids re-enumerating candidates on every planFor call.
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
// calls hit the plan cache instead of rebuilding a plan per call — and built
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
