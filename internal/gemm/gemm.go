// Package gemm implements the GotoBLAS/BLIS five-loop matrix multiplication
// driver of Figure 1 (left) of the paper over the micro-kernel and packing
// routines of internal/kernel — generalized, as in Figure 1 (right), to the
// fused operation
//
//	M := (Σ u_t·A_t)·(Σ v_t·B_t);   C_t += w_t·M  for every C-side term,
//
// which is the building block every generated FMM variant is assembled from.
// Plain GEMM is the degenerate single-term call, so the baseline and all FMM
// implementations share packing and kernel code exactly as in the paper.
//
// The driver is generic over the element type: Context[float64] is the
// historical bit-stable engine, Context[float32] runs the same five loops
// over float32 panels with half the memory traffic. Each instantiation is
// fully specialized — there is no boxing or dynamic dtype dispatch on the
// hot path.
//
// Parallelism mirrors the paper (§5.1): on a context of Threads > 1 the
// third loop around the micro-kernel (the ic loop over mC-sized row panels of
// A) and the packing of B̃ are divided into jobs on a sched.Pool, the Go
// analogue of the OpenMP data parallelism of [20] — the pool the context was
// built on (NewContextOn) or a private one. Only directly built contexts and
// plans take this branch (the paper's Figures 9–10, GEMM baselines): a
// Multiplier builds its one context at Threads = 1 on its pool, and gets its
// parallelism across independent width-1 products instead.
//
// Concurrency contract: a Context is safe for unlimited concurrent callers,
// and it is the only owner of mutable memory in the execution layers. It
// holds two bounded free lists — packing Workspaces (the Ã/B̃ buffers, rented
// per call) and raw scratch matrices (RentMat/ReturnMat: the FMM executor's
// variant temporaries, the Multiplier's K-split reduction buffers) — and
// everything built on it (plans, the Multiplier) is a pure description. See
// Context for the resulting retained-memory bound.
//
// Successor hint: a renter that knows which product it runs next (a batch
// worker that claimed its next job ahead) names that product's operands on
// its Workspace with SetNext. The next width-1 call on the workspace then
// spreads their cache lines evenly over its own micro-kernel calls — ⌈lines ÷
// calls⌉ prefetched after each MicroScatter in macroKernel — so the
// successor's cold operand traffic hides under this call's compute instead of
// stalling its own packing. Wide calls ignore the hint (their worker slots
// share no cursor), a successor over prefetchBudget bytes gets none, and
// prefetching never enters the arithmetic: bits are unchanged. PutWorkspace
// clears the hint.
package gemm

import (
	"fmt"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/sched"
)

// Term re-exports kernel.Term: one weighted operand of a fused combination.
type Term[E matrix.Element] = kernel.Term[E]

// SingleTerm wraps a matrix as the trivial combination 1.0·M.
func SingleTerm[E matrix.Element](m matrix.Mat[E]) []Term[E] { return kernel.SingleTerm(m) }

// Config carries the cache blocking parameters {mC, kC, nC} of Figure 1, the
// worker count, and the micro-kernel backend selection. The defaults suit the
// pure-Go micro-kernel: Ã(mC×kC) ≈ 192 KiB target L2 residency, B̃(kC×nC)
// sized for L3, as in §5.1. The blocking is expressed in elements, so one
// Config serves both dtypes (a float32 context simply fits twice the
// elements per cache byte).
type Config struct {
	MC, KC, NC int
	Threads    int

	// Kernel selects the registered micro-kernel backend by name; empty means
	// kernel.DefaultBackend. The blocking must satisfy the backend's tile
	// shape: MC ≥ MR, NC ≥ NR.
	Kernel string
}

// DefaultConfig returns the blocking used throughout the experiments.
func DefaultConfig() Config {
	return Config{MC: 96, KC: 256, NC: 2048, Threads: 1}
}

// ValidateFor checks the driver-facing configuration against the backends
// registered for element type E: the kernel backend must be registered,
// Threads ≥ 1, and the blocking must fit the backend's micro-tile (MC ≥ MR,
// KC ≥ 1, NC ≥ NR). It is the single source of these rules; the top-level
// fmmfam.Config.Validate delegates here.
func ValidateFor[E matrix.Element](c Config) error {
	_, err := resolveBackend[E](c)
	return err
}

// resolveBackend validates c and returns its micro-kernel backend for
// element type E, so construction paths resolve the registry exactly once.
func resolveBackend[E matrix.Element](c Config) (kernel.Backend[E], error) {
	bk, err := kernel.Resolve[E](c.Kernel)
	if err != nil {
		return nil, fmt.Errorf("gemm: %w", err)
	}
	if c.Threads < 1 {
		return nil, fmt.Errorf("gemm: Threads=%d, need ≥ 1", c.Threads)
	}
	if c.MC < bk.MR() || c.KC < 1 || c.NC < bk.NR() {
		return nil, fmt.Errorf("gemm: blocking MC=%d KC=%d NC=%d too small for kernel %s (needs MC ≥ %d, KC ≥ 1, NC ≥ %d)",
			c.MC, c.KC, c.NC, bk.Name(), bk.MR(), bk.NR())
	}
	return bk, nil
}

// Context is the kernel driver for one element type: a validated Config, its
// micro-kernel backend, the worker pool it fans out on, and the two bounded
// free lists that are all the mutable memory of the execution layers —
// packing Workspaces and scratch matrices. It is safe for any number of
// concurrent callers — every MulAdd/FusedMulAdd rents a Workspace for the
// duration of the call, so calls never share mutable state — and each call
// additionally exploits parallelism internally (Config.Threads workers).
//
// Retained-memory invariant: an idle Context keeps at most maxRetainedFloats elements of workspaces plus
// maxRetainedFloats elements of scratch, however many plans were built on it
// and however many shapes they served; rents beyond that are allocated and
// left to the GC.
type Context[E matrix.Element] struct {
	cfg Config
	bk  kernel.Backend[E]
	// sp is the worker budget packing and the ic loop fan out on: the pool
	// the context was built on, or a private one of Threads. All goroutine
	// fan-out rides internal/sched (the detorder analyzer enforces this): the
	// pool's non-blocking token budget keeps concurrent callers from
	// oversubscribing the machine, and nested calls degrade to serial instead
	// of deadlocking.
	sp *sched.Pool

	// pool holds workspaces sized for Threads workers, as many as sp's
	// workers may rent at once; scratch backs RentMat.
	pool    *workspacePool[E]
	scratch *scratch[E]
}

// NewContext validates cfg, resolves its micro-kernel backend for element
// type E, and prepares the workspace pool (one workspace per call the pool
// can run at once is pre-allocated; see NewContextOn).
func NewContext[E matrix.Element](cfg Config) (*Context[E], error) {
	return NewContextOn[E](cfg, nil)
}

// NewContextOn is NewContext on a caller-owned worker pool, so that every
// context (and plan) built on one pool shares one goroutine budget;
// cfg.Threads still sizes this context's fan-out (jobs per call, Ã buffers
// per workspace), and the pool's worker count its workspace free list. It
// pre-allocates one workspace per call of cfg.Threads workers the pool can
// run at once — Workers/Threads, at least one, at most what the free list
// retains — so no call pays for a workspace until more calls overlap than
// that: a Threads = 1 context on a pool of W keeps W warm, one per
// concurrent width-1 job. A nil pool means a private one of cfg.Threads.
func NewContextOn[E matrix.Element](cfg Config, pool *sched.Pool) (*Context[E], error) {
	bk, err := resolveBackend[E](cfg)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		pool = sched.NewPool(cfg.Threads)
	}
	ctx := &Context[E]{cfg: cfg, bk: bk, sp: pool, pool: newWorkspacePool[E](cfg, bk, pool.Workers()), scratch: new(scratch[E])}
	for range max(min(pool.Workers()/cfg.Threads, cap(ctx.pool.free)), 1) {
		ctx.pool.put(ctx.pool.alloc())
	}
	return ctx, nil
}

// MustNewContext is NewContext for known-good configs.
func MustNewContext[E matrix.Element](cfg Config) *Context[E] {
	ctx, err := NewContext[E](cfg)
	if err != nil {
		panic(err)
	}
	return ctx
}

// Config returns the context's configuration.
func (ctx *Context[E]) Config() Config { return ctx.cfg }

// Backend returns the micro-kernel backend the context drives.
func (ctx *Context[E]) Backend() kernel.Backend[E] { return ctx.bk }

// Pool returns the worker pool the context fans out on.
func (ctx *Context[E]) Pool() *sched.Pool { return ctx.sp }

// RentMat returns a rows×cols scratch matrix with unspecified contents from
// the context's bounded free list, allocating when no
// pooled buffer fits. Return it with ReturnMat.
func (ctx *Context[E]) RentMat(rows, cols int) matrix.Mat[E] {
	return matrix.Mat[E]{Rows: rows, Cols: cols, Stride: cols, Data: ctx.scratch.rent(rows * cols)}
}

// ReturnMat gives a RentMat matrix back; the caller must not use it after.
func (ctx *Context[E]) ReturnMat(m matrix.Mat[E]) { ctx.scratch.put(m.Data) }

// ScratchHeld reports how many idle buffers, of how many elements in total,
// the scratch list retains right now (observability; the total never exceeds
// the retained-memory invariant above).
func (ctx *Context[E]) ScratchHeld() (buffers, elements int) {
	s := ctx.scratch
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.free {
		buffers += len(l)
	}
	return buffers, s.held
}

// MulAdd computes c += a·b (plain GEMM through the fused path). Safe for
// concurrent callers, and allocation-free once the workspace pool is warm.
func (ctx *Context[E]) MulAdd(c, a, b matrix.Mat[E]) {
	ctx.MulAddNext(c, a, b, Operands[E]{})
}

// MulAddNext is MulAdd for a caller that multiplies next's operands after
// it: the rented workspace carries next as its successor hint (SetNext).
func (ctx *Context[E]) MulAddNext(c, a, b matrix.Mat[E], next Operands[E]) {
	ws := ctx.pool.get()
	defer ctx.pool.put(ws)
	ws.SetNext(next)
	ctx.MulAddWS(ws, c, a, b)
}

// MulAddWS is MulAdd with a caller-managed Workspace; see FusedMulAddWS. The
// three single-term operand lists live in the workspace, not on the heap.
func (ctx *Context[E]) MulAddWS(ws *Workspace[E], c, a, b matrix.Mat[E]) {
	ws.single = [3]Term[E]{{Coef: 1, M: c}, {Coef: 1, M: a}, {Coef: 1, M: b}}
	ctx.FusedMulAddWS(ws, ws.single[0:1], ws.single[1:2], ws.single[2:3])
}

// GetWorkspace rents a workspace from the context's pool; return it with
// PutWorkspace. Callers issuing many back-to-back operations (e.g. the FMM
// executor's per-term loop) rent once and use the *WS entry points so the
// pool is not hit once per operation.
func (ctx *Context[E]) GetWorkspace() *Workspace[E] { return ctx.pool.get() }

// PutWorkspace returns a rented workspace to the pool.
func (ctx *Context[E]) PutWorkspace(ws *Workspace[E]) { ctx.pool.put(ws) }

// FusedMulAdd executes the generalized operation. All A-side terms must have
// equal dimensions m×k, B-side k×n, C-side m×n. Safe for concurrent callers.
func (ctx *Context[E]) FusedMulAdd(cTerms, aTerms, bTerms []Term[E]) {
	ws := ctx.pool.get()
	defer ctx.pool.put(ws)
	ctx.FusedMulAddWS(ws, cTerms, aTerms, bTerms)
}

// FusedMulAddWS is FusedMulAdd with a caller-managed Workspace (see
// GetWorkspace). The workspace must have been rented from this context and
// must not be used by another call concurrently. On a
// width-1 context the call spends the workspace's successor hint (SetNext),
// if any, under its micro-kernel calls.
func (ctx *Context[E]) FusedMulAddWS(ws *Workspace[E], cTerms, aTerms, bTerms []Term[E]) {
	m, k := dims(aTerms, "A")
	k2, n := dims(bTerms, "B")
	mc, nc2 := dims(cTerms, "C")
	if k != k2 || m != mc || n != nc2 {
		panic(fmt.Sprintf("gemm: fused dims C(%d×%d) += A(%d×%d)·B(%d×%d)", mc, nc2, m, k, k2, n))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	cfg := ctx.cfg
	if cfg.Threads == 1 {
		ws.next.arm(m, k, n, cfg.KC, ctx.bk.MR(), ctx.bk.NR())
	}
	for jc := 0; jc < n; jc += cfg.NC {
		ncur := min(cfg.NC, n-jc)
		for pc := 0; pc < k; pc += cfg.KC {
			kcur := min(cfg.KC, k-pc)
			ctx.packB(ws, bTerms, pc, jc, kcur, ncur)
			ctx.icLoop(ws, cTerms, aTerms, pc, jc, m, kcur, ncur)
		}
	}
	ws.next.step = 0
}

// packB fills the B̃ buffer, splitting the column-panel range across workers
// when parallel (packing is memory-bound and, for FMM term lists, a large
// serial fraction otherwise — BLIS likewise packs in parallel).
//
//fmm:hotpath
func (ctx *Context[E]) packB(ws *Workspace[E], bTerms []Term[E], pc, jc, kcur, ncur int) {
	nr := ctx.bk.NR()
	panels := (ncur + nr - 1) / nr
	workers := min(ctx.cfg.Threads, panels)
	if workers <= 1 {
		ctx.bk.PackB(ws.bbuf, bTerms, pc, jc, kcur, ncur)
		return
	}
	// One job per panel chunk, run on the context's sched.Pool (the caller
	// participates, helpers join as the shared budget allows). Chunks write
	// disjoint B̃ panel ranges, so the packed buffer is bit-identical under
	// any schedule. The jobs are the workspace's own, bound to its worker
	// slots when it was built: only this block's values are written here.
	ws.call = blockCall[E]{ctx: ctx, bTerms: bTerms, pc: pc, jc: jc, kcur: kcur, ncur: ncur}
	chunk := (panels + workers - 1) / workers
	n := 0
	for lo := 0; lo < panels; lo += chunk {
		hi := min(lo+chunk, panels)
		ws.slots[n].lo, ws.slots[n].hi = lo, hi
		ws.packJobs[n].Cost = int64(hi-lo) * int64(kcur)
		n++
	}
	ctx.sp.Run(ws.packJobs[:n])
}

// icLoop runs the third loop around the micro-kernel, parallelized over
// mC-sized row panels.
//
//fmm:hotpath
func (ctx *Context[E]) icLoop(ws *Workspace[E], cTerms, aTerms []Term[E], pc, jc, m, kcur, ncur int) {
	cfg := ctx.cfg
	nBlocks := (m + cfg.MC - 1) / cfg.MC
	workers := min(cfg.Threads, nBlocks)
	if workers <= 1 {
		for ic := 0; ic < m; ic += cfg.MC {
			ctx.macroKernel(ws, ws.abufs[0], ws.accs[0], cTerms, aTerms, ic, pc, jc, min(cfg.MC, m-ic), kcur, ncur)
		}
		return
	}
	// One job per worker slot on the context's sched.Pool: job w exclusively
	// owns Ã buffer and accumulator w (each job runs exactly once, so no two
	// goroutines ever share a buffer), and a shared atomic counter deals out
	// MC row-blocks dynamically. Blocks write disjoint C row panels, so C is
	// bit-identical under any schedule. As in packB the jobs are the
	// workspace's own; they all carry one cost, so the pool skips its sort.
	ws.call = blockCall[E]{ctx: ctx, cTerms: cTerms, aTerms: aTerms, pc: pc, jc: jc, m: m, kcur: kcur, ncur: ncur, nBlocks: nBlocks}
	ws.nextBlock.Store(0)
	jobCost := int64(nBlocks/workers+1) * int64(cfg.MC) * int64(kcur)
	for w := 0; w < workers; w++ {
		ws.icJobs[w].Cost = jobCost
	}
	ctx.sp.Run(ws.icJobs[:workers])
}

// macroKernel packs one Ã block and sweeps the second and first loops around
// the micro-kernel: one fused Backend.MicroScatter call per tile computes the
// rank-kc product and adds it, weighted, into every C-side term — from the
// registers where the backend can (Figure 1, right: "update multiple
// submatrices of C"), fringe tiles included on avx2, and through the
// worker's acc tile where a backend does not (go4x4, avx512's fringes,
// C-term lists over kernel.MaxFusedTerms). abuf and acc are the calling
// worker's private Ã buffer and accumulator tile. It is the
// one inner loop of the driver: every backend, the default included, is
// reached through the kernel.Backend interface here and nowhere else, with
// no per-backend branch. An armed width-1 call (FusedMulAddWS) prefetches the
// next step of its successor hint after every micro-kernel call, so the
// successor's cold operand traffic hides under this call's compute.
//
//fmm:hotpath
func (ctx *Context[E]) macroKernel(ws *Workspace[E], abuf, acc []E, cTerms, aTerms []Term[E], ic, pc, jc, mcur, kcur, ncur int) {
	bk := ctx.bk
	mrk, nrk := bk.MR(), bk.NR()
	bk.PackA(abuf, aTerms, ic, pc, mcur, kcur)
	for jr := 0; jr < ncur; jr += nrk {
		nr := min(nrk, ncur-jr)
		bp := ws.bbuf[(jr/nrk)*kcur*nrk:]
		for ir := 0; ir < mcur; ir += mrk {
			mr := min(mrk, mcur-ir)
			ap := abuf[(ir/mrk)*mrk*kcur:]
			bk.MicroScatter(kcur, ap, bp, acc, cTerms, ic+ir, jc+jr, mr, nr)
			if ws.next.step > 0 {
				ws.next.advance()
			}
		}
	}
}

func dims[E matrix.Element](terms []Term[E], side string) (r, c int) {
	if len(terms) == 0 {
		panic("gemm: empty " + side + " term list")
	}
	r, c = terms[0].M.Rows, terms[0].M.Cols
	for _, t := range terms[1:] {
		if t.M.Rows != r || t.M.Cols != c {
			panic(fmt.Sprintf("gemm: ragged %s terms: %d×%d vs %d×%d", side, t.M.Rows, t.M.Cols, r, c))
		}
	}
	return r, c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
