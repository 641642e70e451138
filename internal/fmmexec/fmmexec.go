// Package fmmexec executes fast matrix multiplication plans: a multi-level
// ⟦U,V,W⟧ algorithm (composed with Kronecker products per §3.4–3.5 of the
// paper) evaluated iteratively in one of the paper's three implementation
// variants (§4.1):
//
//	Naive — explicit temporaries for ΣuᵢAᵢ, ΣvⱼBⱼ and the product Mr around
//	        a black-box GEMM (this is also how the reference implementations
//	        of Benson–Ballard [1] are structured);
//	AB    — the operand sums are fused into the packing of Ã and B̃, but Mr
//	        is still formed explicitly and then scattered into C;
//	ABC   — AB plus the fused micro-kernel that adds each register tile of
//	        Mr directly into every target submatrix of C (no temporaries).
//
// Plans are generic over the element type: Plan[float64] is the historical
// bit-stable executor, Plan[float32] evaluates the same ⟦U,V,W⟧ (whose
// coefficients are small exact rationals, so the float64→float32 coefficient
// conversion is exact for every generated algorithm) over float32 operands.
//
// Matrix sizes that are not multiples of the composite partition are handled
// by dynamic peeling [16]: the divisible core runs the FMM, the fringes run
// plain GEMM through the same driver, requiring no extra workspace.
//
// # Traversal
//
// A plan's R multiplication terms are independent, and a plan may execute
// them in two ways per recursion level (the BFS/DFS hybrid of Benson &
// Ballard, "A Framework for Practical Parallel Fast Matrix Multiplication"):
//
//	DFS — terms run in sequence on the calling goroutine, each term's GEMM
//	      parallelized internally across the configured workers (the
//	      historical behavior, and the bit-stable reference path);
//	BFS — the level's independent sub-products fan out across the worker
//	      pool, each term job running single-threaded with its own rented
//	      workspace, and the results fold into C in fixed ascending term
//	      order through reduction buffers.
//
// NewPlanTraversal takes one Step per level (BFS levels must form a prefix —
// the iterative executor fans contiguous flat-term chunks); NewPlan keeps
// the all-DFS default. For the Naive and AB variants the BFS fold replays
// the serial path's per-element addition order exactly, so BFS results are
// bit-identical to DFS; the ABC variant accumulates per-chunk C shadows and
// is run-to-run deterministic (fixed chunking and fold order) but not
// bit-identical to its DFS ordering.
package fmmexec

import (
	"fmt"
	"sync"

	"fmmfam/internal/core"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
	"fmmfam/internal/sched"
)

// Variant selects the implementation style of §4.1.
type Variant int

// The three generated-implementation variants of the paper.
const (
	Naive Variant = iota
	AB
	ABC
)

func (v Variant) String() string {
	switch v {
	case Naive:
		return "Naive"
	case AB:
		return "AB"
	case ABC:
		return "ABC"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all three for sweeps.
var Variants = []Variant{Naive, AB, ABC}

// Step is one recursion level's traversal choice: DFS runs the level's terms
// in sequence with intra-GEMM threading, BFS fans them across the worker
// pool. The zero value is DFS, so a nil or zero-filled traversal reproduces
// the historical serial term loop.
type Step int

// The two traversal steps.
const (
	DFS Step = iota
	BFS
)

func (s Step) String() string {
	switch s {
	case DFS:
		return "dfs"
	case BFS:
		return "bfs"
	}
	return fmt.Sprintf("Step(%d)", int(s))
}

type coefIdx struct {
	idx  int
	coef float64
}

// Plan is a ready-to-run FMM implementation for one element type: per-level
// algorithms composed into a flat algorithm, a variant, a per-level
// traversal, and the precomputed non-zero column lists of ⟦U,V,W⟧. Create
// with NewPlan (all-DFS) or NewPlanTraversal.
//
// Concurrency contract: a Plan is immutable after construction and safe for
// unlimited concurrent callers. The mutable scratch of the Naive and AB
// variants (operand sums and the explicit product Mr) is rented per call
// from a pool keyed by problem shape, the underlying gemm.Context rents
// its packing workspaces the same way, and BFS term jobs rent per-term
// reduction buffers from a bounded pool, so concurrent MulAdd calls never
// share state. Each call additionally parallelizes internally — across the
// configured worker count inside one term's GEMM (DFS levels) and across
// terms (BFS levels) — with all in-call parallelism (term jobs, row-split
// adds, the gemm contexts' ic loop and packing) drawing helpers from the one
// sched.Pool the plan was built on (NewPlanOn), or a private one of Threads.
type Plan[E matrix.Element] struct {
	Levels  []core.Algorithm
	Flat    core.Algorithm
	Variant Variant

	ctx *gemm.Context[E]

	// traversal holds one Step per level (outermost first); fanout is the
	// product of the BFS-prefix levels' ranks — the number of independent
	// term chunks a mulCore fans across the pool (1 = pure DFS).
	traversal []Step
	fanout    int

	// serialCtx is the Threads=1 context BFS term jobs execute in, on ctx's
	// pool: cross-term parallelism comes from the pool, so each term runs
	// single-threaded with its own rented workspace (the workspace pool's
	// span is provisioned for the fan-out). nil when fanout == 1.
	serialCtx *gemm.Context[E]

	uCols, vCols, wCols [][]coefIdx

	// states maps stateKey → *sync.Pool of *execState[E]: per-call scratch
	// for the Naive and AB variants, keyed by block shape so a pooled state's
	// backing arrays always fit exactly and mixed-shape callers do not
	// thrash one another's buffers.
	states sync.Map

	// termBufs is the bounded free list of BFS reduction buffers (per-term
	// Mr products for Naive/AB, per-chunk C shadows for ABC), rented like
	// gemm workspaces: get falls back to allocating, put drops when the pool
	// is full or the buffer exceeds maxRetainedTermBufFloats, so steady-state
	// BFS calls allocate nothing while idle retained memory stays capped.
	// nil when fanout == 1.
	termBufs chan []E
}

// execState is the mutable per-call scratch of one plan execution: the
// explicit operand sums ΣuᵢAᵢ, ΣvⱼBⱼ and the product temporary Mr of the
// Naive and AB variants, plus the per-term gemm.Term lists all variants
// assemble on the hot path (hoisted here so steady-state calls build them
// with zero allocations).
type execState[E matrix.Element] struct {
	asum, bsum, mtmp       matrix.Mat[E]
	aTerms, bTerms, cTerms []gemm.Term[E]
}

// clearTerms zeroes and truncates the term lists before the state returns to
// its pool: the entries hold views of the caller's matrices, which a pooled
// state must not pin past the call.
func (st *execState[E]) clearTerms() {
	for i := range st.aTerms {
		st.aTerms[i] = gemm.Term[E]{}
	}
	for i := range st.bTerms {
		st.bTerms[i] = gemm.Term[E]{}
	}
	for i := range st.cTerms {
		st.cTerms[i] = gemm.Term[E]{}
	}
	st.aTerms, st.bTerms, st.cTerms = st.aTerms[:0], st.bTerms[:0], st.cTerms[:0]
}

// stateKey identifies the submatrix-block shape (sm×sk)·(sk×sn) an execState
// was sized for.
type stateKey struct{ sm, sk, sn int }

// stateFor rents an execState for block shape (sm, sk, sn); release clears
// the term lists and returns it to the shape's pool.
func (p *Plan[E]) stateFor(sm, sk, sn int) (st *execState[E], release func()) {
	key := stateKey{sm, sk, sn}
	v, ok := p.states.Load(key)
	if !ok {
		v, _ = p.states.LoadOrStore(key, &sync.Pool{New: func() any { return new(execState[E]) }})
	}
	pool := v.(*sync.Pool)
	st = pool.Get().(*execState[E])
	return st, func() {
		st.clearTerms()
		pool.Put(st)
	}
}

// NewPlan composes the given per-level algorithms (outermost first) into an
// executable plan with the all-DFS traversal (the historical serial term
// loop). Every level must verify; at least one level is required.
func NewPlan[E matrix.Element](cfg gemm.Config, variant Variant, levels ...core.Algorithm) (*Plan[E], error) {
	return NewPlanTraversal[E](cfg, variant, nil, levels...)
}

// NewPlanTraversal is NewPlan with an explicit per-level traversal: one Step
// per level, outermost first (nil means all-DFS). BFS levels must form a
// prefix — the iterative executor fans the flat term list in contiguous
// chunks, which corresponds to fanning the outermost levels. The fan-out
// (product of BFS levels' ranks) determines how many term jobs one MulAdd
// submits to its worker pool; model.TraversalPlan chooses a traversal from
// the performance model.
func NewPlanTraversal[E matrix.Element](cfg gemm.Config, variant Variant, traversal []Step, levels ...core.Algorithm) (*Plan[E], error) {
	return NewPlanOn[E](nil, cfg, variant, traversal, levels...)
}

// NewPlanOn is NewPlanTraversal on a caller-owned worker pool: the plan's
// term jobs and row-split adds, and both of its gemm contexts, draw helpers
// from it, so every plan built on one pool shares one goroutine budget. A
// nil pool means a private one of cfg.Threads.
func NewPlanOn[E matrix.Element](pool *sched.Pool, cfg gemm.Config, variant Variant, traversal []Step, levels ...core.Algorithm) (*Plan[E], error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("fmmexec: no levels")
	}
	if variant != Naive && variant != AB && variant != ABC {
		return nil, fmt.Errorf("fmmexec: unknown variant %d", int(variant))
	}
	for i, l := range levels {
		if err := l.Verify(); err != nil {
			return nil, fmt.Errorf("fmmexec: level %d: %w", i, err)
		}
	}
	fanout := 1
	if traversal != nil {
		if len(traversal) != len(levels) {
			return nil, fmt.Errorf("fmmexec: traversal has %d steps for %d levels", len(traversal), len(levels))
		}
		for i, s := range traversal {
			switch s {
			case DFS:
			case BFS:
				if i > 0 && traversal[i-1] == DFS {
					return nil, fmt.Errorf("fmmexec: BFS step at level %d after a DFS level (BFS levels must form a prefix)", i)
				}
				fanout *= levels[i].R
			default:
				return nil, fmt.Errorf("fmmexec: unknown traversal step %d at level %d", int(s), i)
			}
		}
	}
	ctx, err := gemm.NewContextOn[E](cfg, pool)
	if err != nil {
		return nil, err
	}
	p := &Plan[E]{
		Levels:    append([]core.Algorithm(nil), levels...),
		Flat:      core.KronAll(levels...),
		Variant:   variant,
		ctx:       ctx,
		traversal: append([]Step(nil), traversal...),
		fanout:    fanout,
	}
	if fanout > 1 {
		scfg := cfg
		scfg.Threads = 1
		scfg.WorkspacePoolSpan = fanout
		p.serialCtx, err = gemm.NewContextOn[E](scfg, ctx.Pool())
		if err != nil {
			return nil, err
		}
		p.termBufs = make(chan []E, p.Flat.R)
	}
	p.uCols = columns(p.Flat.U)
	p.vCols = columns(p.Flat.V)
	p.wCols = columns(p.Flat.W)
	return p, nil
}

// MustNewPlan is NewPlan for known-good inputs.
func MustNewPlan[E matrix.Element](cfg gemm.Config, variant Variant, levels ...core.Algorithm) *Plan[E] {
	p, err := NewPlan[E](cfg, variant, levels...)
	if err != nil {
		panic(err)
	}
	return p
}

// columns extracts the non-zero (row, coef) list of every column.
func columns(m matrix.Mat[float64]) [][]coefIdx {
	out := make([][]coefIdx, m.Cols)
	for r := 0; r < m.Cols; r++ {
		for i := 0; i < m.Rows; i++ {
			if c := m.At(i, r); c != 0 {
				out[r] = append(out[r], coefIdx{idx: i, coef: c})
			}
		}
	}
	return out
}

// String describes the plan, e.g. "<2,2,2>+<3,3,3> ABC".
func (p *Plan[E]) String() string {
	s := ""
	for i, l := range p.Levels {
		if i > 0 {
			s += "+"
		}
		s += l.ShapeString()
	}
	return s + " " + p.Variant.String()
}

// Context exposes the plan's gemm context (e.g. for running the baseline
// with identical blocking).
func (p *Plan[E]) Context() *gemm.Context[E] { return p.ctx }

// Traversal returns a copy of the plan's per-level traversal (nil for the
// all-DFS default).
func (p *Plan[E]) Traversal() []Step { return append([]Step(nil), p.traversal...) }

// Fanout reports how many independent term chunks the plan fans across its
// worker pool per core multiplication (1 = pure DFS).
func (p *Plan[E]) Fanout() int { return p.fanout }

// MulAdd computes c += a·b. Arbitrary sizes are supported via dynamic
// peeling; inputs may be views. c must not alias a or b.
func (p *Plan[E]) MulAdd(c, a, b matrix.Mat[E]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("fmmexec: dims C(%d×%d) += A(%d×%d)·B(%d×%d)", c.Rows, c.Cols, m, k, b.Rows, n))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	// One packing workspace serves the whole call: the per-term loop and the
	// peeling fringes run sequentially, so renting once avoids hitting the
	// pool (or allocating, under heavy concurrency) once per recursion term.
	// (BFS term jobs rent their own workspaces from the Threads=1 context.)
	ws := p.ctx.GetWorkspace()
	defer p.ctx.PutWorkspace(ws)
	mt, kt, nt := p.Flat.M, p.Flat.K, p.Flat.N
	sm, sk, sn := m/mt, k/kt, n/nt
	if sm == 0 || sk == 0 || sn == 0 {
		p.ctx.MulAddWS(ws, c, a, b) // partition larger than the problem
		return
	}
	m1, k1, n1 := sm*mt, sk*kt, sn*nt
	p.mulCore(ws, c.View(0, 0, m1, n1), a.View(0, 0, m1, k1), b.View(0, 0, k1, n1))
	// Dynamic peeling fringes (plain GEMM, no extra workspace).
	if k1 < k {
		p.ctx.FusedMulAddWS(ws,
			gemm.SingleTerm(c.View(0, 0, m1, n1)),
			gemm.SingleTerm(a.View(0, k1, m1, k-k1)),
			gemm.SingleTerm(b.View(k1, 0, k-k1, n1)))
	}
	if n1 < n {
		p.ctx.MulAddWS(ws, c.View(0, n1, m1, n-n1), a.View(0, 0, m1, k), b.View(0, n1, k, n-n1))
	}
	if m1 < m {
		p.ctx.MulAddWS(ws, c.View(m1, 0, m-m1, n), a.View(m1, 0, m-m1, k), b)
	}
}

// mulCore runs the iterative FMM of (5) on a region whose dimensions divide
// evenly by the composite partition, dispatching to the BFS fan-out when the
// traversal has one and to the serial term loop otherwise.
func (p *Plan[E]) mulCore(ws *gemm.Workspace[E], c, a, b matrix.Mat[E]) {
	if p.fanout > 1 && p.Flat.R > 1 {
		p.mulCoreBFS(c, a, b)
		return
	}
	p.mulCoreDFS(ws, c, a, b)
}

// aTermsFor/bTermsFor/cTermsFor append term r's non-zero weighted blocks of
// the given operand to dst. The ⟦U,V,W⟧ coefficients are small exact
// rationals (±1, ±1/2, ±1/4, …), so the E(coef) conversions are exact for
// float32 as well as float64. The appends amortize into the pooled
// execState term slices, which converge to the plan's max term width.
//
//fmm:hotpath
func (p *Plan[E]) aTermsFor(dst []gemm.Term[E], a matrix.Mat[E], r int) []gemm.Term[E] {
	mt, kt := p.Flat.M, p.Flat.K
	for _, ci := range p.uCols[r] {
		dst = append(dst, gemm.Term[E]{Coef: E(ci.coef), M: a.Block(ci.idx/kt, ci.idx%kt, mt, kt)}) //fmm:alloc-ok amortized into pooled execState
	}
	return dst
}

//fmm:hotpath
func (p *Plan[E]) bTermsFor(dst []gemm.Term[E], b matrix.Mat[E], r int) []gemm.Term[E] {
	kt, nt := p.Flat.K, p.Flat.N
	for _, ci := range p.vCols[r] {
		dst = append(dst, gemm.Term[E]{Coef: E(ci.coef), M: b.Block(ci.idx/nt, ci.idx%nt, kt, nt)}) //fmm:alloc-ok amortized into pooled execState
	}
	return dst
}

//fmm:hotpath
func (p *Plan[E]) cTermsFor(dst []gemm.Term[E], c matrix.Mat[E], r int) []gemm.Term[E] {
	mt, nt := p.Flat.M, p.Flat.N
	for _, ci := range p.wCols[r] {
		dst = append(dst, gemm.Term[E]{Coef: E(ci.coef), M: c.Block(ci.idx/nt, ci.idx%nt, mt, nt)}) //fmm:alloc-ok amortized into pooled execState
	}
	return dst
}

// mulCoreDFS is the serial term loop: terms run in ascending order on the
// calling goroutine, each term's GEMM parallelized internally.
//
//fmm:hotpath
func (p *Plan[E]) mulCoreDFS(ws *gemm.Workspace[E], c, a, b matrix.Mat[E]) {
	mt, kt, nt := p.Flat.M, p.Flat.K, p.Flat.N
	sm, sk, sn := a.Rows/mt, a.Cols/kt, b.Cols/nt
	st, release := p.stateFor(sm, sk, sn)
	defer release()
	switch p.Variant {
	case ABC:
		for r := 0; r < p.Flat.R; r++ {
			st.aTerms = p.aTermsFor(st.aTerms[:0], a, r)
			st.bTerms = p.bTermsFor(st.bTerms[:0], b, r)
			st.cTerms = p.cTermsFor(st.cTerms[:0], c, r)
			p.ctx.FusedMulAddWS(ws, st.cTerms, st.aTerms, st.bTerms)
		}
	case AB:
		st.mtmp = grow(st.mtmp, sm, sn)
		for r := 0; r < p.Flat.R; r++ {
			st.aTerms = p.aTermsFor(st.aTerms[:0], a, r)
			st.bTerms = p.bTermsFor(st.bTerms[:0], b, r)
			st.mtmp.Zero()
			p.ctx.FusedMulAddWS(ws, gemm.SingleTerm(st.mtmp), st.aTerms, st.bTerms)
			for _, ci := range p.wCols[r] {
				p.addScaled(c.Block(ci.idx/nt, ci.idx%nt, mt, nt), E(ci.coef), st.mtmp)
			}
		}
	case Naive:
		st.asum = grow(st.asum, sm, sk)
		st.bsum = grow(st.bsum, sk, sn)
		st.mtmp = grow(st.mtmp, sm, sn)
		for r := 0; r < p.Flat.R; r++ {
			st.asum.Zero()
			for _, ci := range p.uCols[r] {
				p.addScaled(st.asum, E(ci.coef), a.Block(ci.idx/kt, ci.idx%kt, mt, kt))
			}
			st.bsum.Zero()
			for _, ci := range p.vCols[r] {
				p.addScaled(st.bsum, E(ci.coef), b.Block(ci.idx/nt, ci.idx%nt, kt, nt))
			}
			st.mtmp.Zero()
			p.ctx.MulAddWS(ws, st.mtmp, st.asum, st.bsum)
			for _, ci := range p.wCols[r] {
				p.addScaled(c.Block(ci.idx/nt, ci.idx%nt, mt, nt), E(ci.coef), st.mtmp)
			}
		}
	}
}

// mulCoreBFS fans the flat term list across the worker pool in fanout
// contiguous chunks (one per BFS-prefix multi-index) and folds the results
// into C in fixed ascending term order:
//
//   - Naive/AB: every term's product Mr lands in its own rented sm×sn buffer
//     during the parallel phase; after the barrier the caller replays the
//     serial fold — for each term in ascending order, C_block += w·Mr. Each
//     C element therefore receives exactly the additions of the serial loop
//     in the same order, so the result is bit-identical to the DFS path.
//   - ABC: each chunk's terms scatter into a zeroed per-chunk shadow of the
//     core C (the fused micro-kernel path needs a C-shaped target), and the
//     shadows fold into C in ascending chunk order. The additive grouping
//     differs from the serial interleaving, so ABC BFS results are
//     run-to-run deterministic (fixed chunking, fixed fold order, schedule-
//     independent) but not bit-identical to DFS.
//
// Term jobs execute in the Threads=1 context — cross-term parallelism
// comes from the pool, and gemm results are bit-identical across its worker
// counts — with every job renting its own workspace and exec state.
func (p *Plan[E]) mulCoreBFS(c, a, b matrix.Mat[E]) {
	mt, kt, nt := p.Flat.M, p.Flat.K, p.Flat.N
	sm, sk, sn := a.Rows/mt, a.Cols/kt, b.Cols/nt
	R := p.Flat.R
	F := p.fanout
	chunk := R / F
	jobCost := 2 * int64(chunk) * int64(sm) * int64(sk) * int64(sn)
	switch p.Variant {
	case Naive, AB:
		prods := make([]matrix.Mat[E], R)
		for r := range prods {
			prods[r] = p.rentTermBuf(sm, sn)
		}
		jobs := make([]sched.Job, F)
		for j := 0; j < F; j++ {
			j := j
			jobs[j] = sched.Job{Cost: jobCost, Run: func() {
				ws := p.serialCtx.GetWorkspace()
				defer p.serialCtx.PutWorkspace(ws)
				st, release := p.stateFor(sm, sk, sn)
				defer release()
				for r := j * chunk; r < (j+1)*chunk; r++ {
					p.termProduct(ws, st, prods[r], a, b, r)
				}
			}}
		}
		p.ctx.Pool().Run(jobs)
		// Ordered fold: ascending term order replays the serial path's
		// per-element addition sequence exactly.
		for r := 0; r < R; r++ {
			for _, ci := range p.wCols[r] {
				p.addScaled(c.Block(ci.idx/nt, ci.idx%nt, mt, nt), E(ci.coef), prods[r])
			}
		}
		for _, buf := range prods {
			p.returnTermBuf(buf)
		}
	case ABC:
		shadows := make([]matrix.Mat[E], F)
		for j := range shadows {
			shadows[j] = p.rentTermBuf(c.Rows, c.Cols)
		}
		jobs := make([]sched.Job, F)
		for j := 0; j < F; j++ {
			j := j
			jobs[j] = sched.Job{Cost: jobCost, Run: func() {
				ws := p.serialCtx.GetWorkspace()
				defer p.serialCtx.PutWorkspace(ws)
				st, release := p.stateFor(sm, sk, sn)
				defer release()
				sh := shadows[j]
				sh.Zero()
				for r := j * chunk; r < (j+1)*chunk; r++ {
					st.aTerms = p.aTermsFor(st.aTerms[:0], a, r)
					st.bTerms = p.bTermsFor(st.bTerms[:0], b, r)
					st.cTerms = p.cTermsFor(st.cTerms[:0], sh, r)
					p.serialCtx.FusedMulAddWS(ws, st.cTerms, st.aTerms, st.bTerms)
				}
			}}
		}
		p.ctx.Pool().Run(jobs)
		// Fixed ascending chunk order keeps repeated runs bit-identical.
		for j := 0; j < F; j++ {
			p.addScaled(c, 1, shadows[j])
		}
		for _, buf := range shadows {
			p.returnTermBuf(buf)
		}
	}
}

// termProduct computes term r's explicit product Mr into prod (zeroing it
// first) for the Naive and AB variants, single-threaded in the Threads=1
// context — the BFS parallel-phase body.
//
//fmm:hotpath
func (p *Plan[E]) termProduct(ws *gemm.Workspace[E], st *execState[E], prod matrix.Mat[E], a, b matrix.Mat[E], r int) {
	mt, kt, nt := p.Flat.M, p.Flat.K, p.Flat.N
	prod.Zero()
	if p.Variant == AB {
		st.aTerms = p.aTermsFor(st.aTerms[:0], a, r)
		st.bTerms = p.bTermsFor(st.bTerms[:0], b, r)
		p.serialCtx.FusedMulAddWS(ws, gemm.SingleTerm(prod), st.aTerms, st.bTerms)
		return
	}
	sm, sk, sn := a.Rows/mt, a.Cols/kt, b.Cols/nt
	st.asum = grow(st.asum, sm, sk)
	st.bsum = grow(st.bsum, sk, sn)
	st.asum.Zero()
	for _, ci := range p.uCols[r] {
		st.asum.AddScaled(E(ci.coef), a.Block(ci.idx/kt, ci.idx%kt, mt, kt))
	}
	st.bsum.Zero()
	for _, ci := range p.vCols[r] {
		st.bsum.AddScaled(E(ci.coef), b.Block(ci.idx/nt, ci.idx%nt, kt, nt))
	}
	p.serialCtx.MulAddWS(ws, prod, st.asum, st.bsum)
}

// maxRetainedTermBufFloats caps the size of a single pooled BFS reduction
// buffer in elements (32 MiB of float64s, 16 MiB of float32s): per-term
// product buffers are sm×sn (a fraction 1/(M̃·Ñ) of the core output) and
// ABC chunk shadows are the full core m×n, so typical buffers sit far below
// this; anything larger goes back to the GC instead of pinning idle memory.
const maxRetainedTermBufFloats = 1 << 22

// rentTermBuf returns a rows×cols matrix backed by the plan's bounded
// reduction-buffer pool, allocating fresh when the pool is empty or its
// buffer is too small. The contents are unspecified — BFS users zero their
// buffers as part of the compute phase.
func (p *Plan[E]) rentTermBuf(rows, cols int) matrix.Mat[E] {
	need := rows * cols
	var buf []E
	select {
	case buf = <-p.termBufs:
	default:
	}
	if cap(buf) < need {
		buf = make([]E, need)
	}
	return matrix.Mat[E]{Rows: rows, Cols: cols, Stride: cols, Data: buf[:need]}
}

// returnTermBuf offers a reduction buffer back to the pool; oversized
// buffers and returns beyond the pool bound are dropped for the GC.
func (p *Plan[E]) returnTermBuf(m matrix.Mat[E]) {
	if cap(m.Data) > maxRetainedTermBufFloats {
		return
	}
	select {
	case p.termBufs <- m.Data[:cap(m.Data)]:
	default:
	}
}

// addScaledParThreshold is the element count below which the parallel
// split's goroutine overhead exceeds the memory-bound work.
const addScaledParThreshold = 1 << 15

// addScaled computes dst += coef·src, splitting rows across the plan's
// worker pool for large operands — the explicit submatrix additions of the
// Naive and AB variants are memory-bound streams that parallelize like the
// packing. Row chunks go through the shared sched.Pool, so the split
// composes with BFS term jobs under one worker budget: called from inside a
// term job with the budget exhausted, it degrades to the plain serial add
// (each element is written exactly once either way, so the split never
// changes the result bits).
func (p *Plan[E]) addScaled(dst matrix.Mat[E], coef E, src matrix.Mat[E]) {
	threads := p.ctx.Config().Threads
	if threads <= 1 || dst.Rows*dst.Cols < addScaledParThreshold || dst.Rows < threads {
		dst.AddScaled(coef, src)
		return
	}
	chunk := (dst.Rows + threads - 1) / threads
	jobs := make([]sched.Job, 0, threads)
	for r0 := 0; r0 < dst.Rows; r0 += chunk {
		rows := chunk
		if r0+rows > dst.Rows {
			rows = dst.Rows - r0
		}
		r0, rows := r0, rows
		jobs = append(jobs, sched.Job{Cost: int64(rows), Run: func() {
			dst.View(r0, 0, rows, dst.Cols).AddScaled(coef, src.View(r0, 0, rows, src.Cols))
		}})
	}
	p.ctx.Pool().Run(jobs)
}

// grow returns a matrix of exactly r×c, reusing ws's backing array when it is
// large enough.
func grow[E matrix.Element](ws matrix.Mat[E], r, c int) matrix.Mat[E] {
	if cap(ws.Data) >= r*c {
		return matrix.Mat[E]{Rows: r, Cols: c, Stride: c, Data: ws.Data[:r*c]}
	}
	return matrix.New[E](r, c)
}
