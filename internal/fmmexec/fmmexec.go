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
// # The zero-level plan
//
// A plan with no levels is plain GEMM: its Flat is the ⟨1,1,1⟩;1 identity
// (the empty Kronecker product), its name is "gemm", and MulAdd is the
// context's MulAdd straight through — one workspace rent, no peeling split,
// no term lists, no variant temporaries (the variant is carried but unused),
// nil traversal, fan-out 1 — so its results are bit-identical to
// gemm.Context.MulAdd. It exists so that "do not use a fast algorithm here"
// is a plan like any other: the model ranks it (model.PredictGEMM), the
// Multiplier caches it, and every path that runs a plan — direct calls, batch
// jobs, shard tiles, K-split slabs, async jobs, autotune arms — abstains from
// FMM through the one path it already has.
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
//	      pool, each term job running on the context's serial view with its
//	      own rented workspace, and the results fold into C in fixed
//	      ascending term order through rented reduction buffers.
//
// NewPlanTraversal takes one Step per level (BFS levels must form a prefix —
// the iterative executor fans contiguous flat-term chunks); NewPlan keeps
// the all-DFS default. For the Naive and AB variants the BFS fold replays
// the serial path's per-element addition order exactly, so BFS results are
// bit-identical to DFS; the ABC variant accumulates per-chunk C shadows and
// is run-to-run deterministic (fixed chunking and fold order) but not
// bit-identical to its DFS ordering.
//
// # Memory
//
// A Plan is immutable and stateless: composed algorithm, coefficient column
// lists, traversal, and the gemm.Context it executes on. Every buffer a call
// needs — packing workspace, the Naive/AB temporaries, BFS term products and
// C shadows — is rented from that context for the duration of the call, so
// any number of plans built on one context (NewPlanOn; a Multiplier builds
// all of its plans on one context per kernel) retain no memory of their own.
package fmmexec

import (
	"fmt"

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
// with NewPlan (all-DFS), NewPlanTraversal, or NewPlanOn.
//
// Concurrency contract: a Plan is immutable after construction, holds no
// mutable state, and is safe for unlimited concurrent callers: all scratch is
// rented per call from the plan's gemm.Context (package comment, "Memory"),
// so concurrent MulAdd calls never share state. Each call additionally
// parallelizes internally — across the configured worker count inside one
// term's GEMM (DFS levels) and across terms (BFS levels) — with all in-call
// parallelism (term jobs, row-split adds, the gemm ic loop and packing)
// drawing helpers from the context's one sched.Pool.
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

	uCols, vCols, wCols [][]coefIdx
}

// NewPlan composes the given per-level algorithms (outermost first) into an
// executable plan with the all-DFS traversal (the historical serial term
// loop). Every level must verify; no levels at all is the zero-level plan,
// plain GEMM (package comment).
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
	ctx, err := gemm.NewContext[E](cfg)
	if err != nil {
		return nil, err
	}
	return NewPlanOn(ctx, variant, traversal, levels...)
}

// NewPlanOn is NewPlanTraversal on a caller-owned gemm.Context: the plan
// executes on ctx — its blocking, backend, worker pool, workspaces and
// scratch list — and adds nothing mutable of its own, so every plan built on
// one context shares one goroutine budget and one bounded store of buffers.
// A plan built on ctx.Serial() is the width-1 plan of the same engine.
func NewPlanOn[E matrix.Element](ctx *gemm.Context[E], variant Variant, traversal []Step, levels ...core.Algorithm) (*Plan[E], error) {
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
	p := &Plan[E]{
		Levels:    append([]core.Algorithm(nil), levels...),
		Flat:      core.KronAll(levels...),
		Variant:   variant,
		ctx:       ctx,
		traversal: append([]Step(nil), traversal...),
		fanout:    fanout,
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

// GEMMName names the zero-level plan and the model candidate it is built from.
const GEMMName = "gemm"

// Name renders an implementation like the paper's legends — per-level shapes
// then the variant, e.g. "<2,2,2>+<3,3,3> ABC" — and no levels as GEMMName.
func Name(v Variant, levels []core.Algorithm) string {
	if len(levels) == 0 {
		return GEMMName
	}
	s := ""
	for i, l := range levels {
		if i > 0 {
			s += "+"
		}
		s += l.ShapeString()
	}
	return s + " " + v.String()
}

// String describes the plan, e.g. "<2,2,2>+<3,3,3> ABC", or "gemm".
func (p *Plan[E]) String() string { return Name(p.Variant, p.Levels) }

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
	if len(p.Levels) == 0 {
		p.ctx.MulAdd(c, a, b) // the zero-level plan is plain GEMM
		return
	}
	// One packing workspace serves the whole call: the per-term loop and the
	// peeling fringes run sequentially, so renting once avoids hitting the
	// pool (or allocating, under heavy concurrency) once per recursion term.
	// (BFS term jobs rent their own through the context's serial view.)
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
// float32 as well as float64. dst is one of the rented workspace's operand
// lists, so the appends amortize to nothing: the lists converge to the max
// term width served and stay with the pooled workspace.
//
//fmm:hotpath
func (p *Plan[E]) aTermsFor(dst []gemm.Term[E], a matrix.Mat[E], r int) []gemm.Term[E] {
	mt, kt := p.Flat.M, p.Flat.K
	for _, ci := range p.uCols[r] {
		dst = append(dst, gemm.Term[E]{Coef: E(ci.coef), M: a.Block(ci.idx/kt, ci.idx%kt, mt, kt)}) //fmm:alloc-ok amortized into the pooled workspace's term lists
	}
	return dst
}

//fmm:hotpath
func (p *Plan[E]) bTermsFor(dst []gemm.Term[E], b matrix.Mat[E], r int) []gemm.Term[E] {
	kt, nt := p.Flat.K, p.Flat.N
	for _, ci := range p.vCols[r] {
		dst = append(dst, gemm.Term[E]{Coef: E(ci.coef), M: b.Block(ci.idx/nt, ci.idx%nt, kt, nt)}) //fmm:alloc-ok amortized into the pooled workspace's term lists
	}
	return dst
}

//fmm:hotpath
func (p *Plan[E]) cTermsFor(dst []gemm.Term[E], c matrix.Mat[E], r int) []gemm.Term[E] {
	mt, nt := p.Flat.M, p.Flat.N
	for _, ci := range p.wCols[r] {
		dst = append(dst, gemm.Term[E]{Coef: E(ci.coef), M: c.Block(ci.idx/nt, ci.idx%nt, mt, nt)}) //fmm:alloc-ok amortized into the pooled workspace's term lists
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
	if p.Variant == ABC {
		for r := 0; r < p.Flat.R; r++ {
			ws.ATerms = p.aTermsFor(ws.ATerms[:0], a, r)
			ws.BTerms = p.bTermsFor(ws.BTerms[:0], b, r)
			ws.CTerms = p.cTermsFor(ws.CTerms[:0], c, r)
			p.ctx.FusedMulAddWS(ws, ws.CTerms, ws.ATerms, ws.BTerms)
		}
		return
	}
	mtmp := p.ctx.RentMat(sm, sn)
	defer p.ctx.ReturnMat(mtmp)
	asum, bsum := p.rentSums(p.ctx, sm, sk, sn)
	defer p.ctx.ReturnMat(asum)
	defer p.ctx.ReturnMat(bsum)
	for r := 0; r < p.Flat.R; r++ {
		p.termProduct(p.ctx, ws, mtmp, asum, bsum, a, b, r)
		for _, ci := range p.wCols[r] {
			addScaled(p.ctx, c.Block(ci.idx/nt, ci.idx%nt, mt, nt), E(ci.coef), mtmp)
		}
	}
}

// rentSums rents the Naive variant's explicit operand sums ΣuᵢAᵢ (sm×sk) and
// ΣvⱼBⱼ (sk×sn) from ctx. AB fuses the sums into packing and gets empty
// matrices, which ReturnMat ignores.
func (p *Plan[E]) rentSums(ctx *gemm.Context[E], sm, sk, sn int) (asum, bsum matrix.Mat[E]) {
	if p.Variant != Naive {
		return
	}
	return ctx.RentMat(sm, sk), ctx.RentMat(sk, sn)
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
// Term jobs execute on the context's serial view — cross-term parallelism
// comes from the pool, and gemm results are bit-identical across worker
// counts — with every job renting its own workspace.
func (p *Plan[E]) mulCoreBFS(c, a, b matrix.Mat[E]) {
	mt, kt, nt := p.Flat.M, p.Flat.K, p.Flat.N
	sm, sk, sn := a.Rows/mt, a.Cols/kt, b.Cols/nt
	R := p.Flat.R
	F := p.fanout
	chunk := R / F
	jobCost := 2 * int64(chunk) * int64(sm) * int64(sk) * int64(sn)
	serial := p.ctx.Serial()
	// Naive/AB rent one sm×sn product per term; ABC one C shadow per chunk.
	bufs := make([]matrix.Mat[E], R)
	rows, cols := sm, sn
	if p.Variant == ABC {
		bufs, rows, cols = bufs[:F], c.Rows, c.Cols
	}
	for i := range bufs {
		bufs[i] = p.ctx.RentMat(rows, cols)
	}
	jobs := make([]sched.Job, F)
	for j := range jobs {
		jobs[j] = sched.Job{Cost: jobCost, Run: func() {
			ws := serial.GetWorkspace()
			defer serial.PutWorkspace(ws)
			if p.Variant != ABC {
				asum, bsum := p.rentSums(serial, sm, sk, sn)
				defer serial.ReturnMat(asum)
				defer serial.ReturnMat(bsum)
				for r := j * chunk; r < (j+1)*chunk; r++ {
					p.termProduct(serial, ws, bufs[r], asum, bsum, a, b, r)
				}
				return
			}
			sh := bufs[j]
			sh.Zero()
			for r := j * chunk; r < (j+1)*chunk; r++ {
				ws.ATerms = p.aTermsFor(ws.ATerms[:0], a, r)
				ws.BTerms = p.bTermsFor(ws.BTerms[:0], b, r)
				ws.CTerms = p.cTermsFor(ws.CTerms[:0], sh, r)
				serial.FusedMulAddWS(ws, ws.CTerms, ws.ATerms, ws.BTerms)
			}
		}}
	}
	p.ctx.Pool().Run(jobs)
	if p.Variant == ABC {
		// Fixed ascending chunk order keeps repeated runs bit-identical.
		for _, sh := range bufs {
			addScaled(p.ctx, c, 1, sh)
		}
	} else {
		// Ordered fold: ascending term order replays the serial path's
		// per-element addition sequence exactly.
		for r, prod := range bufs {
			for _, ci := range p.wCols[r] {
				addScaled(p.ctx, c.Block(ci.idx/nt, ci.idx%nt, mt, nt), E(ci.coef), prod)
			}
		}
	}
	for _, buf := range bufs {
		p.ctx.ReturnMat(buf)
	}
}

// termProduct computes term r's explicit product Mr into prod (zeroing it
// first) for the Naive and AB variants on ctx — the plan's context in the
// serial term loop, its serial view inside a BFS term job. AB fuses the
// operand sums into packing; Naive forms them in asum and bsum (rentSums)
// around a plain GEMM.
//
//fmm:hotpath
func (p *Plan[E]) termProduct(ctx *gemm.Context[E], ws *gemm.Workspace[E], prod, asum, bsum, a, b matrix.Mat[E], r int) {
	mt, kt, nt := p.Flat.M, p.Flat.K, p.Flat.N
	prod.Zero()
	if p.Variant == AB {
		ws.ATerms = p.aTermsFor(ws.ATerms[:0], a, r)
		ws.BTerms = p.bTermsFor(ws.BTerms[:0], b, r)
		ctx.FusedMulAddWS(ws, gemm.SingleTerm(prod), ws.ATerms, ws.BTerms)
		return
	}
	asum.Zero()
	for _, ci := range p.uCols[r] {
		addScaled(ctx, asum, E(ci.coef), a.Block(ci.idx/kt, ci.idx%kt, mt, kt))
	}
	bsum.Zero()
	for _, ci := range p.vCols[r] {
		addScaled(ctx, bsum, E(ci.coef), b.Block(ci.idx/nt, ci.idx%nt, kt, nt))
	}
	ctx.MulAddWS(ws, prod, asum, bsum)
}

// addScaledParThreshold is the element count below which the parallel
// split's goroutine overhead exceeds the memory-bound work.
const addScaledParThreshold = 1 << 15

// addScaled computes dst += coef·src, splitting rows across ctx's worker
// pool (as many ways as ctx is wide; a serial view adds in place) for large
// operands — the explicit submatrix additions of the Naive and AB variants
// are memory-bound streams that parallelize like the packing. Row chunks go
// through the shared sched.Pool, so the split composes with everything else
// under one worker budget: with the budget exhausted it degrades to the
// plain serial add (each element is written exactly once either way, so the
// split never changes the result bits).
func addScaled[E matrix.Element](ctx *gemm.Context[E], dst matrix.Mat[E], coef E, src matrix.Mat[E]) {
	threads := ctx.Config().Threads
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
	ctx.Pool().Run(jobs)
}
