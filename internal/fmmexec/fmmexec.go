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
// no term lists, no variant temporaries (the variant is carried but unused)
// — so its results are bit-identical to gemm.Context.MulAdd. It is also the
// one plan that takes a successor hint (MulAddNext). It exists so that "do not use a fast algorithm here"
// is a plan like any other: the model ranks it (model.PredictGEMM), the
// Multiplier caches it, and every path that runs a plan — direct calls, batch
// jobs, shard tiles, K-split slabs, async jobs — abstains from
// FMM through the one path it already has.
//
// # Term order
//
// A plan runs its R multiplication terms in ascending order on the calling
// goroutine. On a context of Threads > 1 each term's GEMM is parallelized
// internally across the context's workers — the paper's data parallelism
// (§5.1), which only directly built plans use: a Multiplier builds every
// plan on one Threads = 1 context and runs independent width-1 products side
// by side instead. gemm results do not depend on the worker count, so
// neither do a plan's: the same plan built on a wide and on a Threads = 1
// context produces the same bits.
//
// # Memory
//
// A Plan is immutable and stateless: composed algorithm, coefficient column
// lists, and the gemm.Context it executes on. Every buffer a call needs —
// packing workspace and the Naive/AB temporaries — is rented from that
// context for the duration of the call, so any number of plans built on one
// context (NewPlanOn; a Multiplier builds all of its plans on its one
// context) retain no memory of their own.
package fmmexec

import (
	"fmt"

	"fmmfam/internal/core"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
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

// Step is an inert name kept only because fmmbench compiles against it;
// ROADMAP 1(a-ii) removes that caller. Every plan runs its terms in order.
type Step int

// DFS, the one Step, is kept for fmmbench until ROADMAP 1(a-ii).
const DFS Step = 0

func (s Step) String() string {
	if s == DFS {
		return "dfs"
	}
	return fmt.Sprintf("Step(%d)", int(s))
}

// NewPlanTraversal is NewPlan, kept for fmmbench until ROADMAP 1(a-ii)
// removes its caller. Any step other than DFS is an error.
func NewPlanTraversal[E matrix.Element](cfg gemm.Config, variant Variant, traversal []Step, levels ...core.Algorithm) (*Plan[E], error) {
	for _, s := range traversal {
		if s != DFS {
			return nil, fmt.Errorf("fmmexec: traversal step %v: every plan runs its terms in order", s)
		}
	}
	return NewPlan[E](cfg, variant, levels...)
}

// Traversal returns nil, kept for fmmbench until ROADMAP 1(a-ii).
func (p *Plan[E]) Traversal() []Step { return nil }

type coefIdx struct {
	idx  int
	coef float64
}

// Plan is a ready-to-run FMM implementation for one element type: per-level
// algorithms composed into a flat algorithm, a variant, and the precomputed
// non-zero column lists of ⟦U,V,W⟧. Create with NewPlan or NewPlanOn.
//
// Concurrency contract: a Plan is immutable after construction, holds no
// mutable state, and is safe for unlimited concurrent callers: all scratch is
// rented per call from the plan's gemm.Context (package comment, "Memory"),
// so concurrent MulAdd calls never share state. Each call additionally
// parallelizes internally across the configured worker count inside each
// term's GEMM, with all in-call parallelism (row-split adds, the gemm ic
// loop and packing) drawing helpers from the context's one sched.Pool.
type Plan[E matrix.Element] struct {
	Levels  []core.Algorithm
	Flat    core.Algorithm
	Variant Variant

	ctx *gemm.Context[E]

	uCols, vCols, wCols [][]coefIdx
}

// NewPlan composes the given per-level algorithms (outermost first) into an
// executable plan on a private gemm.Context of cfg. Every level must verify;
// no levels at all is the zero-level plan, plain GEMM (package comment).
func NewPlan[E matrix.Element](cfg gemm.Config, variant Variant, levels ...core.Algorithm) (*Plan[E], error) {
	ctx, err := gemm.NewContext[E](cfg)
	if err != nil {
		return nil, err
	}
	return NewPlanOn(ctx, variant, levels...)
}

// NewPlanOn is NewPlan on a caller-owned gemm.Context: the plan
// executes on ctx — its blocking, backend, worker pool, workspaces and
// scratch list — and adds nothing mutable of its own, so every plan built on
// one context shares one goroutine budget and one bounded store of buffers.
func NewPlanOn[E matrix.Element](ctx *gemm.Context[E], variant Variant, levels ...core.Algorithm) (*Plan[E], error) {
	if variant != Naive && variant != AB && variant != ABC {
		return nil, fmt.Errorf("fmmexec: unknown variant %d", int(variant))
	}
	for i, l := range levels {
		if err := l.Verify(); err != nil {
			return nil, fmt.Errorf("fmmexec: level %d: %w", i, err)
		}
	}
	p := &Plan[E]{
		Levels:  append([]core.Algorithm(nil), levels...),
		Flat:    core.KronAll(levels...),
		Variant: variant,
		ctx:     ctx,
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

// MulAdd computes c += a·b. Arbitrary sizes are supported via dynamic
// peeling; inputs may be views. c must not alias a or b.
//
// Before anything reads c, the call write-touches it on the calling
// goroutine (kernel.TouchPages): one integer add of zero to a 4-byte word
// of every 4 KiB page c's rows cover, in address order. It changes no
// bit and writes nothing outside c's rows, and a fresh page of c then
// faults once, not twice (a read fault on the zero page, then a
// copy-on-write one). Every route that runs a plan — a whole product, a
// tile or K slab, a batch or async job — reaches it here.
func (p *Plan[E]) MulAdd(c, a, b matrix.Mat[E]) {
	p.MulAddNext(c, a, b, gemm.Operands[E]{})
}

// MulAddNext is MulAdd for a caller that multiplies next's operands after
// it: the zero-level plan hands next to its one GEMM call
// (gemm.Context.MulAddNext), which prefetches next's operands under that call
// when the plan is width-1. A fast-algorithm plan ignores the hint: its call
// is a sequence of term products and peeling fringes, not one micro-kernel
// sweep to spread the successor over. Either way the result bits never
// depend on next.
func (p *Plan[E]) MulAddNext(c, a, b matrix.Mat[E], next gemm.Operands[E]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("fmmexec: dims C(%d×%d) += A(%d×%d)·B(%d×%d)", c.Rows, c.Cols, m, k, b.Rows, n))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	kernel.TouchPages(c) // a fresh C faults once per page, on this goroutine
	if len(p.Levels) == 0 {
		p.ctx.MulAddNext(c, a, b, next) // the zero-level plan is plain GEMM
		return
	}
	// One packing workspace serves the whole call: the per-term loop and the
	// peeling fringes run sequentially, so renting once avoids hitting the
	// pool (or allocating, under heavy concurrency) once per recursion term.
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

// mulCore runs the iterative FMM of (5) on a region whose dimensions divide
// evenly by the composite partition: terms in ascending order on the calling
// goroutine, each term's GEMM parallelized internally.
//
//fmm:hotpath
func (p *Plan[E]) mulCore(ws *gemm.Workspace[E], c, a, b matrix.Mat[E]) {
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
	asum, bsum := p.rentSums(sm, sk, sn)
	defer p.ctx.ReturnMat(asum)
	defer p.ctx.ReturnMat(bsum)
	for r := 0; r < p.Flat.R; r++ {
		p.termProduct(ws, mtmp, asum, bsum, a, b, r)
		for _, ci := range p.wCols[r] {
			addScaled(p.ctx, c.Block(ci.idx/nt, ci.idx%nt, mt, nt), E(ci.coef), mtmp)
		}
	}
}

// rentSums rents the Naive variant's explicit operand sums ΣuᵢAᵢ (sm×sk) and
// ΣvⱼBⱼ (sk×sn) from the plan's context. AB fuses the sums into packing and
// gets empty matrices, which ReturnMat ignores.
func (p *Plan[E]) rentSums(sm, sk, sn int) (asum, bsum matrix.Mat[E]) {
	if p.Variant != Naive {
		return
	}
	return p.ctx.RentMat(sm, sk), p.ctx.RentMat(sk, sn)
}

// termProduct computes term r's explicit product Mr into prod (zeroing it
// first) for the Naive and AB variants. AB fuses the operand sums into
// packing; Naive forms them in asum and bsum (rentSums) around a plain GEMM.
//
//fmm:hotpath
func (p *Plan[E]) termProduct(ws *gemm.Workspace[E], prod, asum, bsum, a, b matrix.Mat[E], r int) {
	mt, kt, nt := p.Flat.M, p.Flat.K, p.Flat.N
	prod.Zero()
	if p.Variant == AB {
		ws.ATerms = p.aTermsFor(ws.ATerms[:0], a, r)
		ws.BTerms = p.bTermsFor(ws.BTerms[:0], b, r)
		p.ctx.FusedMulAddWS(ws, gemm.SingleTerm(prod), ws.ATerms, ws.BTerms)
		return
	}
	asum.Zero()
	for _, ci := range p.uCols[r] {
		addScaled(p.ctx, asum, E(ci.coef), a.Block(ci.idx/kt, ci.idx%kt, mt, kt))
	}
	bsum.Zero()
	for _, ci := range p.vCols[r] {
		addScaled(p.ctx, bsum, E(ci.coef), b.Block(ci.idx/nt, ci.idx%nt, kt, nt))
	}
	p.ctx.MulAddWS(ws, prod, asum, bsum)
}

// addScaledParThreshold is the element count below which the parallel
// split's goroutine overhead exceeds the memory-bound work.
const addScaledParThreshold = 1 << 15

// addScaled computes dst += coef·src, splitting rows across ctx's worker
// pool (as many ways as ctx is wide; a Threads = 1 context adds in place)
// for large operands — the explicit submatrix additions of the Naive and AB variants
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
