package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"unsafe"

	"fmmfam"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
	"fmmfam/internal/sched"
	"fmmfam/internal/shard"
	"fmmfam/serve"
)

// alignedBuf is a length-n slice whose start meets a backend's packed-buffer
// alignment (in elements), as gemm's workspaces do for the assembly kernels.
func alignedBuf[E matrix.Element](n, align int) []E {
	if align <= 1 || n == 0 {
		return make([]E, n)
	}
	buf := make([]E, n+align-1)
	size := unsafe.Sizeof(buf[0])
	off := 0
	if rem := int((uintptr(unsafe.Pointer(&buf[0])) / size) % uintptr(align)); rem != 0 {
		off = align - rem
	}
	return buf[off : off+n : off+n]
}

// replayer replays the layers below a Multiplier-level span through one
// exported entry point each, on the operands of the op it explains:
//
//	Multiplier.MulAdd → [shard.Split, sched.Run] → Plan.MulAdd
//	  → Context.FusedMulAdd → Backend.PackB / PackA / Micro / Scatter
//
// Plan.MulAdd is replayed whole (on the first shard tile, for an op that
// shards). The layers below it are replayed as one representative call: one
// fused product of the plan's sub-block size with the plan's mean term
// counts, and below that one KC×NC B̃ panel, one MC×KC Ã block, and the
// micro-kernel and scatter sweeps over the MC×NC macro-block they feed. The
// span's Scale says how many such calls the layer above issues.
type replayer[E matrix.Element] struct {
	cfg     fmmfam.Config
	mu      *fmmfam.GenericMultiplier[E] // cfg.Threads, for unsharded ops
	serial  *fmmfam.GenericMultiplier[E] // Threads=1, for shard tiles and batch jobs
	sh      sharder
	scratch map[[2]int]matrix.Mat[E]
	// Packing buffers and accumulator tile of the kernel replays, kept
	// between replays so they are as warm as a pooled workspace's.
	abuf, bbuf, acc []E
}

func newReplayer[E matrix.Element](cfg fmmfam.Config) *replayer[E] {
	one := cfg
	one.Threads = 1
	return &replayer[E]{
		cfg:     cfg,
		mu:      fmmfam.NewGenericMultiplier[E](cfg, fmmfam.PaperArch()),
		serial:  fmmfam.NewGenericMultiplier[E](one, fmmfam.PaperArch()),
		sh:      newSharder(cfg, matrix.DtypeOf[E]()),
		scratch: make(map[[2]int]matrix.Mat[E]),
	}
}

// grown returns buf with room for n elements, reallocating (aligned) only
// when it is too small.
func grown[E matrix.Element](buf []E, n, align int) []E {
	if cap(buf) < n {
		return alignedBuf[E](n, align)
	}
	return buf[:n]
}

func (r *replayer[E]) c(rows, cols int) matrix.Mat[E] {
	key := [2]int{rows, cols}
	m, ok := r.scratch[key]
	if !ok {
		m = matrix.New[E](rows, cols)
		r.scratch[key] = m
	}
	return m
}

// below replays everything under a Multiplier.MulAdd-level span for
// C += A·B. serial says the product runs on the serial twin (a batch job or
// a coalesced frame); scale is how many such products the parent stands for.
func (r *replayer[E]) below(tr *tracer, round, parent int, a, b matrix.Mat[E], serial bool, scale float64) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if !serial && r.sh.considers(m, k, n) {
		var spec shard.Spec
		var ok bool
		tr.replay(round, parent, "shard.Split", scale, func() { spec, ok = r.sh.split(m, k, n) })
		if ok {
			tiles := spec.Tiles()
			noop := make([]sched.Job, len(tiles))
			for i := range noop {
				noop[i] = sched.Job{Cost: 1, Run: func() {}}
			}
			tr.replay(round, parent, "sched.Run", scale, func() { sched.Run(r.cfg.Threads, noop) })
			t := tiles[0]
			side := math.Min(float64(r.cfg.Threads), float64(len(tiles)))
			r.plan(tr, round, parent, a.View(t.I, t.P, t.Rows, t.Depth), b.View(t.P, t.J, t.Depth, t.Cols), true, scale*float64(len(tiles))/side)
			return
		}
	}
	r.plan(tr, round, parent, a, b, serial, scale)
}

func (r *replayer[E]) plan(tr *tracer, round, parent int, a, b matrix.Mat[E], serial bool, scale float64) {
	mu := r.mu
	if serial {
		mu = r.serial
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	p, err := mu.PlanFor(m, k, n)
	if err != nil {
		return
	}
	c := r.c(m, n)
	sp := tr.replay(round, parent, "fmmexec.Plan.MulAdd", scale, func() { p.MulAdd(c, a, b) })
	r.fused(tr, round, sp, p, a, b)
}

// termCounts is how many A-, B- and C-side terms a plan's fused products
// carry on average: the variant decides which sides are fused at all.
func termCounts[E matrix.Element](p *fmmexec.Plan[E]) (na, nb, nc int) {
	u, v, w := p.Flat.NNZ()
	mean := func(nnz int) int { return int(math.Max(1, math.Round(float64(nnz)/float64(p.Flat.R)))) }
	switch p.Variant {
	case fmmexec.ABC:
		return mean(u), mean(v), mean(w)
	case fmmexec.AB:
		return mean(u), mean(v), 1
	}
	return 1, 1, 1
}

// blockTerms is the first n blocks of m's rows×cols partition, as unit
// terms; n is capped at the number of blocks.
func blockTerms[E matrix.Element](m matrix.Mat[E], rows, cols, n int) []gemm.Term[E] {
	gr, gc := m.Rows/rows, m.Cols/cols
	var ts []gemm.Term[E]
	for i := 0; i < gr*gc && len(ts) < n; i++ {
		ts = append(ts, gemm.Term[E]{Coef: 1, M: m.View((i/gc)*rows, (i%gc)*cols, rows, cols)})
	}
	return ts
}

// fused replays the gemm layer under a Plan.MulAdd span: one fused product
// of the plan's sub-block size, standing for the R the plan issues.
func (r *replayer[E]) fused(tr *tracer, round, parent int, p *fmmexec.Plan[E], a, b matrix.Mat[E]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	sm, sk, sn := m/p.Flat.M, k/p.Flat.K, n/p.Flat.N
	ctx := p.Context()
	c := r.c(m, n)
	var at, bt, ct []gemm.Term[E]
	calls := 1.0
	if sm == 0 || sk == 0 || sn == 0 {
		// The partition is larger than the problem: the plan ran plain GEMM.
		sm, sk, sn = m, k, n
		at, bt, ct = gemm.SingleTerm(a), gemm.SingleTerm(b), gemm.SingleTerm(c)
	} else {
		na, nb, nc := termCounts(p)
		at, bt, ct = blockTerms(a, sm, sk, na), blockTerms(b, sk, sn, nb), blockTerms(c, sm, sn, nc)
		calls = float64(p.Flat.R)
	}
	sp := tr.replay(round, parent, "gemm.Context.FusedMulAdd", calls, func() { ctx.FusedMulAdd(ct, at, bt) })
	r.blocks(tr, round, sp, ctx, ct, at, bt)
}

// blocks replays the kernel layer under a FusedMulAdd span: the packing of
// one B̃ panel and one Ã block, and the micro-kernel and scatter sweeps over
// the macro-block they feed.
func (r *replayer[E]) blocks(tr *tracer, round, parent int, ctx *gemm.Context[E], ct, at, bt []gemm.Term[E]) {
	bk, cfg := ctx.Backend(), ctx.Config()
	m, k, n := at[0].M.Rows, at[0].M.Cols, bt[0].M.Cols
	mc, kc, nc := min(cfg.MC, m), min(cfg.KC, k), min(cfg.NC, n)
	mr, nr := bk.MR(), bk.NR()
	r.abuf = grown(r.abuf, bk.PackABufLen(mc, kc), bk.Align())
	r.bbuf = grown(r.bbuf, bk.PackBBufLen(kc, nc), bk.Align())
	r.acc = grown(r.acc, mr*nr, bk.Align())
	abuf, bbuf, acc := r.abuf, r.bbuf, r.acc

	ceil := func(x, y int) float64 { return math.Ceil(float64(x) / float64(y)) }
	panels := ceil(n, cfg.NC) * ceil(k, cfg.KC) // B̃ panels per fused call
	rowBlocks := ceil(m, cfg.MC)                // Ã blocks per B̃ panel
	th := float64(cfg.Threads)
	bSide := math.Min(th, ceil(nc, nr))
	aSide := math.Min(th, rowBlocks)

	tr.replay(round, parent, "kernel.PackB", panels/bSide, func() { bk.PackB(bbuf, bt, 0, 0, kc, nc) })
	tr.replay(round, parent, "kernel.PackA", panels*rowBlocks/aSide, func() { bk.PackA(abuf, at, 0, 0, mc, kc) })
	tr.replay(round, parent, "kernel.Micro", panels*rowBlocks/aSide, func() {
		for jr := 0; jr < nc; jr += nr {
			for ir := 0; ir < mc; ir += mr {
				bk.Micro(kc, abuf[(ir/mr)*mr*kc:], bbuf[(jr/nr)*kc*nr:], acc)
			}
		}
	})
	tr.replay(round, parent, "kernel.Scatter", panels*rowBlocks/aSide, func() {
		for jr := 0; jr < nc; jr += nr {
			for ir := 0; ir < mc; ir += mr {
				for _, t := range ct {
					bk.Scatter(t.M, ir, jr, t.Coef, acc, min(mr, mc-ir), min(nr, nc-jr))
				}
			}
		}
	})
}

func (r *replayer[E]) close() {
	r.mu.Close()
	r.serial.Close()
}

// batchReplayStride: every how many jobs of a batch the replay takes one
// apart (each then stands for that many).
const batchReplayStride = 8

// replay takes a traced small_batch round apart: the scheduler's cost for
// the two job lists, then every eighth job's plan and below, on the serial
// twin as MulAddBatch runs them.
func (b *batch) replay(tr *tracer, id, root int) {
	if b.rep64 == nil {
		b.rep64, b.rep32 = newReplayer[float64](b.cfg), newReplayer[float32](b.cfg)
	}
	for _, n := range []int{len(b.s64.jobs), len(b.s32.jobs)} {
		noop := make([]sched.Job, n)
		for i := range noop {
			noop[i] = sched.Job{Cost: 1, Run: func() {}}
		}
		tr.replay(id, root, "sched.Run", 1, func() { sched.Run(b.cfg.Threads, noop) })
	}
	scale := float64(batchReplayStride) / float64(b.cfg.Threads)
	for i := 0; i < len(b.s64.jobs); i += batchReplayStride {
		b.rep64.below(tr, id, root, b.s64.jobs[i].A, b.s64.jobs[i].B, true, scale)
	}
	for i := 0; i < len(b.s32.jobs); i += batchReplayStride {
		b.rep32.below(tr, id, root, b.s32.jobs[i].A, b.s32.jobs[i].B, true, scale)
	}
}

// wireReplayer holds what the wire_mix replay calls into: direct
// multipliers with the server's configuration, at both dtypes.
type wireReplayer struct {
	r64 *replayer[float64]
	r32 *replayer[float32]
}

// replay takes traced requests apart. Under each request's HTTP round trip
// it replays the handler (Server.ServeHTTP into an in-memory recorder, no
// socket); under the handler, the decode of every frame, the engine call
// the handler makes, and the encode of every result; under the engine call,
// the first frame's plan and below (standing for all frames).
func (w *wireMix) replay(tr *tracer, id int, reqs []wireReplay) {
	if w.rep == nil {
		w.rep = &wireReplayer{r64: newReplayer[float64](w.cfg), r32: newReplayer[float32](w.cfg)}
	}
	for _, rp := range reqs {
		rq := rp.rq
		body := appendRequest(nil, rq)
		handler := tr.replay(id, rp.roundtrip, "serve.Server.ServeHTTP", 1, func() {
			req := httptest.NewRequest(http.MethodPost, rq.path(), bytes.NewReader(body))
			w.h.Server.ServeHTTP(httptest.NewRecorder(), req)
		})
		frames := body
		if rq.class == classBatch {
			frames = body[4:]
		}
		o := rq.owner
		var jobs64 []fmmfam.BatchJob
		var jobs32 []fmmfam.BatchJob32
		for _, f := range rq.frames {
			m, k, n := o.dims(rq.class, f)
			fl := frameHeaderLen + (m*k+k*n)*f.dt.Size()
			frame := frames[:fl]
			frames = frames[fl:]
			tr.replay(id, handler, "wire.DecodeRequest", 1, func() { serve.DecodeRequest(frame) })
			switch {
			case rq.class == classBig:
				p := o.big[f.idx]
				jobs64 = append(jobs64, fmmfam.BatchJob{C: w.rep.r64.c(m, n), A: p.a, B: p.b})
			case f.dt == matrix.Float32:
				p := o.small32[f.idx]
				jobs32 = append(jobs32, fmmfam.BatchJob32{C: matrix.New[float32](m, n), A: p.a, B: p.b})
			default:
				p := o.small64[f.idx]
				jobs64 = append(jobs64, fmmfam.BatchJob{C: matrix.New[float64](m, n), A: p.a, B: p.b})
			}
		}
		side := math.Min(float64(w.cfg.Threads), float64(len(rq.frames)))
		if rq.class == classBig {
			j := jobs64[0]
			sp := tr.replay(id, handler, "multiplier.MulAdd", 1, func() { w.rep.r64.mu.MulAdd(j.C, j.A, j.B) })
			w.rep.r64.below(tr, id, sp, j.A, j.B, false, 1)
		} else {
			if len(jobs64) > 0 {
				sp := tr.replay(id, handler, "multiplier.MulAddBatch", 1, func() { w.rep.r64.mu.MulAddBatch(jobs64) })
				w.rep.r64.below(tr, id, sp, jobs64[0].A, jobs64[0].B, true, float64(len(jobs64))/side)
			}
			if len(jobs32) > 0 {
				sp := tr.replay(id, handler, "multiplier.MulAddBatch", 1, func() { w.rep.r32.mu.MulAddBatch(jobs32) })
				w.rep.r32.below(tr, id, sp, jobs32[0].A, jobs32[0].B, true, float64(len(jobs32))/side)
			}
		}
		for _, j := range jobs64 {
			tr.replay(id, handler, "wire.AppendResult", 1, func() { serve.AppendResult(nil, j.C) })
		}
		for _, j := range jobs32 {
			tr.replay(id, handler, "wire.AppendResult", 1, func() { serve.AppendResult(nil, j.C) })
		}
	}
}
