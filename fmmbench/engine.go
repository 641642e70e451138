package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fmmfam"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/sched"
	"fmmfam/internal/shard"
)

// totalAlloc reads the process's cumulative allocated bytes. It stops the
// world, so callers read it outside every timed interval.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gemmConfig is the plain-GEMM baseline's configuration for a multiplier
// configuration: same kernel, blocking and Threads.
func gemmConfig(cfg fmmfam.Config) gemm.Config {
	return gemm.Config{MC: cfg.MC, KC: cfg.KC, NC: cfg.NC, Threads: cfg.Threads, Kernel: cfg.Kernel}
}

// single is a one-product workload: one closed-loop caller, round = one
// MulAdd (or package-level Multiply) of a fixed float64 shape.
type single struct {
	cfg        fmmfam.Config
	m, k, n    int
	usePackage bool // default_square: package-level fmmfam.Multiply

	a, b, c, cg matrix.Mat[float64]
	fv          freivalds

	mu  *fmmfam.Multiplier
	ctx *gemm.Context[float64]
	rep *replayer[float64] // built on the first traced round
}

func newSingle(seed int64, cfg fmmfam.Config, m, k, n int, usePackage bool) *single {
	rng := rand.New(rand.NewSource(seed))
	s := &single{cfg: cfg, m: m, k: k, n: n, usePackage: usePackage}
	s.a, s.b = matrix.New[float64](m, k), matrix.New[float64](k, n)
	s.a.FillRand(rng)
	s.b.FillRand(rng)
	s.c = matrix.New[float64](m, n)
	s.fv = newFreivalds(rng, s.a, s.b)
	return s
}

func (s *single) shapes() []shapeRec {
	ep := "MulAdd"
	if s.usePackage {
		ep = "Multiply"
	}
	return []shapeRec{prod[float64]{a: s.a, b: s.b}.rec(ep)}
}

func (s *single) op() error {
	if s.usePackage {
		return fmmfam.Multiply(s.c, s.a, s.b)
	}
	return s.mu.MulAdd(s.c, s.a, s.b)
}

func (s *single) coldStart() error {
	if !s.usePackage {
		s.mu = fmmfam.NewMultiplier(s.cfg, fmmfam.PaperArch())
	}
	return s.op()
}

func (s *single) prepare() error {
	if !s.fv.ok(s.c) {
		return fmt.Errorf("cold %dx%dx%d product failed the Freivalds probe", s.m, s.k, s.n)
	}
	ctx, err := gemm.NewContext[float64](gemmConfig(s.cfg))
	if err != nil {
		return err
	}
	s.ctx = ctx
	s.cg = matrix.New[float64](s.m, s.n)
	s.ctx.MulAdd(s.cg, s.a, s.b) // fill the baseline's workspace pool
	if !s.fv.ok(s.cg) {
		return fmt.Errorf("baseline GEMM %dx%dx%d failed the Freivalds probe", s.m, s.k, s.n)
	}
	return nil
}

func (s *single) round(tr *tracer, id int) roundResult {
	r := roundResult{ops: 1}
	s.c.Zero()
	r.host[0] = hostSpeed(s.cfg.Threads)
	a0 := totalAlloc()
	sp := tr.start(id, -1, "multiplier.MulAdd")
	t0 := time.Now()
	err := s.op()
	r.opSec = time.Since(t0).Seconds()
	tr.end(sp)
	r.alloc = totalAlloc() - a0
	r.host[1] = hostSpeed(s.cfg.Threads)

	s.cg.Zero()
	t0 = time.Now()
	s.ctx.MulAdd(s.cg, s.a, s.b)
	r.gemmSec = time.Since(t0).Seconds()

	if err != nil || !s.fv.ok(s.c) {
		r.failed = 1
	} else {
		r.flops = 2 * float64(s.m) * float64(s.k) * float64(s.n)
	}
	r.allMS = []float64{r.opSec * 1e3}
	if tr != nil {
		if s.rep == nil {
			s.rep = newReplayer[float64](s.cfg)
		}
		s.rep.below(tr, id, sp, s.a, s.b, false, 1)
	}
	return r
}

// archFor is the Arch a multiplier built from (cfg, PaperArch) prices
// products of one dtype with; NewGenericMultiplier derives it the same way.
func archFor(cfg fmmfam.Config, dt matrix.Dtype) fmmfam.Arch {
	return model.ArchForKernel(model.ArchForDtype(fmmfam.PaperArch(), dt), cfg.Kernel)
}

// sharder repeats the multiplier's sharding decision from exported parts
// (the multiplier's own is unexported), so the env block can say whether —
// and how — an op sharded, and the shard layer can be timed on its own.
type sharder struct {
	cfg     fmmfam.Config
	arch    fmmfam.Arch
	minTile int // the model's fast-algorithm break-even; the multiplier computes it once, too
}

func newSharder(cfg fmmfam.Config, dt matrix.Dtype) sharder {
	arch := archFor(cfg, dt)
	return sharder{cfg: cfg, arch: arch, minTile: model.BreakEvenSquare(arch, model.DefaultCandidates())}
}

// considers reports whether MulAdd would ask shard.Split at all.
func (s sharder) considers(m, k, n int) bool {
	thr := fmmfam.DefaultShardThreshold
	return s.cfg.Threads >= 2 && (m >= thr || n >= thr || k >= thr)
}

func (s sharder) split(m, k, n int) (shard.Spec, bool) {
	if !s.considers(m, k, n) {
		return shard.Spec{}, false
	}
	return shard.Split(m, k, n, shard.Options{
		Workers: s.cfg.Threads,
		MinTile: s.minTile,
		KSplit:  true,
		Cost: func(gm, gn, gk int) float64 {
			return model.ShardMakespan(s.arch, m, k, n, gm, gn, gk, s.cfg.Threads)
		},
	})
}

func traversalString(steps []fmmexec.Step) string {
	if len(steps) == 0 {
		return "dfs"
	}
	s := ""
	for i, st := range steps {
		if i > 0 {
			s += "+"
		}
		s += st.String()
	}
	return s
}

func (s *single) describe() sysInfo {
	info := sysInfo{Threads: s.cfg.Threads, Sharded: "no"}
	mu := s.mu
	if s.usePackage {
		// The package-level multiplier is not reachable; an identically
		// configured one resolves the same kernel and selects the same plan.
		mu = fmmfam.NewMultiplier(s.cfg, fmmfam.PaperArch())
	}
	info.Kernel = mu.Stats().Kernel
	pm, pk, pn := s.m, s.k, s.n
	if spec, ok := newSharder(s.cfg, matrix.Float64).split(s.m, s.k, s.n); ok {
		info.Sharded = spec.String()
		t := spec.Tiles()[0]
		pm, pk, pn = t.Rows, t.Depth, t.Cols
		cfg := s.cfg
		cfg.Threads = 1 // tiles run on the serial twin
		mu = fmmfam.NewMultiplier(cfg, fmmfam.PaperArch())
	}
	if p, err := mu.PlanFor(pm, pk, pn); err == nil {
		info.Plan = p.String()
		info.Traversal = traversalString(p.Traversal())
	}
	return info
}

// cachedPlans is 0 for default_square: the package-level multiplier is not
// reachable through the exported API.
func (s *single) cachedPlans() int {
	if s.mu == nil {
		return 0
	}
	return s.mu.CachedPlans()
}

func (s *single) probe() probeShape {
	return probeShape{m: s.m, k: s.k, n: s.n, threads: s.cfg.Threads, kernel: s.cfg.Kernel}
}

func (s *single) close() error {
	if s.rep != nil {
		s.rep.close()
	}
	if s.mu != nil {
		return s.mu.Close()
	}
	return nil
}

// jobSet is the half of small_batch that shares an element type: the jobs,
// their Kahan references, the multiplier under test and the Threads=1 GEMM
// context of the paired baseline.
type jobSet[E matrix.Element] struct {
	prods []prod[E]
	jobs  []fmmfam.GenericBatchJob[E]
	gc    []matrix.Mat[E] // the baseline's C matrices
	mu    *fmmfam.GenericMultiplier[E]
	ctx   *gemm.Context[E]
}

func (js *jobSet[E]) add(p prod[E]) {
	js.prods = append(js.prods, p)
	js.jobs = append(js.jobs, fmmfam.GenericBatchJob[E]{C: matrix.New[E](p.a.Rows, p.b.Cols), A: p.a, B: p.b})
}

func (js *jobSet[E]) cold(cfg fmmfam.Config) error {
	js.mu = fmmfam.NewGenericMultiplier[E](cfg, fmmfam.PaperArch())
	return js.mu.MulAddBatch(js.jobs)
}

// prepare computes the Kahan references and the baseline context, then
// checks the cold results.
func (js *jobSet[E]) prepare(cfg fmmfam.Config) error {
	gcfg := gemmConfig(cfg)
	gcfg.Threads = 1
	ctx, err := gemm.NewContext[E](gcfg)
	if err != nil {
		return err
	}
	js.ctx = ctx
	refs := make([]sched.Job, len(js.prods))
	for i := range js.prods {
		p := &js.prods[i]
		p.ref = matrix.New[E](p.a.Rows, p.b.Cols)
		js.gc = append(js.gc, matrix.New[E](p.a.Rows, p.b.Cols))
		refs[i] = sched.Job{Cost: int64(p.flops()), Run: func() { matrix.MulAddKahan(p.ref, p.a, p.b) }}
	}
	sched.Run(cfg.Threads, refs)
	if bad := js.verify(); bad > 0 {
		return fmt.Errorf("%d of %d cold %s batch jobs missed their Kahan reference", bad, len(js.jobs), matrix.DtypeOf[E]())
	}
	return nil
}

func (js *jobSet[E]) zero() {
	for i := range js.jobs {
		js.jobs[i].C.Zero()
		js.gc[i].Zero()
	}
}

// baseline runs the same jobs as plain GEMM: one Threads=1 context under
// the scheduler MulAddBatch itself uses.
func (js *jobSet[E]) baseline(workers int) {
	jobs := make([]sched.Job, len(js.prods))
	for i := range js.prods {
		p, c := js.prods[i], js.gc[i]
		jobs[i] = sched.Job{Cost: int64(p.flops()), Run: func() { js.ctx.MulAdd(c, p.a, p.b) }}
	}
	sched.Run(workers, jobs)
}

// verify counts the jobs whose C is not within tolerance of the reference.
func (js *jobSet[E]) verify() (bad int) {
	for i, p := range js.prods {
		if d := js.jobs[i].C.MaxAbsDiff(p.ref); !(d <= relTol[E](p.a.Cols)*math.Max(1, p.ref.MaxAbs())) {
			bad++
		}
	}
	return bad
}

func (js *jobSet[E]) flops() (f float64) {
	for _, p := range js.prods {
		f += p.flops()
	}
	return f
}

// batch is small_batch: 256 independent jobs, alternating float64/float32,
// round = one MulAddBatch per dtype over the same job list.
type batch struct {
	cfg   fmmfam.Config
	order []shapeRec
	s64   jobSet[float64]
	s32   jobSet[float32]
	rep64 *replayer[float64] // built on the first traced round
	rep32 *replayer[float32]
}

const (
	batchJobs        = 256
	batchLo, batchHi = 16, 192
)

func newBatch(seed int64, cfg fmmfam.Config) *batch {
	rng := rand.New(rand.NewSource(seed))
	b := &batch{cfg: cfg}
	// Shapes and order are fixed (gridDims): which plans the LRU plan cache
	// evicts, and so how much a round allocates, depends on the order the
	// shape classes come in. The seed draws the data.
	for i := 0; i < batchJobs; i++ {
		m, k, n := gridDims(i, batchLo, batchHi)
		if i%2 == 0 {
			p := newProd[float64](rng, m, k, n)
			b.s64.add(p)
			b.order = append(b.order, p.rec("MulAddBatch"))
		} else {
			p := newProd[float32](rng, m, k, n)
			b.s32.add(p)
			b.order = append(b.order, p.rec("MulAddBatch"))
		}
	}
	return b
}

func (b *batch) shapes() []shapeRec { return b.order }

func (b *batch) coldStart() error {
	if err := b.s64.cold(b.cfg); err != nil {
		return err
	}
	return b.s32.cold(b.cfg)
}

func (b *batch) prepare() error {
	if err := b.s64.prepare(b.cfg); err != nil {
		return err
	}
	return b.s32.prepare(b.cfg)
}

func (b *batch) round(tr *tracer, id int) roundResult {
	r := roundResult{ops: len(b.s64.jobs) + len(b.s32.jobs)}
	b.s64.zero()
	b.s32.zero()
	r.host[0] = hostSpeed(b.cfg.Threads)
	a0 := totalAlloc()
	sp := tr.start(id, -1, "multiplier.MulAddBatch")
	t0 := time.Now()
	err64 := b.s64.mu.MulAddBatch(b.s64.jobs)
	t1 := time.Now()
	err32 := b.s32.mu.MulAddBatch(b.s32.jobs)
	t2 := time.Now()
	tr.end(sp)
	r.alloc = totalAlloc() - a0
	r.opSec = t2.Sub(t0).Seconds()
	r.allMS = []float64{t1.Sub(t0).Seconds() * 1e3, t2.Sub(t1).Seconds() * 1e3}
	r.host[1] = hostSpeed(b.cfg.Threads)

	t0 = time.Now()
	b.s64.baseline(b.cfg.Threads)
	b.s32.baseline(b.cfg.Threads)
	r.gemmSec = time.Since(t0).Seconds()

	if err64 != nil || err32 != nil {
		r.failed = r.ops
	} else {
		r.failed = b.s64.verify() + b.s32.verify()
	}
	if r.failed == 0 {
		r.flops = b.s64.flops() + b.s32.flops()
	}
	if tr != nil {
		b.replay(tr, id, sp)
	}
	return r
}

func (b *batch) cachedPlans() int { return b.s64.mu.CachedPlans() + b.s32.mu.CachedPlans() }

func (b *batch) describe() sysInfo {
	info := sysInfo{Threads: b.cfg.Threads, Sharded: "no", Kernel: b.s64.mu.Stats().Kernel}
	pr := b.probe()
	cfg := b.cfg
	cfg.Threads = 1 // batch jobs run on the serial twin
	if p, err := fmmfam.NewMultiplier(cfg, fmmfam.PaperArch()).PlanFor(pr.m, pr.k, pr.n); err == nil {
		info.Plan = fmt.Sprintf("%s at %dx%dx%d", p, pr.m, pr.k, pr.n)
		info.Traversal = traversalString(p.Traversal())
	}
	return info
}

// probe is the middle of the job range on one serial-twin thread.
func (b *batch) probe() probeShape {
	mid := (batchLo + batchHi) / 2
	return probeShape{m: mid, k: mid, n: mid, threads: 1, kernel: b.cfg.Kernel}
}

func (b *batch) close() error {
	if b.rep64 != nil {
		b.rep64.close()
		b.rep32.close()
	}
	if b.s64.mu == nil {
		return nil
	}
	if err := b.s64.mu.Close(); err != nil {
		return err
	}
	return b.s32.mu.Close()
}
