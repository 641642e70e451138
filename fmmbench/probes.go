package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"fmmfam"
	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/sched"
	"fmmfam/serve"
)

// The layer probes time calls into each layer's exported functions. Peak
// rates (micro-kernel, packing, codec) take the fastest repetition; times
// that a request would wait for take the median.

// timeReps calls f at least minReps times and until budget has passed, and
// returns each call's seconds.
func timeReps(minReps int, budget time.Duration, f func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		f()
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}

// probeBudget is the time one cheap probe may repeat for.
const probeBudget = 40 * time.Millisecond

// kernelProbes measures the backend the workload's kernel name resolves to,
// on the default blocking's one-block shapes.
func kernelProbes(vals map[string]float64, rng *rand.Rand, name string) {
	vals["kernel.micro_gflops_f64"] = microGflops[float64](rng, name)
	vals["kernel.micro_gflops_f32"] = microGflops[float32](rng, name)

	cfg := gemm.DefaultConfig()
	bk := kernel.MustResolve[float64](name)
	// Sources several blocks large, so a sweep reads from cache levels as a
	// product's packing does, not one block from L1.
	const srcBlocks = 8
	var a3, b3 []kernel.Term[float64]
	for i := 0; i < 3; i++ {
		ma, mb := matrix.New[float64](srcBlocks*cfg.MC, cfg.KC), matrix.New[float64](cfg.KC, srcBlocks*cfg.NC/4)
		ma.FillRand(rng)
		mb.FillRand(rng)
		a3 = append(a3, kernel.Term[float64]{Coef: 1, M: ma})
		b3 = append(b3, kernel.Term[float64]{Coef: 1, M: mb})
	}
	ncB := cfg.NC / 4
	abuf := alignedBuf[float64](bk.PackABufLen(cfg.MC, cfg.KC), bk.Align())
	bbuf := alignedBuf[float64](bk.PackBBufLen(cfg.KC, ncB), bk.Align())
	for _, terms := range []int{1, 3} {
		suffix := "_" + strconv.Itoa(terms) + "term"
		ta := timeReps(3, probeBudget, func() {
			for blk := 0; blk < srcBlocks; blk++ {
				bk.PackA(abuf, a3[:terms], blk*cfg.MC, 0, cfg.MC, cfg.KC)
			}
		})
		vals["kernel.pack_a_gbs"+suffix] = float64(terms*srcBlocks*cfg.MC*cfg.KC*8) / minOf(ta) / 1e9
		tb := timeReps(3, probeBudget, func() {
			for blk := 0; blk < srcBlocks; blk++ {
				bk.PackB(bbuf, b3[:terms], 0, blk*ncB, cfg.KC, ncB)
			}
		})
		vals["kernel.pack_b_gbs"+suffix] = float64(terms*srcBlocks*cfg.KC*ncB*8) / minOf(tb) / 1e9
	}

	// Scatter: one accumulator tile added into every tile of an MC×NC block
	// of C; the rate counts the C bytes updated.
	c := matrix.New[float64](cfg.MC, cfg.NC)
	acc := alignedBuf[float64](bk.MR()*bk.NR(), bk.Align())
	for i := range acc {
		acc[i] = rng.Float64()
	}
	mr, nr := bk.MR(), bk.NR()
	ts := timeReps(3, probeBudget, func() {
		for jr := 0; jr+nr <= cfg.NC; jr += nr {
			for ir := 0; ir+mr <= cfg.MC; ir += mr {
				bk.Scatter(c, ir, jr, 1, acc, mr, nr)
			}
		}
	})
	vals["kernel.scatter_gbs"] = float64((cfg.MC/mr)*mr*(cfg.NC/nr)*nr*8) / minOf(ts) / 1e9
}

// microGflops is Backend.Micro on L1-resident packed panels with kc = KC:
// the peak every fraction of peak is taken against, measured in this run.
func microGflops[E matrix.Element](rng *rand.Rand, name string) float64 {
	bk, err := kernel.Resolve[E](name)
	if err != nil {
		return 0
	}
	kc := gemm.DefaultConfig().KC
	ap := alignedBuf[E](bk.MR()*kc, bk.Align())
	bp := alignedBuf[E](bk.NR()*kc, bk.Align())
	acc := alignedBuf[E](bk.MR()*bk.NR(), bk.Align())
	for i := range ap {
		ap[i] = E(rng.Float64())
	}
	for i := range bp {
		bp[i] = E(rng.Float64())
	}
	const calls = 2000
	t := timeReps(3, probeBudget, func() {
		for i := 0; i < calls; i++ {
			bk.Micro(kc, ap, bp, acc)
		}
	})
	return 2 * float64(bk.MR()*bk.NR()*kc) * calls / minOf(t) / 1e9
}

// schedProbes: 1 024 no-op jobs through the two dispatch mechanisms.
func schedProbes(vals map[string]float64, workers int) {
	jobs := make([]sched.Job, 1024)
	for i := range jobs {
		jobs[i] = sched.Job{Cost: 1, Run: func() {}}
	}
	t := timeReps(5, probeBudget, func() { sched.Run(workers, jobs) })
	vals["sched.run_overhead_us_per_job"] = median(t) * 1e6 / float64(len(jobs))
	pool := sched.NewPool(workers)
	t = timeReps(5, probeBudget, func() { pool.Run(jobs) })
	vals["sched.pool_overhead_us_per_job"] = median(t) * 1e6 / float64(len(jobs))
}

// wireProbes: the four codec entry points on a 128³ float64 product.
func wireProbes(vals map[string]float64, rng *rand.Rand) {
	p := newProd[float64](rng, 128, 128, 128)
	c := matrix.New[float64](128, 128)
	c.FillRand(rng)
	req := serve.AppendRequest(nil, p.a, p.b)
	res := serve.AppendResult(nil, c)
	buf := make([]byte, 0, len(req))
	gbs := func(n int, f func()) float64 { return float64(n) / minOf(timeReps(20, probeBudget, f)) / 1e9 }
	vals["wire.encode_req_gbs"] = gbs(len(req), func() { serve.AppendRequest(buf[:0], p.a, p.b) })
	vals["wire.decode_req_gbs"] = gbs(len(req), func() { serve.DecodeRequest(req) })
	vals["wire.encode_res_gbs"] = gbs(len(res), func() { serve.AppendResult(buf[:0], c) })
	vals["wire.decode_res_gbs"] = gbs(len(res), func() { serve.DecodeResult[float64](res) })
}

// contender is one way of computing the probe product, timed against the
// others.
type contender struct {
	name  string
	f     func()
	sec   float64 // fastest repetition
	alloc float64 // bytes allocated by the last repetition (pools are full by then)
	err   float64 // relative error of the first repetition's result
}

// race times the contenders round-robin, at least twice each and until
// budget has passed, and keeps each one's fastest repetition: drift on a
// shared host then hits all of them alike, and the first repetition, which
// builds state and fills pools, never decides a ratio. c is the matrix they
// all accumulate into; it is zeroed before a contender's first repetition,
// whose result ref scores.
func race(budget time.Duration, c matrix.Mat[float64], ref errRef, cs ...*contender) {
	start := time.Now()
	for rep := 0; rep < 2 || time.Since(start) < budget; rep++ {
		for _, ct := range cs {
			if rep == 0 {
				c.Zero()
				ct.sec = math.Inf(1)
			}
			a0 := totalAlloc()
			t0 := time.Now()
			ct.f()
			ct.sec = math.Min(ct.sec, time.Since(t0).Seconds())
			ct.alloc = float64(totalAlloc() - a0)
			if rep == 0 {
				ct.err = ref.relErr(c)
			}
		}
	}
}

// shapeProbes measures gemm, fmmexec, model, multiplier and shard on the
// workload's probe shape, kernel and thread count. budget is how long the
// implementations of that shape race for (two laps are always run).
func shapeProbes(vals map[string]float64, rng *rand.Rand, pr probeShape, budget time.Duration) error {
	m, k, n := pr.m, pr.k, pr.n
	flops := 2 * float64(m) * float64(k) * float64(n)
	gflops := func(ct *contender) float64 { return flops / ct.sec / 1e9 }
	cfg := fmmfam.DefaultConfig()
	cfg.Threads, cfg.Kernel = pr.threads, pr.kernel
	gcfg := gemmConfig(cfg)
	p := newProd[float64](rng, m, k, n)
	c := matrix.New[float64](m, n)
	ref := newErrRef(rng, p)

	ctx, err := gemm.NewContext[float64](gcfg)
	if err != nil {
		return err
	}
	mu := fmmfam.NewMultiplier(cfg, fmmfam.PaperArch())
	defer mu.Close()
	t0 := time.Now()
	plan, err := mu.PlanFor(m, k, n) // cold, on a fresh Multiplier
	if err != nil {
		return err
	}
	vals["multiplier.plan_build_ms"] = time.Since(t0).Seconds() * 1e3

	plain := &contender{name: "GEMM", f: func() { ctx.MulAdd(c, p.a, p.b) }}
	sel := &contender{name: plan.String(), f: func() { plan.MulAdd(c, p.a, p.b) }}
	full := &contender{name: "MulAdd", f: func() { mu.MulAdd(c, p.a, p.b) }}
	field := []*contender{plain, sel, full}

	// One-level Strassen in each variant: Fig 6's comparison.
	strassen := make(map[fmmexec.Variant]*contender)
	for _, v := range fmmexec.Variants {
		sp, err := fmmexec.NewPlan[float64](gcfg, v, core.Strassen())
		if err != nil {
			return err
		}
		strassen[v] = &contender{name: sp.String(), f: func() { sp.MulAdd(c, p.a, p.b) }}
		field = append(field, strassen[v])
	}

	// The model's next three candidates, built as the multiplier would.
	arch := archFor(cfg, matrix.Float64)
	ranked := model.Rank(arch, model.DefaultCandidates(), m, k, n)
	var rivals []*contender
	for _, r := range ranked[1:min(4, len(ranked))] {
		steps := model.TraversalPlan(arch, r.Candidate.Variant, pow2Bucket(m), pow2Bucket(k), pow2Bucket(n), r.Candidate.Levels, pr.threads)
		cp, err := fmmexec.NewPlanTraversal[float64](gcfg, r.Candidate.Variant, steps, r.Candidate.Levels...)
		if err != nil {
			return err
		}
		rivals = append(rivals, &contender{name: cp.String(), f: func() { cp.MulAdd(c, p.a, p.b) }})
	}
	field = append(field, rivals...)

	// The same op with sharding off, when it shards.
	sh := newSharder(cfg, matrix.Float64)
	spec, sharded := sh.split(m, k, n)
	var whole *contender
	if sharded {
		off := cfg
		off.ShardThreshold = -1
		wm := fmmfam.NewMultiplier(off, fmmfam.PaperArch())
		defer wm.Close()
		whole = &contender{name: "unsharded", f: func() { wm.MulAdd(c, p.a, p.b) }}
		field = append(field, whole)
	}

	// The same op on one thread, when it has more.
	var solo *contender
	if pr.threads > 1 {
		one := cfg
		one.Threads = 1
		sm := fmmfam.NewMultiplier(one, fmmfam.PaperArch())
		defer sm.Close()
		solo = &contender{name: "MulAdd x1", f: func() { sm.MulAdd(c, p.a, p.b) }}
		field = append(field, solo)
	}

	race(budget, c, ref, field...)

	vals["gemm.eff_gflops"] = gflops(plain)
	vals["gemm.frac_of_micro_peak"] = gflops(plain) / (float64(pr.threads) * vals["kernel.micro_gflops_f64"])
	vals["gemm.alloc_bytes_per_op"] = plain.alloc
	ceil := func(x, y int) float64 { return math.Ceil(float64(x) / float64(y)) }
	bytes := 8 * (float64(m*k)*ceil(n, cfg.NC) + float64(k*n) + 2*float64(m*n)*ceil(k, cfg.KC))
	vals["gemm.ops_per_byte_computed"] = flops / bytes

	vals["fmmexec.plan_eff_gflops"] = gflops(sel)
	vals["fmmexec.alloc_bytes_per_op"] = sel.alloc
	vals["fmmexec.rel_err_max"] = sel.err
	for v, ct := range strassen {
		vals["fmmexec."+strings.ToLower(v.String())+"_eff_gflops"] = gflops(ct)
		vals["fmmexec.rel_err_max"] = math.Max(vals["fmmexec.rel_err_max"], ct.err)
	}

	vals["model.select_us"] = median(timeReps(3, probeBudget, func() { fmmfam.Recommend(arch, m, k, n) })) * 1e6
	vals["model.pred_over_meas"] = ranked[0].Predicted / sel.sec
	one := gcfg
	one.Threads = 1
	cal, err := model.Calibrate[float64](one, 256)
	if err != nil {
		return err
	}
	cand := ranked[0].Candidate
	vals["model.pred_over_meas_calibrated"] = model.Predict(cal, cand.Stats(), cand.Variant, m, k, n).Total() / sel.sec
	best := math.Min(sel.sec, plain.sec)
	for _, r := range rivals {
		best = math.Min(best, r.sec)
	}
	vals["model.selection_regret"] = sel.sec / best

	// MulAdd against the plan it dispatches to, called directly. An op that
	// shards runs other plans on other threads, so there the comparison is
	// made on the sharding-off twin, whose MulAdd runs this very plan. The
	// two race on their own: the dispatch does not survive a lap through the
	// whole field between the two timings.
	dispatch := &contender{f: full.f}
	if sharded {
		dispatch.f = whole.f
	}
	direct := &contender{f: sel.f}
	race(budget/4, c, ref, dispatch, direct)
	vals["multiplier.dispatch_overhead_us"] = (dispatch.sec - direct.sec) * 1e6
	const lookups = 10000
	vals["multiplier.plan_lookup_ns"] = minOf(timeReps(3, probeBudget, func() {
		for i := 0; i < lookups; i++ {
			mu.PlanFor(m, k, n)
		}
	})) / lookups * 1e9
	if solo != nil {
		vals["multiplier.parallel_efficiency"] = solo.sec / (float64(pr.threads) * full.sec)
	}

	vals["shard.split_us"] = median(timeReps(3, probeBudget, func() { sh.split(m, k, n) })) * 1e6
	vals["shard.tiles"], vals["shard.sharded_over_unsharded"] = 1, 1
	if sharded {
		vals["shard.tiles"] = float64(spec.NumTiles())
		vals["shard.sharded_over_unsharded"] = full.sec / whole.sec
	}

	// gemm.fused_overhead: a fused product with two terms on every side over
	// a plain one, on the same half-size blocks.
	vals["gemm.fused_overhead"] = 1
	if hm, hk, hn := m/2, k/2, n/2; hm > 0 && hk > 0 && hn > 0 {
		at, bt, ct := blockTerms(p.a, hm, hk, 2), blockTerms(p.b, hk, hn, 2), blockTerms(c, hm, hn, 2)
		fused := &contender{f: func() { ctx.FusedMulAdd(ct, at, bt) }}
		single := &contender{f: func() { ctx.MulAdd(ct[0].M, at[0].M, bt[0].M) }}
		race(budget/4, c, ref, fused, single)
		vals["gemm.fused_overhead"] = fused.sec / single.sec
	}
	return nil
}

// fixedMultiplierProbes are the multiplier numbers taken on fixed small
// shapes: a batch of 64 float64 64³ jobs and a 16³ async round trip.
func fixedMultiplierProbes(vals map[string]float64, rng *rand.Rand, env benchEnv, perProductThreads int) error {
	cfg := env.config()
	mu := fmmfam.NewMultiplier(cfg, fmmfam.PaperArch())
	defer mu.Close()
	var jobs []fmmfam.BatchJob
	for i := 0; i < 64; i++ {
		p := newProd[float64](rng, 64, 64, 64)
		jobs = append(jobs, fmmfam.BatchJob{C: matrix.New[float64](64, 64), A: p.a, B: p.b})
	}
	var err error
	batch := func(mu *fmmfam.Multiplier) float64 {
		if e := mu.MulAddBatch(jobs); e != nil {
			err = e
		}
		return median(timeReps(3, probeBudget, func() { mu.MulAddBatch(jobs) }))
	}
	tT := batch(mu)
	vals["multiplier.batch_jobs_per_s"] = float64(len(jobs)) / tT
	if perProductThreads == 1 {
		// Workloads whose products each run on one thread scale by batching.
		one := cfg
		one.Threads = 1
		sm := fmmfam.NewMultiplier(one, fmmfam.PaperArch())
		defer sm.Close()
		vals["multiplier.parallel_efficiency"] = batch(sm) / (float64(env.T) * tT)
		if env.T == 1 {
			vals["multiplier.parallel_efficiency"] = 1
		}
	}
	p := newProd[float64](rng, 16, 16, 16)
	c := matrix.New[float64](16, 16)
	vals["multiplier.async_roundtrip_us"] = median(timeReps(50, probeBudget, func() {
		if e := mu.MulAddAsync(c, p.a, p.b).Wait(); e != nil {
			err = e
		}
	})) * 1e6
	return err
}

// errRef scores a product's result: against matrix.MulAddKahan elementwise
// where that is cheap, else by the Freivalds residual relative to ‖A·B·x‖∞.
type errRef struct {
	kahan matrix.Mat[float64]
	fv    freivalds
}

func newErrRef(rng *rand.Rand, p prod[float64]) errRef {
	if p.flops() <= 1<<24 {
		ref := matrix.New[float64](p.a.Rows, p.b.Cols)
		matrix.MulAddKahan(ref, p.a, p.b)
		return errRef{kahan: ref}
	}
	return errRef{fv: newFreivalds(rng, p.a, p.b)}
}

func (e errRef) relErr(c matrix.Mat[float64]) float64 {
	if e.kahan.Data != nil {
		return c.MaxAbsDiff(e.kahan) / math.Max(e.kahan.MaxAbs(), math.SmallestNonzeroFloat64)
	}
	scale := 0.0
	for _, v := range e.fv.abx {
		scale = math.Max(scale, math.Abs(v))
	}
	return e.fv.residual(c) / math.Max(scale, math.SmallestNonzeroFloat64)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM); 0
// where /proc does not provide it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
