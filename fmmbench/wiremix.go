package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"fmmfam"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
	"fmmfam/internal/sched"
	"fmmfam/serve"
	"fmmfam/serve/servetest"
)

// The wire_mix request pool of one client: 64 requests cycled in a seeded
// order — 75 % single /v1/multiply of the small class (dims in [32,128],
// half float32), 20 % /v1/batch of 16 small-class frames, 5 % single
// float64 with dims in [384,640].
const (
	wireSmallN       = 48
	wireBatchN       = 13
	wireBigN         = 3
	wireBatchFrames  = 16
	smallLo, smallHi = 32, 128
	bigLo, bigHi     = 384, 640

	// frameHeaderLen is serve's frame header: magic, dtype, three uint32s.
	frameHeaderLen = 4 + 1 + 3*4
)

const (
	classSmall = iota
	classBatch
	classBig
)

// frameRef names one product of a client's pool: small-class products by
// dtype and index, big-class ones by index.
type frameRef struct {
	dt  matrix.Dtype
	idx int
}

// wireReq is one request of a pool.
type wireReq struct {
	owner  *wireClient // whose products the frames refer to
	class  int
	frames []frameRef
	flops  float64
	// want is the response body the server must produce bit for bit: small
	// and batch frames run on the engine's serial twin, which serve promises
	// is bit-identical to a serial MulAddBatch. Big requests are checked
	// against a direct MulAdd within tolerance, so want stays nil.
	want []byte
}

func (rq *wireReq) path() string {
	if rq.class == classBatch {
		return "/v1/batch"
	}
	return "/v1/multiply"
}

// wireClient is one closed-loop client: its products, its request pool in
// seeded order, one keep-alive connection.
type wireClient struct {
	small64 []prod[float64]
	small32 []prod[float32]
	big     []prod[float64]
	pool    []*wireReq
	next    int // position in pool; carries over between rounds

	tp   *http.Transport
	hc   *http.Client
	body []byte // request encoding buffer, reused

	// How often each product completed in the current round, for the paired
	// baseline.
	cnt64, cnt32, cntBig []int
	out                  clientRound
}

// clientRound is what one client measured in one round.
type clientRound struct {
	smallMS, allMS []float64
	flops          float64
	ops, failed    int
	replays        []wireReplay
}

// wireReplay is a traced request kept for the replay of the layers below.
type wireReplay struct {
	rq        *wireReq
	roundtrip int // span id of the HTTP round trip
}

// replaysPerRound is how many consecutive requests of client 0 each traced
// round takes apart. The pool position carries over, so successive rounds
// replay successive stretches of the pool and the classes come up in
// proportion.
const replaysPerRound = 16

func newWireClient(rng *rand.Rand, id int) *wireClient {
	cl := &wireClient{tp: &http.Transport{MaxIdleConnsPerHost: 1}}
	cl.hc = &http.Client{Transport: cl.tp}
	// Shapes come from the fixed grid (see gridDims); the seed draws the
	// data and the order of the pool.
	for j := 0; j < wireSmallN; j++ {
		m, k, n := gridDims(id*wireSmallN+j, smallLo, smallHi)
		if j%2 == 0 {
			cl.small64 = append(cl.small64, newProd[float64](rng, m, k, n))
		} else {
			cl.small32 = append(cl.small32, newProd[float32](rng, m, k, n))
		}
	}
	for j := 0; j < wireBigN; j++ {
		m, k, n := gridDims(id*wireBigN+j, bigLo, bigHi)
		cl.big = append(cl.big, newProd[float64](rng, m, k, n))
	}
	small := func(j int) frameRef {
		if j%2 == 0 {
			return frameRef{matrix.Float64, j / 2}
		}
		return frameRef{matrix.Float32, j / 2}
	}
	var reqs []*wireReq
	for j := 0; j < wireSmallN; j++ {
		reqs = append(reqs, cl.newReq(classSmall, small(j)))
	}
	for j := 0; j < wireBatchN; j++ {
		frames := make([]frameRef, wireBatchFrames)
		for t := range frames {
			frames[t] = small((j*wireBatchFrames + t) % wireSmallN)
		}
		reqs = append(reqs, cl.newReq(classBatch, frames...))
	}
	for j := 0; j < wireBigN; j++ {
		reqs = append(reqs, cl.newReq(classBig, frameRef{matrix.Float64, j}))
	}
	for _, i := range rng.Perm(len(reqs)) {
		cl.pool = append(cl.pool, reqs[i])
	}
	cl.cnt64 = make([]int, len(cl.small64))
	cl.cnt32 = make([]int, len(cl.small32))
	cl.cntBig = make([]int, len(cl.big))
	return cl
}

func (cl *wireClient) newReq(class int, frames ...frameRef) *wireReq {
	rq := &wireReq{owner: cl, class: class, frames: frames}
	for _, f := range frames {
		m, k, n := cl.dims(class, f)
		rq.flops += 2 * float64(m) * float64(k) * float64(n)
	}
	return rq
}

func (cl *wireClient) dims(class int, f frameRef) (m, k, n int) {
	switch {
	case class == classBig:
		p := cl.big[f.idx]
		return p.a.Rows, p.a.Cols, p.b.Cols
	case f.dt == matrix.Float32:
		p := cl.small32[f.idx]
		return p.a.Rows, p.a.Cols, p.b.Cols
	default:
		p := cl.small64[f.idx]
		return p.a.Rows, p.a.Cols, p.b.Cols
	}
}

// appendRequest encodes rq's body: the client half of the wire layer.
func appendRequest(dst []byte, rq *wireReq) []byte {
	if rq.class == classBatch {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rq.frames)))
	}
	o := rq.owner
	for _, f := range rq.frames {
		switch {
		case rq.class == classBig:
			dst = serve.AppendRequest(dst, o.big[f.idx].a, o.big[f.idx].b)
		case f.dt == matrix.Float32:
			dst = serve.AppendRequest(dst, o.small32[f.idx].a, o.small32[f.idx].b)
		default:
			dst = serve.AppendRequest(dst, o.small64[f.idx].a, o.small64[f.idx].b)
		}
	}
	return dst
}

// decodeResponse decodes every result frame of a response body, as a
// client must before it can use the products. It returns the float64
// results (the big class is verified from them).
func decodeResponse(body []byte, frames int) ([]matrix.Mat[float64], error) {
	var out []matrix.Mat[float64]
	for i := 0; i < frames; i++ {
		h, err := serve.DecodeHeader(body)
		if err != nil {
			return nil, err
		}
		fl := frameHeaderLen + h.M*h.K*h.Dtype.Size() // result frames: rows in M, cols in K
		if len(body) < fl {
			return nil, fmt.Errorf("response frame %d truncated: %d of %d bytes", i, len(body), fl)
		}
		if h.Dtype == matrix.Float32 {
			_, err = serve.DecodeResult[float32](body[:fl])
		} else {
			var c matrix.Mat[float64]
			c, err = serve.DecodeResult[float64](body[:fl])
			out = append(out, c)
		}
		if err != nil {
			return nil, err
		}
		body = body[fl:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%d bytes after the last response frame", len(body))
	}
	return out, nil
}

// post sends one request body and returns the response body.
func (cl *wireClient) post(url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// do is one op of the closed loop: encode, round trip, decode — the latency
// a caller sees — then verification, outside the latency. It reports
// whether the request succeeded and its latency.
func (cl *wireClient) do(base string, rq *wireReq, tr *tracer, round int) (ok bool, ms float64, roundtrip int) {
	root := tr.start(round, -1, "serve.request")
	t0 := time.Now()
	sp := tr.start(round, root, "wire.AppendRequest")
	cl.body = appendRequest(cl.body[:0], rq)
	tr.end(sp)
	roundtrip = tr.start(round, root, "serve.roundtrip")
	resp, err := cl.post(base+rq.path(), cl.body)
	tr.end(roundtrip)
	var res []matrix.Mat[float64]
	if err == nil {
		sp = tr.start(round, root, "wire.DecodeResult")
		res, err = decodeResponse(resp, len(rq.frames))
		tr.end(sp)
	}
	ms = time.Since(t0).Seconds() * 1e3
	tr.end(root)
	if err != nil {
		return false, ms, roundtrip
	}
	return rq.verify(resp, res), ms, roundtrip
}

// verify checks a response against the request's reference.
func (rq *wireReq) verify(resp []byte, res []matrix.Mat[float64]) bool {
	if rq.class != classBig {
		return bytes.Equal(resp, rq.want)
	}
	ref := rq.owner.big[rq.frames[0].idx].ref
	if len(res) != 1 || res[0].Rows != ref.Rows || res[0].Cols != ref.Cols {
		return false
	}
	d := res[0].MaxAbsDiff(ref)
	return d <= relTol[float64](rq.owner.big[rq.frames[0].idx].a.Cols)*math.Max(1, ref.MaxAbs())
}

// run is one client's share of a round: requests from its pool, in order,
// until the deadline; a request in flight at the deadline completes.
func (cl *wireClient) run(base string, deadline time.Time, tr *tracer, round int, keepReplays bool) {
	cl.out = clientRound{}
	for time.Now().Before(deadline) {
		rq := cl.pool[cl.next%len(cl.pool)]
		cl.next++
		ok, ms, rt := cl.do(base, rq, tr, round)
		cl.out.ops++
		if !ok {
			cl.out.failed++
			continue
		}
		cl.out.flops += rq.flops
		cl.out.allMS = append(cl.out.allMS, ms)
		if rq.class == classSmall {
			cl.out.smallMS = append(cl.out.smallMS, ms)
		}
		if keepReplays && len(cl.out.replays) < replaysPerRound {
			cl.out.replays = append(cl.out.replays, wireReplay{rq: rq, roundtrip: rt})
		}
		for _, f := range rq.frames {
			switch {
			case rq.class == classBig:
				rq.owner.cntBig[f.idx]++
			case f.dt == matrix.Float32:
				rq.owner.cnt32[f.idx]++
			default:
				rq.owner.cnt64[f.idx]++
			}
		}
	}
}

// wireMix is the wire_mix workload: servetest on loopback, T closed-loop
// clients, round = a fixed stretch of traffic.
type wireMix struct {
	env     benchEnv
	cfg     fmmfam.Config
	clients []*wireClient
	// seeds are the first product of every (dtype, shape class), in grid
	// order. A multiplier selects a shape class's plan from the first
	// product it sees of it, so the cold start sends these one at a time,
	// and the reference multipliers see them in the same order: both sides
	// then hold the same plan for every class, whatever order the rounds'
	// traffic arrives in.
	seeds []*wireReq
	cold  [][]byte // response bodies of the cold start, verified in prepare

	h *servetest.Harness

	// The paired baseline: Threads=1 GEMM contexts and one C per product.
	ctx64        *gemm.Context[float64]
	ctx32        *gemm.Context[float32]
	scratch64    []matrix.Mat[float64]
	scratch32    []matrix.Mat[float32]
	scratchBig64 []matrix.Mat[float64]

	rep *wireReplayer // built on the first traced round
}

func pow2Bucket(x int) int {
	b := 1
	for b < x {
		b <<= 1
	}
	return b
}

func newWireMix(seed int64, env benchEnv) *wireMix {
	rng := rand.New(rand.NewSource(seed))
	w := &wireMix{env: env, cfg: env.config()}
	for id := 0; id < env.T; id++ {
		w.clients = append(w.clients, newWireClient(rng, id))
	}
	type classKey struct {
		class   int
		dt      matrix.Dtype
		m, k, n int
	}
	seen := make(map[classKey]bool)
	for _, cl := range w.clients {
		add := func(class int, f frameRef) {
			m, k, n := cl.dims(class, f)
			key := classKey{class, f.dt, pow2Bucket(m), pow2Bucket(k), pow2Bucket(n)}
			if !seen[key] {
				seen[key] = true
				w.seeds = append(w.seeds, cl.newReq(class, f))
			}
		}
		for j := 0; j < wireSmallN; j++ {
			if j%2 == 0 {
				add(classSmall, frameRef{matrix.Float64, j / 2})
			} else {
				add(classSmall, frameRef{matrix.Float32, j / 2})
			}
		}
		for j := range cl.big {
			add(classBig, frameRef{matrix.Float64, j})
		}
	}
	return w
}

func (w *wireMix) shapes() []shapeRec {
	var recs []shapeRec
	for _, cl := range w.clients {
		for _, rq := range cl.pool {
			for _, f := range rq.frames {
				switch {
				case rq.class == classBig:
					recs = append(recs, cl.big[f.idx].rec(rq.path()))
				case f.dt == matrix.Float32:
					recs = append(recs, cl.small32[f.idx].rec(rq.path()))
				default:
					recs = append(recs, cl.small64[f.idx].rec(rq.path()))
				}
			}
		}
	}
	return recs
}

// firstBatch is the request the cold start uses to touch /v1/batch.
func (w *wireMix) firstBatch() *wireReq {
	for _, rq := range w.clients[0].pool {
		if rq.class == classBatch {
			return rq
		}
	}
	return nil
}

func (w *wireMix) coldStart() error {
	h, err := servetest.Start(w.cfg, fmmfam.PaperArch())
	if err != nil {
		return err
	}
	w.h = h
	cl := w.clients[0]
	for _, rq := range append(append([]*wireReq(nil), w.seeds...), w.firstBatch()) {
		cl.body = appendRequest(cl.body[:0], rq)
		resp, err := cl.post(h.URL+rq.path(), cl.body)
		if err != nil {
			return err
		}
		w.cold = append(w.cold, resp)
	}
	return nil
}

// refProducts computes every product's reference on direct multipliers with
// the server's configuration: MulAddBatch for the small class (the path
// coalesced and /v1/batch frames take), MulAdd for the big class.
func (w *wireMix) refProducts() error {
	mu64 := fmmfam.NewMultiplier(w.cfg, fmmfam.PaperArch())
	mu32 := fmmfam.NewMultiplier32(w.cfg, fmmfam.PaperArch())
	for _, rq := range w.seeds {
		o, f := rq.owner, rq.frames[0]
		var err error
		switch {
		case rq.class == classBig:
			p := &o.big[f.idx]
			p.ref = matrix.New[float64](p.a.Rows, p.b.Cols)
			err = mu64.MulAdd(p.ref, p.a, p.b)
		case f.dt == matrix.Float32:
			err = refBatch(mu32, o.small32[f.idx:f.idx+1])
		default:
			err = refBatch(mu64, o.small64[f.idx:f.idx+1])
		}
		if err != nil {
			return err
		}
	}
	for _, cl := range w.clients {
		if err := refBatch(mu64, cl.small64); err != nil {
			return err
		}
		if err := refBatch(mu32, cl.small32); err != nil {
			return err
		}
		for i := range cl.big {
			p := &cl.big[i]
			if p.ref.Data != nil {
				continue
			}
			p.ref = matrix.New[float64](p.a.Rows, p.b.Cols)
			if err := mu64.MulAdd(p.ref, p.a, p.b); err != nil {
				return err
			}
		}
	}
	if err := mu64.Close(); err != nil {
		return err
	}
	return mu32.Close()
}

// refBatch fills the missing references of ps through one MulAddBatch.
func refBatch[E matrix.Element](mu *fmmfam.GenericMultiplier[E], ps []prod[E]) error {
	var jobs []fmmfam.GenericBatchJob[E]
	for i := range ps {
		if ps[i].ref.Data == nil {
			ps[i].ref = matrix.New[E](ps[i].a.Rows, ps[i].b.Cols)
			jobs = append(jobs, fmmfam.GenericBatchJob[E]{C: ps[i].ref, A: ps[i].a, B: ps[i].b})
		}
	}
	return mu.MulAddBatch(jobs)
}

// setWant fills a request's expected response body from the references.
func setWant(rq *wireReq) {
	if rq.class == classBig {
		return
	}
	for _, f := range rq.frames {
		if f.dt == matrix.Float32 {
			rq.want = serve.AppendResult(rq.want, rq.owner.small32[f.idx].ref)
		} else {
			rq.want = serve.AppendResult(rq.want, rq.owner.small64[f.idx].ref)
		}
	}
}

func (w *wireMix) prepare() error {
	if err := w.refProducts(); err != nil {
		return err
	}
	for _, rq := range w.seeds {
		setWant(rq)
	}
	for _, cl := range w.clients {
		for _, rq := range cl.pool {
			setWant(rq)
		}
	}
	for i, rq := range append(append([]*wireReq(nil), w.seeds...), w.firstBatch()) {
		res, err := decodeResponse(w.cold[i], len(rq.frames))
		if err != nil || !rq.verify(w.cold[i], res) {
			return fmt.Errorf("cold wire request %d (%s) does not match a direct multiplier call: %v", i, rq.path(), err)
		}
	}
	w.cold = nil
	gcfg := gemmConfig(w.cfg)
	gcfg.Threads = 1
	var err error
	if w.ctx64, err = gemm.NewContext[float64](gcfg); err != nil {
		return err
	}
	if w.ctx32, err = gemm.NewContext[float32](gcfg); err != nil {
		return err
	}
	for _, cl := range w.clients {
		for _, p := range cl.small64 {
			w.scratch64 = append(w.scratch64, matrix.New[float64](p.a.Rows, p.b.Cols))
		}
		for _, p := range cl.small32 {
			w.scratch32 = append(w.scratch32, matrix.New[float32](p.a.Rows, p.b.Cols))
		}
		for _, p := range cl.big {
			w.scratchBig64 = append(w.scratchBig64, matrix.New[float64](p.a.Rows, p.b.Cols))
		}
	}
	return nil
}

// baselineJobs turns "product p completed cnt times this round" into one
// scheduler job running plain GEMM that many times.
func baselineJobs[E matrix.Element](jobs []sched.Job, ctx *gemm.Context[E], ps []prod[E], cnt []int, scratch []matrix.Mat[E]) []sched.Job {
	for i, p := range ps {
		n, c := cnt[i], scratch[i]
		if n == 0 {
			continue
		}
		jobs = append(jobs, sched.Job{Cost: int64(p.flops()) * int64(n), Run: func() {
			for r := 0; r < n; r++ {
				ctx.MulAdd(c, p.a, p.b)
			}
		}})
	}
	return jobs
}

func (w *wireMix) round(tr *tracer, id int) roundResult {
	for _, cl := range w.clients {
		for _, cnt := range [][]int{cl.cnt64, cl.cnt32, cl.cntBig} {
			for i := range cnt {
				cnt[i] = 0
			}
		}
	}
	var r roundResult
	r.host[0] = hostSpeed(w.env.T)
	a0 := totalAlloc()
	start := time.Now()
	deadline := start.Add(w.env.Round)
	var wg sync.WaitGroup
	for i, cl := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(w.h.URL, deadline, tr, id, tr != nil && i == 0)
		}()
	}
	wg.Wait()
	r.opSec = time.Since(start).Seconds()
	r.alloc = totalAlloc() - a0
	r.host[1] = hostSpeed(w.env.T)

	// The paired baseline: every product that completed, as plain GEMM on
	// Threads=1 contexts under the scheduler, exactly as small_batch's.
	var jobs []sched.Job
	o64, o32, oBig := 0, 0, 0
	for _, cl := range w.clients {
		jobs = baselineJobs(jobs, w.ctx64, cl.small64, cl.cnt64, w.scratch64[o64:])
		jobs = baselineJobs(jobs, w.ctx32, cl.small32, cl.cnt32, w.scratch32[o32:])
		jobs = baselineJobs(jobs, w.ctx64, cl.big, cl.cntBig, w.scratchBig64[oBig:])
		o64, o32, oBig = o64+len(cl.small64), o32+len(cl.small32), oBig+len(cl.big)
	}
	t0 := time.Now()
	sched.Run(w.env.T, jobs)
	r.gemmSec = time.Since(t0).Seconds()

	for _, cl := range w.clients {
		r.flops += cl.out.flops
		r.ops += cl.out.ops
		r.failed += cl.out.failed
		r.smallMS = append(r.smallMS, cl.out.smallMS...)
		r.allMS = append(r.allMS, cl.out.allMS...)
	}
	if tr != nil {
		w.replay(tr, id, w.clients[0].out.replays)
	}
	return r
}

func (w *wireMix) describe() sysInfo {
	info := sysInfo{Threads: w.cfg.Threads, Sharded: "no"}
	if stats, err := w.stats(); err == nil {
		info.Kernel = stats.Multiplier.Kernel
	}
	pr := w.probe()
	cfg := w.cfg
	cfg.Threads = 1 // small-class frames run on the serial twin
	if p, err := fmmfam.NewMultiplier(cfg, fmmfam.PaperArch()).PlanFor(pr.m, pr.k, pr.n); err == nil {
		info.Plan = fmt.Sprintf("%s at %dx%dx%d", p, pr.m, pr.k, pr.n)
		info.Traversal = traversalString(p.Traversal())
	}
	return info
}

func (w *wireMix) cachedPlans() int {
	st, err := w.stats()
	if err != nil {
		return 0
	}
	return st.Multiplier.CachedPlans + st.Multiplier32.CachedPlans
}

// stats fetches the server's /v1/stats over the wire.
func (w *wireMix) stats() (serve.Stats, error) {
	return (&serve.Client{BaseURL: w.h.URL, HTTPClient: w.clients[0].hc}).Stats()
}

// probe is the middle of the small class on one serial-twin thread.
func (w *wireMix) probe() probeShape {
	mid := (smallLo + smallHi) / 2
	return probeShape{m: mid, k: mid, n: mid, threads: 1, kernel: w.cfg.Kernel}
}

func (w *wireMix) close() error {
	for _, cl := range w.clients {
		cl.tp.CloseIdleConnections()
	}
	if w.rep != nil {
		w.rep.r64.close()
		w.rep.r32.close()
	}
	if w.h == nil {
		return nil
	}
	return w.h.Close()
}
