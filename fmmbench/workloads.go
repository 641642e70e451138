package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fmmfam"
	"fmmfam/internal/matrix"
)

// workload is one named set of inputs. Later issues refer to these names.
type workload struct {
	Name string
	Why  string
	// build generates the workload's inputs from the seed. Nothing of the
	// system under test is constructed here.
	build func(seed int64, env benchEnv) bench
}

// bench is one workload's generated inputs plus, once coldStart has run,
// its constructed system under test.
type bench interface {
	// shapes lists what the seed produced — shapes, dtypes, endpoint mix —
	// in generation order, for the job-list hash.
	shapes() []shapeRec
	// coldStart constructs the system under test and runs the first op of
	// every distinct shape class; its wall time is one setup_s sample.
	coldStart() error
	// prepare builds what measurement needs but a user would not pay for:
	// the paired GEMM baseline and the verification references. It also
	// verifies the cold results.
	prepare() error
	// round runs one round: the op (timed, allocation-metered), then the
	// paired plain-GEMM baseline on the same operands, then verification.
	// A non-nil tracer records the op's spans under the round id.
	round(tr *tracer, id int) roundResult
	// describe reports what the system resolved to, for the env block.
	describe() sysInfo
	// cachedPlans is how many shape classes the system's plan caches hold.
	cachedPlans() int
	// probe is the shape the workload-shaped layer probes and the traced
	// replay use for this workload.
	probe() probeShape
	close() error
}

// roundResult is what one round measured.
type roundResult struct {
	flops   float64    // classical flops (Σ 2·m·k·n) of the completed, verified products
	opSec   float64    // wall time of the round's op
	host    [2]float64 // the host's speed just before and just after the op
	gemmSec float64    // wall time of the paired plain-GEMM baseline
	alloc   uint64     // runtime.MemStats.TotalAlloc delta around the op only
	ops     int        // ops attempted (one MulAdd, one batch job, one wire request)
	failed  int        // ops that errored, were refused, or failed verification
	allMS   []float64  // every call's latency (wire_mix: every request's, all classes)
	smallMS []float64  // wire_mix: the small-class single requests' latencies
}

// sysInfo is the per-workload part of the env block.
type sysInfo struct {
	Kernel    string `json:"kernel"`
	Threads   int    `json:"threads"`
	Plan      string `json:"plan"`
	Traversal string `json:"traversal"`
	Sharded   string `json:"sharded"`
}

// probeShape is a float64 product plus the thread count the workload runs
// products of that kind with.
type probeShape struct {
	m, k, n int
	threads int
	kernel  string
}

// benchEnv is what every workload shares: T = min(nproc, 4) as both
// Config.Threads and the client count, and the kernel the engine workloads
// pin ("avx2" when registered, else the default backend).
type benchEnv struct {
	T      int
	Kernel string
	// Round is how long one wire_mix round sends traffic for.
	Round time.Duration
}

func newBenchEnv() benchEnv {
	t := runtime.NumCPU()
	if t > 4 {
		t = 4
	}
	env := benchEnv{T: t}
	for _, k := range fmmfam.Kernels() {
		if k == "avx2" {
			env.Kernel = k
		}
	}
	return env
}

// config is the README's multiplier configuration with the shared T and
// kernel.
func (e benchEnv) config() fmmfam.Config {
	cfg := fmmfam.DefaultConfig()
	cfg.Threads = e.T
	cfg.Kernel = e.Kernel
	return cfg
}

var workloads = []workload{
	{
		Name: "square_large",
		Why:  "float64 2048^3 MulAdd: the paper's square sweep where avx2 FMM meets GEMM; kernel and gemm do almost all the work",
		build: func(seed int64, env benchEnv) bench {
			return newSingle(seed, env.config(), 2048, 2048, 2048, false)
		},
	},
	{
		Name: "rankk",
		Why:  "float64 2880x480x2880 rank-k update: k = 2*KC amortises packing least, so fused pack and scatter changes show here first",
		build: func(seed int64, env benchEnv) bench {
			return newSingle(seed, env.config(), 2880, 480, 2880, false)
		},
	},
	{
		Name: "kdom_shard",
		Why:  "float64 256x16384x256: the only shape that takes the shard K-split, sched.Run, serial twin and reduction fold",
		build: func(seed int64, env benchEnv) bench {
			return newSingle(seed, env.config(), 256, 16384, 256, false)
		},
	},
	{
		Name:  "small_batch",
		Why:   "256 jobs with dims in [16,192], both dtypes, per MulAddBatch: plan lookup, peeling and sched dominate, the kernel does little",
		build: func(seed int64, env benchEnv) bench { return newBatch(seed, env.config()) },
	},
	{
		Name: "default_square",
		Why:  "float64 1024^3 through package-level Multiply with every FMMFAM_* unset: what a quick-start user gets, moved only by defaults",
		build: func(seed int64, env benchEnv) bench {
			cfg := fmmfam.DefaultConfig().Parallel()
			return newSingle(seed, cfg, 1024, 1024, 1024, true)
		},
	},
	{
		Name:  "wire_mix",
		Why:   "closed-loop loopback clients, 75% small /v1/multiply, 20% /v1/batch of 16, 5% big: wire and serve dominate",
		build: func(seed int64, env benchEnv) bench { return newWireMix(seed, env) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shapeRec is one generated product as the job-list hash sees it.
type shapeRec struct {
	endpoint string // "MulAdd", "MulAddBatch", "Multiply", "/v1/multiply", "/v1/batch"
	dtype    matrix.Dtype
	m, k, n  int
	a00      float64 // A's first entry: the drawn data is part of what a seed generates
}

// jobListHash fingerprints what a seed generated: the same seed must give
// the same list, another seed another.
func jobListHash(recs []shapeRec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range recs {
		h.Write([]byte(r.endpoint))
		for _, v := range []uint64{uint64(r.dtype), uint64(r.m), uint64(r.k), uint64(r.n), math.Float64bits(r.a00)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// halton is the i-th element (i ≥ 0) of the base-b van der Corput sequence.
func halton(i, b int) float64 {
	f, r := 1.0, 0.0
	for i++; i > 0; i /= b {
		f /= float64(b)
		r += f * float64(i%b)
	}
	return r
}

// gridDims returns the i-th point of a fixed low-discrepancy sample of
// [lo,hi]³. Mixed workloads take their shapes from it, not from the seed:
// the shapes stay uniform over the range, but their total flop count and
// size mix are the same for every seed, so two seeds measure the same work.
// The seed draws the matrix entries, the order jobs and requests come in,
// and the verification probes.
func gridDims(i, lo, hi int) (m, k, n int) {
	span := float64(hi - lo + 1)
	return lo + int(halton(i, 2)*span), lo + int(halton(i, 3)*span), lo + int(halton(i, 5)*span)
}

// prod is one product's operands with its verification reference.
type prod[E matrix.Element] struct {
	a, b, ref matrix.Mat[E]
}

func newProd[E matrix.Element](rng *rand.Rand, m, k, n int) prod[E] {
	p := prod[E]{a: matrix.New[E](m, k), b: matrix.New[E](k, n)}
	p.a.FillRand(rng)
	p.b.FillRand(rng)
	return p
}

// rec is the product as the job-list hash sees it.
func (p prod[E]) rec(endpoint string) shapeRec {
	return shapeRec{endpoint, matrix.DtypeOf[E](), p.a.Rows, p.a.Cols, p.b.Cols, float64(p.a.At(0, 0))}
}

func (p prod[E]) flops() float64 {
	return 2 * float64(p.a.Rows) * float64(p.a.Cols) * float64(p.b.Cols)
}

// relTol is the dtype-scaled tolerance for one C entry of a depth-k product
// of [-1,1) operands: the conformance suite's ε·(k+c) growth with two
// orders of magnitude of room for the FMM variants' constant factor. A
// wrong tile, slab or frame misses it by ten orders.
func relTol[E matrix.Element](k int) float64 {
	return 256 * matrix.Eps[E]() * float64(k+8)
}
