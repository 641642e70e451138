// Package fmmfam is a pure-Go implementation of the fast matrix
// multiplication (FMM) framework of Huang, Rice, Matthews and van de Geijn,
// "Generating Families of Practical Fast Matrix Multiplication Algorithms"
// (FLAME Working Note #82 / IPDPS 2017).
//
// An FMM algorithm is a partition ⟨m̃,k̃,ñ⟩ with a coefficient triple
// ⟦U,V,W⟧ computing the block product in R < m̃·k̃·ñ submatrix
// multiplications. The package provides
//
//   - a generator producing a verified algorithm for every small partition
//     (Generate, Catalog — the Figure-2 family),
//   - multi-level composition via Kronecker products, including hybrid
//     partitions with a different algorithm per level (NewPlan with several
//     levels),
//   - the paper's three implementation variants (Naive, AB, ABC) built on a
//     BLIS-style GEMM whose packing and micro-kernel fuse the FMM submatrix
//     additions, with goroutine data-parallelism and pluggable,
//     conformance-tested micro-kernel backends (Config.Kernel, Kernels),
//   - the analytic performance model (Predict, Recommend) used to pick an
//     implementation for a problem size without exhaustive search — plain
//     GEMM included, as the zero-level candidate "gemm" that wins below the
//     kernel's break-even — and
//   - numerical search for new algorithms (Discover).
//
// Quick start:
//
//	a, b := fmmfam.NewMatrix(1024, 1024), fmmfam.NewMatrix(1024, 1024)
//	// ... fill a and b ...
//	c := fmmfam.NewMatrix(1024, 1024)
//	fmmfam.Multiply(c, a, b) // c += a·b with the model-selected plan
//
// Concurrency contract: Plans and Multipliers are immutable descriptions;
// all mutable per-call state (packing buffers, variant temporaries) is
// rented per call from the bounded pools of one engine per Multiplier. Multiply, Multiplier.MulAdd,
// Multiplier.MulAddBatch, Multiplier.MulAddAsync, and Plan.MulAdd are all
// safe for unlimited concurrent callers. A Multiplier owns one worker pool
// of Config.Threads that every layer submits to (the goroutine invariant is
// stated on GenericMultiplier).
//
// Serving layer: above Config.ShardThreshold a MulAdd is automatically split
// into independent block products scheduled on that pool (internal/shard +
// internal/sched) — cutting the M×N output into full-K tiles (bit-identical
// results), or, for K-dominant problems with Config.ShardKSplit enabled, the
// inner dimension into reduction slabs (run-to-run deterministic results,
// fixed fold order); MulAddAsync submits work to a bounded queue and returns
// a Future; the plan cache is LRU-bounded so servers with diverse shapes
// stay bounded.
package fmmfam

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"time"

	"fmmfam/internal/autotune"
	"fmmfam/internal/core"
	"fmmfam/internal/discover"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
)

// Element is the type set of supported matrix element types
// (float32 | float64); the generic entry points (NewGenericMultiplier,
// matrix.Mat) are parameterized over it.
type Element = matrix.Element

// Matrix is a dense row-major float64 matrix; submatrix views share storage.
type Matrix = matrix.Mat[float64]

// Matrix32 is the float32 matrix type of the single-precision surface:
// half the memory per element, and the precision where fast algorithms win
// earliest (see README "Precision").
type Matrix32 = matrix.Mat[float32]

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) Matrix { return matrix.New[float64](r, c) }

// NewMatrix32 allocates a zeroed r×c float32 matrix.
func NewMatrix32(r, c int) Matrix32 { return matrix.New[float32](r, c) }

// Algorithm is a one-level FMM algorithm ⟨m̃,k̃,ñ⟩ with coefficients ⟦U,V,W⟧.
type Algorithm = core.Algorithm

// Variant selects the implementation style of the paper's §4.1.
type Variant = fmmexec.Variant

// The three implementation variants.
const (
	Naive = fmmexec.Naive // explicit temporaries around black-box GEMM
	AB    = fmmexec.AB    // operand sums fused into packing
	ABC   = fmmexec.ABC   // AB plus fused multi-C micro-kernel updates
)

// Config configures a Multiplier or Plan: the GEMM driver's cache blocking
// {MC,KC,NC} and worker count, plus the serving-layer knobs (sharding,
// async queue, plan-cache bound). The zero value of every serving knob
// selects a sensible default; the blocking fields must be set (use
// DefaultConfig). A Config is the whole input: nothing built from one reads
// the process environment.
type Config struct {
	// MC, KC, NC are the cache blocking parameters of Figure 1.
	MC, KC, NC int
	// Threads is the worker budget: the size of the one pool a Multiplier
	// (or a directly built Plan) runs everything on, within one MulAdd and
	// across batch jobs and shard tiles, and the MulAddAsync drainer count.
	Threads int

	// Kernel selects the micro-kernel backend by registry name (see
	// Kernels). Empty selects the fastest backend this host registered, by a
	// static order that depends on GOARCH, build tags and CPUID, never on
	// timing: "avx512", the amd64 AVX-512 backend, where the host CPU and
	// build carry it, else "avx2", the amd64 AVX2 backend, else "go4x4".
	// Naming one pins it: "go4x4" is the portable reference kernel, present
	// on every build and the one the float64 golden fingerprints are recorded
	// on; a name that is unknown or unavailable here fails Validate with the
	// reason and never falls back. Results are run-to-run deterministic per
	// backend but differ in bits between backends (avx2 and avx512 use FMA, on
	// 6×8 and 6×16 tiles), so code that needs the same bits on every host
	// names its kernel. The package-level Multiply
	// family takes the name from the FMMFAM_KERNEL environment variable
	// (EnvKernel), empty meaning the same. The blocking must satisfy the
	// backend's tile shape (MC ≥ MR, NC ≥ NR); Validate checks this against
	// the backend the name resolves to.
	Kernel string

	// ShardThreshold is the problem size at or above which MulAdd
	// automatically splits into independent block products scheduled across
	// the pool (Threads ≥ 2 required): max(m,n) — or k, when K-split is
	// enabled — must reach it. 0 means DefaultShardThreshold; negative
	// disables sharding.
	ShardThreshold int
	// ShardMinTile floors every cut dimension of a shard tile — rows and
	// cols, and slab depth when K is split. 0 derives the floor from the
	// performance model's fast-algorithm break-even on this multiplier's
	// Arch, so each shard still clears the size where an FMM plan beats
	// plain GEMM.
	ShardMinTile int
	// ShardKSplit controls whether sharding may also cut the inner (K)
	// dimension into slabs with per-tile reduction buffers — the path that
	// lets K-dominant problems (small M×N output, huge inner dimension)
	// shard at all. K-split results are run-to-run deterministic (fixed
	// reduction fold order) but not bit-identical to the 2D path. 0 means
	// enabled (the default); negative disables, restricting sharding to the
	// 2D decomposition; positive also enables.
	ShardKSplit int

	// Traversal selects how a plan traverses its R multiplication terms
	// per call (see README "Parallelism"): "" or "auto" lets the
	// performance model choose per shape — BFS term fan-out across the
	// worker pool where sub-blocks are too small to keep the workers busy
	// inside one GEMM, DFS otherwise; "dfs" forces the historical serial
	// term loop (the bit-stable reference path the float64 golden
	// fingerprints pin); "bfs" forces term fan-out at every level (ABC
	// plans buffer one core-C shadow per fanned chunk, so forcing deep BFS
	// on memory-tight machines is the user's call).
	// Direct NewPlan/NewPlan32 construction has no problem size for the
	// model, so "auto" there means DFS; the Multiplier path is where auto
	// selection happens.
	Traversal string

	// QueueDepth bounds the MulAddAsync submission queue; submitters block
	// when it is full (backpressure). 0 means 4×Threads.
	QueueDepth int

	// PlanCacheCap bounds the number of cached plans per Multiplier,
	// evicting least-recently-used shape classes, so long-running servers
	// seeing diverse shapes stay bounded. 0 means DefaultPlanCacheCap;
	// negative means unbounded.
	PlanCacheCap int

	// Autotune enables the online autotuner (see README "Autotuning"): every
	// MulAdd records its monotonic wall time against the plan that served it,
	// keyed by shape class, and a small fraction of each shape class's
	// traffic shadows one challenger arm — an alternative term traversal,
	// kernel backend, model candidate, or shard grid. A challenger whose
	// window median beats the incumbent's with a 95% confidence interval
	// excluding zero at two consecutive checkpoints is promoted to serve, and
	// its measured median feeds back into model selection and the
	// traversal-model fold-cost calibration. Off by default: serving is then
	// exactly the static model-selected path. Promotion only ever swaps which
	// deterministic plan runs — per-call determinism guarantees are those of
	// whichever plan served the call.
	Autotune bool
	// AutotuneFraction is the share of each shape class's calls routed to
	// the challenger arm, in (0, 0.5]. 0 means the default (0.05 — one call
	// in 20). Validate rejects values outside [0, 0.5].
	AutotuneFraction float64

	// ServeAddr is the listen address of the fmmserve wire front-end
	// (cmd/fmmserve, package serve). Empty means DefaultServeAddr. The
	// in-library MulAdd/MulAddBatch/MulAddAsync surfaces ignore it.
	ServeAddr string
	// CoalesceWindow bounds how long the wire front-end holds a small
	// request open waiting for others to share a MulAddBatch dispatch with.
	// Coalescing is group-commit: a request that finds the engine idle runs
	// at once; one that arrives while a window is running opens (or joins)
	// the next window, which flushes when the running one completes, when
	// CoalesceMaxJobs requests have joined, or when this long has passed
	// since it opened, whichever is first — the upper bound of the hold,
	// not its length. 0 means DefaultCoalesceWindow; negative disables coalescing
	// (every request dispatches individually).
	CoalesceWindow time.Duration
	// CoalesceMaxJobs caps how many requests one coalescing window collects
	// before flushing regardless of the timer. 0 means
	// DefaultCoalesceMaxJobs; Validate rejects negatives (disable
	// coalescing with a negative CoalesceWindow instead).
	CoalesceMaxJobs int
	// AdmissionDepth bounds the wire front-end's in-flight work — requests
	// admitted to compute (or queued async) but not yet completed. At the
	// bound, new work is refused with HTTP 429 and a Retry-After hint
	// instead of queueing unbounded: the same backpressure contract as the
	// async layer's bounded queue, except rejecting instead of blocking
	// (a blocked HTTP handler would just move the unbounded queue into the
	// kernel's accept backlog). 0 means DefaultAdmissionDepth; Validate
	// rejects negatives.
	AdmissionDepth int

	// Calibrate, when set, replaces the Arch passed to NewMultiplier with
	// machine constants measured at construction time (model.Calibrate:
	// a GEMM probe for τa through the configured kernel and a bandwidth
	// sweep for τb, both at this multiplier's element type), cached
	// process-wide per (kernel, dtype) so repeated constructions measure
	// once. First-time calibration of a pair costs ~100ms.
	Calibrate bool
}

// Config.Traversal values.
const (
	// TraversalAuto lets the performance model pick BFS/DFS per level and
	// shape (the default; "" means the same).
	TraversalAuto = "auto"
	// TraversalDFS forces the serial term loop with intra-GEMM threading —
	// the historical bit-stable path.
	TraversalDFS = "dfs"
	// TraversalBFS forces term fan-out at every recursion level.
	TraversalBFS = "bfs"
)

// Serving-layer defaults for the zero Config knobs.
const (
	// DefaultShardThreshold is the problem size — max(m,n), or k when
	// K-split is enabled — at which MulAdd starts auto-sharding; large
	// enough that sub-threshold problems are better served by in-call loop
	// parallelism.
	DefaultShardThreshold = 1024
	// DefaultPlanCacheCap bounds the plan cache; each plan is a few KiB of
	// coefficient lists and owns no buffers (all memory belongs to the
	// multiplier's one engine per kernel).
	DefaultPlanCacheCap = 64
	// DefaultServeAddr is the wire front-end's default listen address.
	DefaultServeAddr = ":8077"
	// DefaultCoalesceWindow is the default bound on a coalescing window's
	// hold: long enough that a 64-client small-matrix workload fills windows
	// by count, short enough that a request stuck behind a long-running
	// window pays well under a millisecond of added latency.
	DefaultCoalesceWindow = 500 * time.Microsecond
	// DefaultCoalesceMaxJobs is the default per-window job cap — sized so a
	// full window amortizes one pool dispatch across a few dozen small
	// products without the flush's MulAddBatch becoming a latency cliff.
	DefaultCoalesceMaxJobs = 32
	// DefaultAdmissionDepth is the default bound on the wire front-end's
	// in-flight work before it starts refusing with 429.
	DefaultAdmissionDepth = 256
)

// ServeParams is the resolved wire-serving configuration: Config's serve
// knobs with their defaults filled. Build one with Config.ServeParams;
// package serve and cmd/fmmserve consume it.
type ServeParams struct {
	// Addr is the resolved listen address.
	Addr string
	// CoalesceWindow is the resolved window duration; ≤ 0 means coalescing
	// is disabled (see Coalesce).
	CoalesceWindow time.Duration
	// CoalesceMaxJobs is the resolved per-window job cap.
	CoalesceMaxJobs int
	// AdmissionDepth is the resolved in-flight work bound.
	AdmissionDepth int
}

// Coalesce reports whether small-request coalescing is enabled.
func (p ServeParams) Coalesce() bool { return p.CoalesceWindow > 0 }

// ServeParams range-checks the serve knobs (ServeAddr, CoalesceWindow,
// CoalesceMaxJobs, AdmissionDepth) and fills their defaults. The error is
// the one Validate reports for the same fields.
func (c Config) ServeParams() (ServeParams, error) {
	if c.CoalesceMaxJobs < 0 {
		return ServeParams{}, fmt.Errorf("fmmfam: CoalesceMaxJobs=%d, need ≥ 0 (0 = default %d; disable coalescing with a negative CoalesceWindow)", c.CoalesceMaxJobs, DefaultCoalesceMaxJobs)
	}
	if c.AdmissionDepth < 0 {
		return ServeParams{}, fmt.Errorf("fmmfam: AdmissionDepth=%d, need ≥ 0 (0 = default %d)", c.AdmissionDepth, DefaultAdmissionDepth)
	}
	return ServeParams{
		Addr:            cmp.Or(c.ServeAddr, DefaultServeAddr),
		CoalesceWindow:  cmp.Or(c.CoalesceWindow, DefaultCoalesceWindow),
		CoalesceMaxJobs: cmp.Or(c.CoalesceMaxJobs, DefaultCoalesceMaxJobs),
		AdmissionDepth:  cmp.Or(c.AdmissionDepth, DefaultAdmissionDepth),
	}, nil
}

// checkTraversal rejects a Traversal outside its named values.
func (c Config) checkTraversal() error {
	switch c.Traversal {
	case "", TraversalAuto, TraversalDFS, TraversalBFS:
		return nil
	}
	return fmt.Errorf("fmmfam: Traversal=%q, need %q, %q, %q, or empty", c.Traversal, TraversalAuto, TraversalDFS, TraversalBFS)
}

// autotuneFraction is the challenger share autotuning runs at: 0 when off,
// the default when AutotuneFraction is left zero.
func (c Config) autotuneFraction() float64 {
	if !c.Autotune {
		return 0
	}
	return cmp.Or(c.AutotuneFraction, autotune.DefaultFraction)
}

// DefaultConfig returns the single-threaded default blocking with default
// serving knobs.
func DefaultConfig() Config {
	g := gemm.DefaultConfig()
	return Config{MC: g.MC, KC: g.KC, NC: g.NC, Threads: g.Threads}
}

// Parallel returns c with Threads set to the machine's logical CPU count.
func (c Config) Parallel() Config {
	c.Threads = runtime.GOMAXPROCS(0)
	return c
}

// gemmConfig projects the driver-facing fields for the execution layers.
func (c Config) gemmConfig() gemm.Config {
	return gemm.Config{MC: c.MC, KC: c.KC, NC: c.NC, Threads: c.Threads, Kernel: c.Kernel}
}

// kernelFor is the one place a Config.Kernel becomes a backend name for
// element type E: a named kernel is itself, registered or not (validation
// reports the ones that are not); the empty name is the fastest backend the
// host registered for E. Each construction asks once — resolveConfig for a
// multiplier, newPlan for a plan — and stores the answer back into its Config,
// so everything after — model pricing, the calibration cache, the engine
// table, the autotune kernel arms, Stats — reads one field. Below this
// package the empty name keeps meaning the reference kernel (kernel.Resolve,
// gemm.Config).
func kernelFor[E matrix.Element](name string) string {
	if name == "" {
		return kernel.Fastest(matrix.DtypeOf[E]())
	}
	return name
}

// Validate checks the configuration against the float64 surface: the kernel
// backend — the named one, or the fastest registered when Kernel is empty —
// must be registered for the dtype, the blocking must fit that
// backend's micro-tile (MC ≥ MR, KC ≥ 1, NC ≥ NR) with at least one worker —
// those driver-facing rules are checked by gemm.ValidateFor, the single
// source — the serving knobs that have no negative sentinel (ShardMinTile,
// QueueDepth, CoalesceMaxJobs, AdmissionDepth) must be non-negative,
// Traversal must be one of its named values and AutotuneFraction must lie in
// [0, 0.5]. The result depends on the Config alone. NewMultiplier (and
// NewMultiplier32, which validates against the float32 registry instead)
// records the result and surfaces it from every entry point, so an invalid
// config fails fast instead of computing with nonsense parameters.
func (c Config) Validate() error {
	_, err := resolveConfig[float64](c)
	return err
}

// resolveConfig is Validate for one element type; it returns c with Kernel
// resolved (kernelFor) beside the verdict, so a constructor resolves once.
func resolveConfig[E matrix.Element](c Config) (Config, error) {
	named := c.Kernel != ""
	c.Kernel = kernelFor[E](c.Kernel)
	if err := gemm.ValidateFor[E](c.gemmConfig()); err != nil {
		if !named && c.Kernel != kernel.DefaultBackend {
			// The caller never named this backend: say where it came from and
			// how to get the one the blocking may have been written for.
			return c, fmt.Errorf("fmmfam: %w (an empty Config.Kernel resolved to %q, the fastest backend this host registered; Kernel: %q pins the reference kernel)", err, c.Kernel, kernel.DefaultBackend)
		}
		return c, fmt.Errorf("fmmfam: %w", err)
	}
	if c.ShardMinTile < 0 {
		return c, fmt.Errorf("fmmfam: ShardMinTile=%d, need ≥ 0 (0 = model break-even floor)", c.ShardMinTile)
	}
	if c.QueueDepth < 0 {
		return c, fmt.Errorf("fmmfam: QueueDepth=%d, need ≥ 0 (0 = 4×Threads)", c.QueueDepth)
	}
	if err := c.checkTraversal(); err != nil {
		return c, err
	}
	// The fraction is checked even with Autotune off: flipping the switch
	// later must not be what surfaces a bad value.
	if c.AutotuneFraction < 0 || c.AutotuneFraction > 0.5 {
		return c, fmt.Errorf("fmmfam: AutotuneFraction=%g, need 0 ≤ f ≤ 0.5 (0 = default %g)", c.AutotuneFraction, autotune.DefaultFraction)
	}
	_, err := c.ServeParams()
	return c, err
}

// EnvKernel returns the backend the FMMFAM_KERNEL environment variable
// selects ("" when unset, which like an empty Config.Kernel means the fastest
// registered backend): the Config.Kernel the package-level Multiply
// family runs with — it has no Config to carry one — and cmd/fmmserve and
// cmd/experiments start from. It is the library's only read of the
// environment; no Config consults it.
func EnvKernel() string { return os.Getenv("FMMFAM_KERNEL") }

// Kernels lists the registered micro-kernel backend names, sorted; any of
// them is a valid Config.Kernel / FMMFAM_KERNEL value. See
// internal/kernel/conformance for what a new backend must pass to join, and
// KernelStatuses for per-backend availability detail (the avx2 assembly
// backend only registers on amd64 hosts with AVX2+FMA, avx512 only where
// AVX-512F is there too).
func Kernels() []string { return kernel.Backends() }

// KernelStatus is one backend's availability on this host and build.
type KernelStatus struct {
	// Name is the registry name; a valid Config.Kernel value when Available.
	Name string
	// Dtypes lists the element types the backend registered for ("float32",
	// "float64"), sorted; empty when unavailable.
	Dtypes []string
	// Available reports whether the backend registered on this host.
	Available bool
	// Reason explains an unavailable backend — e.g. the avx2 backend on a
	// host without AVX2+FMA, or in a purego/non-amd64 build ("" when
	// available).
	Reason string
}

// CPUInfo reports the host properties kernel dispatch consulted: the
// architecture, whether the AVX2+FMA probe passed, whether the AVX-512 probe
// (AVX-512F with OS-enabled ZMM state) passed, and whether this build carries
// assembly backends at all.
type CPUInfo struct {
	Arch   string
	AVX2   bool
	AVX512 bool
	PureGo bool
}

// KernelStatuses reports every backend known to this build, available or
// not, sorted by name — the operator's answer to "is avx2 actually in use
// here, and if not, why not". Served alongside each engine's resolved
// backend (MultiplierStats.Kernel) in the /v1/stats surface.
func KernelStatuses() []KernelStatus {
	sts := kernel.Statuses()
	out := make([]KernelStatus, len(sts))
	for i, st := range sts {
		out[i] = KernelStatus{Name: st.Name, Dtypes: st.Dtypes, Available: st.Available, Reason: st.Reason}
	}
	return out
}

// HostCPU reports the dispatch-relevant CPU features of this host and build.
func HostCPU() CPUInfo {
	f := kernel.HostCPU()
	return CPUInfo{Arch: f.Arch, AVX2: f.AVX2, AVX512: f.AVX512, PureGo: f.PureGo}
}

func (c Config) shardThreshold() int {
	switch {
	case c.ShardThreshold < 0:
		return 0 // disabled
	case c.ShardThreshold == 0:
		return DefaultShardThreshold
	default:
		return c.ShardThreshold
	}
}

func (c Config) shardKSplit() bool { return c.ShardKSplit >= 0 }

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 4 * c.Threads
}

func (c Config) planCacheCap() int {
	switch {
	case c.PlanCacheCap < 0:
		return 0 // unbounded
	case c.PlanCacheCap == 0:
		return DefaultPlanCacheCap
	default:
		return c.PlanCacheCap
	}
}

// Plan is a ready-to-run float64 FMM implementation; see NewPlan.
type Plan = fmmexec.Plan[float64]

// Plan32 is a ready-to-run float32 FMM implementation; see NewPlan32.
type Plan32 = fmmexec.Plan[float32]

// Strassen returns the ⟨2,2,2⟩;7 algorithm with the paper's coefficients.
func Strassen() Algorithm { return core.Strassen() }

// Generate returns the lowest-rank verified algorithm for partition ⟨m,k,n⟩
// reachable from the built-in seeds (internal/core/generate.go lists which
// of the paper's ranks the seed closure reproduces).
func Generate(m, k, n int) Algorithm { return core.Generate(m, k, n) }

// CatalogEntry is one row of the paper's Figure-2 family.
type CatalogEntry = core.CatalogEntry

// Catalog returns the Figure-2 family of evaluated partitions.
func Catalog() []CatalogEntry { return core.Catalog() }

// NewPlan builds an executable multi-level float64 FMM plan. Levels are
// outermost first; hybrid partitions simply pass different algorithms per
// level, and no levels at all is the zero-level plan, plain GEMM.
// Config.Traversal "bfs" builds the plan with term fan-out at every level;
// "dfs", "auto", and empty build the serial term loop (a direct plan
// has no problem size for the model — auto selection happens on the
// Multiplier path).
func NewPlan(cfg Config, v Variant, levels ...Algorithm) (*Plan, error) {
	return newPlan[float64](cfg, v, levels)
}

// NewPlan32 builds an executable multi-level float32 FMM plan — the same
// ⟦U,V,W⟧ evaluation over float32 operands (the generated coefficients are
// small exact rationals, so their float32 conversion is exact); see NewPlan.
func NewPlan32(cfg Config, v Variant, levels ...Algorithm) (*Plan32, error) {
	return newPlan[float32](cfg, v, levels)
}

func newPlan[E matrix.Element](cfg Config, v Variant, levels []Algorithm) (*fmmexec.Plan[E], error) {
	if err := cfg.checkTraversal(); err != nil {
		return nil, err
	}
	cfg.Kernel = kernelFor[E](cfg.Kernel)
	return fmmexec.NewPlanTraversal[E](cfg.gemmConfig(), v, forcedSteps(cfg.Traversal, len(levels)), levels...)
}

// forcedSteps maps a forced traversal mode to explicit per-level steps: nil
// (the serial loop) unless the mode is "bfs", which fans every level — of
// which the zero-level plan, plain GEMM, has none.
func forcedSteps(mode string, levels int) []fmmexec.Step {
	if mode != TraversalBFS || levels == 0 {
		return nil
	}
	steps := make([]fmmexec.Step, levels)
	for i := range steps {
		steps[i] = fmmexec.BFS
	}
	return steps
}

// Arch holds performance-model machine parameters.
type Arch = model.Arch

// PaperArch returns the paper's Ivy Bridge machine constants (§5.1).
func PaperArch() Arch { return model.PaperIvyBridge() }

// Candidate is one implementation considered by the selector.
type Candidate = model.Candidate

// Predict estimates the execution time in seconds of a candidate on arch for
// problem size (m,k,n), per the paper's Figure-5 model.
func Predict(arch Arch, c Candidate, m, k, n int) float64 {
	return model.Predict(arch, c.Stats(), c.Variant, m, k, n).Total()
}

// Recommend ranks the default candidate family (plain GEMM, every catalog
// shape at one and two levels in all variants, and the Figure-9 hybrids) for
// problem size (m,k,n) on arch and returns the predicted-fastest candidate —
// the zero-level candidate "gemm" wherever no fast plan is predicted to pay.
func Recommend(arch Arch, m, k, n int) Candidate {
	ranked := model.Rank(arch, defaultCandidates(), m, k, n)
	return ranked[0].Candidate
}

// Multiply computes c += a·b using the model-recommended plan (a fast
// algorithm above the kernel's break-even, plain GEMM below it) with default
// blocking and all available CPUs, at the operands' element type: Matrix
// operands run at float64, Matrix32 operands at float32 (accuracy then
// follows the FLOP-scaled float32 bounds of README "Precision"). It
// delegates to a lazily-initialized package-level multiplier per element
// type, so repeated calls of similar sizes reuse cached plans instead of
// rebuilding one per call. Safe for concurrent callers; for custom blocking
// or machine models, build your own Multiplier.
func Multiply[E Element](c, a, b matrix.Mat[E]) error {
	return defaultMultiplier[E]().MulAdd(c, a, b)
}

// MultiplyBatch runs many independent multiplications through the shared
// default multiplier's worker pool; see Multiplier.MulAddBatch.
func MultiplyBatch[E Element](jobs []GenericBatchJob[E]) error {
	return defaultMultiplier[E]().MulAddBatch(jobs)
}

// MultiplyAsync submits c += a·b to the shared default multiplier's bounded
// async queue and returns a Future immediately; see Multiplier.MulAddAsync.
func MultiplyAsync[E Element](c, a, b matrix.Mat[E]) *Future {
	return defaultMultiplier[E]().MulAddAsync(c, a, b)
}

// DiscoverProblem specifies a numerical search target; see Discover.
type DiscoverProblem = discover.Problem

// DiscoverOptions tunes the ALS search; zero values select defaults.
type DiscoverOptions = discover.Options

// Discover searches numerically for an exact rank-R algorithm of shape
// ⟨m,k,n⟩ (alternating least squares with discretization; the returned
// algorithm, if any, is Brent-verified). Found algorithms can be fed to
// RegisterSeed to improve Generate.
func Discover(p DiscoverProblem, o DiscoverOptions) (Algorithm, error) {
	return discover.Search(p, o)
}

// RegisterSeed adds a verified algorithm to the generator's seed set; future
// Generate calls may compose it.
func RegisterSeed(a Algorithm) error { return core.RegisterSeed(a) }
