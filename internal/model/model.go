// Package model implements the paper's performance model (Figures 4 and 5):
// an analytic prediction of the execution time T = Ta + Tm of plain GEMM and
// of every generated FMM implementation (Naive/AB/ABC, any level count, any
// per-level ⟦U,V,W⟧), used to select implementations without exhaustive
// search (§4.2–§4.4). Times are decomposed exactly as in Figure 5:
//
//	Ta = N×a·T×a + N^{A+}a·T^{A+}a + N^{B+}a·T^{B+}a + N^{C+}a·T^{C+}a
//	Tm = N^{A×}m·T^{A×}m + N^{B×}m·T^{B×}m + N^{C×}m·T^{C×}m
//	   + N^{A+}m·T^{A+}m + N^{B+}m·T^{B+}m + N^{C+}m·T^{C+}m
//
// with the per-variant coefficient tables from the bottom of Figure 5.
package model

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

// Arch holds the architecture parameters of the model (Figure 4): τa is the
// reciprocal of peak flops/s, τb the amortized seconds per element moved
// from DRAM, λ ∈ [0.5,1] the prefetch efficiency of the C micro-tile
// traffic, and {MC,KC,NC} the cache blocking of Figure 1 — the blocking the
// priced products run with (a multiplier sets it to its Config's).
//
// τa is a property of the micro-kernel as much as of the machine — the paper
// bakes its assembly kernel's efficiency into the constant, and we bake in
// the pure-Go backend's — and both τ constants are per element type: τb is
// seconds per element moved, so float32 roughly halves it (half the bytes
// per element at the same bandwidth), and τa may change wherever the kernel
// retires one dtype faster than the other (an AVX2 float32 kernel doubles
// its lanes; the scalar pure-Go kernel is dtype-neutral). Kernel and Dtype
// record which registered backend and element type the τ constants describe
// ("" = unspecified, treated as the default backend; the zero Dtype is
// float64, so every pre-dtype Arch literal keeps its historical meaning).
// ArchForKernel rescales τa when a different backend is put in use and
// ArchForDtype re-prices both constants for the other element type, so
// BreakEvenSquare, ShardMakespan, and candidate ranking score the (kernel,
// dtype) pair actually executing rather than a generic machine.
type Arch struct {
	TauA   float64
	TauB   float64
	Lambda float64
	MC     int
	KC     int
	NC     int
	Kernel string
	Dtype  matrix.Dtype
}

// PaperIvyBridge returns the machine of §5.1: one core of a Xeon E5-2680 v2
// at 3.54 GHz (28.32 GFLOPS peak) with 59.7 GB/s peak bandwidth and the
// paper's BLIS blocking kC=256, nC=4096 (mC=96). λ defaults to 0.7,
// mid-range of the paper's [0.5, 1]. A multiplier keeps the τ constants and
// λ and replaces the blocking with the one its engine runs (nC=2048 by
// default).
func PaperIvyBridge() Arch {
	return Arch{
		TauA:   1 / 28.32e9,
		TauB:   8 / 59.7e9,
		Lambda: 0.7,
		MC:     96,
		KC:     256,
		NC:     4096,
	}
}

// effKey identifies one (backend, dtype) efficiency entry.
type effKey struct {
	name  string
	dtype matrix.Dtype
}

// kernelEff is each (backend, dtype) pair's relative sustained flop rate
// versus the default backend at float64 (= 1.0): eff > 1 means the pair
// retires flops faster, so its τa is smaller. One entry per registered pair —
// a new backend adds its lines here. go4x4 is a scalar kernel, so its float32
// rate matches float64. The avx2 and avx512 entries only take effect on hosts
// where the backend registered (ArchForKernel checks the registry before
// pricing); the ratios are measured micro-kernel rates from
// BenchmarkAblationKernel (kc=256, best of repeated runs on a 2-vCPU Xeon VM
// with AVX-512): the twelve-accumulator float64 avx2 kernel retires ~12× the
// default backend's scalar rate and the avx512 one, with the same twelve
// accumulators on zmm, twice that again (24×, measured 1.8–2.1× avx2); each
// float32 kernel doubles its float64 rate — twice the lanes per register.
// The ratios describe the rank-kc loop alone (12 FMAs per k-step on the
// 6×8 / 6×16 / 6×32 tile), not packing or the C update. An Arch from
// Calibrate carries a measured τa for its backend instead, which
// ArchForKernel leaves as it is.
var kernelEff = map[effKey]float64{
	{kernel.DefaultBackend, matrix.Float64}: 1.0,
	{kernel.DefaultBackend, matrix.Float32}: 1.0,
	{kernel.AVX2Backend, matrix.Float64}:    12.0,
	{kernel.AVX2Backend, matrix.Float32}:    24.0,
	{kernel.AVX512Backend, matrix.Float64}:  24.0,
	{kernel.AVX512Backend, matrix.Float32}:  48.0,
}

// kernelEfficiency returns the relative flop rate of a (backend, dtype) pair;
// unknown or empty names price like the default backend.
func kernelEfficiency(name string, d matrix.Dtype) float64 {
	if name == "" {
		name = kernel.DefaultBackend
	}
	if e, ok := kernelEff[effKey{name, d}]; ok {
		return e
	}
	return 1.0
}

// ArchForKernel returns arch with τa rescaled to describe the named backend
// (empty = default) at arch's element type: τa′ = τa ·
// eff(arch.Kernel)/eff(name). τb, λ, and the blocking are machine properties
// and carry over unchanged. If arch already describes the named backend —
// e.g. it came from Calibrate with the same cfg.Kernel — it is returned
// as-is, preserving the measured constant. The Multiplier applies this at
// construction so every model consumer (BreakEvenSquare's tile floor,
// ShardMakespan's grid score, candidate ranking) prices the backend in use.
func ArchForKernel(arch Arch, name string) Arch {
	resolved, ok := kernel.ResolveNameFor(name, arch.Dtype)
	if !ok {
		return arch // unknown backend: leave pricing generic, selection still works
	}
	if arch.Kernel == resolved {
		return arch
	}
	arch.TauA *= kernelEfficiency(arch.Kernel, arch.Dtype) / kernelEfficiency(resolved, arch.Dtype)
	arch.Kernel = resolved
	return arch
}

// ArchForDtype returns arch re-priced for element type d: τb scales by the
// element-size ratio (seconds per element at fixed byte bandwidth — float32
// halves it), and τa by the ratio of the kernel's per-dtype flop rates
// (unchanged for the scalar pure-Go backend, halved for avx2, whose float32
// path doubles its lanes). λ and the blocking carry over. An
// arch already describing d — e.g. from Calibrate[float32] — is returned
// as-is, preserving measured constants. The Multiplier applies this at
// construction, so the float32 serving surface selects plans, tile floors,
// and shard grids with float32 economics rather than float64's.
func ArchForDtype(arch Arch, d matrix.Dtype) Arch {
	if arch.Dtype == d {
		return arch
	}
	arch.TauB *= float64(d.Size()) / float64(arch.Dtype.Size())
	arch.TauA *= kernelEfficiency(arch.Kernel, arch.Dtype) / kernelEfficiency(arch.Kernel, d)
	arch.Dtype = d
	return arch
}

// Stats are the composite quantities of an L-level algorithm that the model
// consumes: M̃L = Πm̃l, K̃L, ÑL, RL = ΠRl, and nnz(⊗U), nnz(⊗V), nnz(⊗W).
type Stats struct {
	MT, KT, NT       int
	R                int
	NnzU, NnzV, NnzW int
}

// gemmStats are the stats of the ⟨1,1,1⟩;1 identity, all ones: StatsOf() of
// no levels, plain GEMM.
var gemmStats = Stats{MT: 1, KT: 1, NT: 1, R: 1, NnzU: 1, NnzV: 1, NnzW: 1}

// StatsOf computes composite stats for a multi-level plan (nnz of a Kronecker
// product is the product of the factors' nnz). No levels gives the stats of
// the ⟨1,1,1⟩;1 identity, all ones — plain GEMM.
func StatsOf(levels ...core.Algorithm) Stats {
	s := gemmStats
	for _, l := range levels {
		u, v, w := l.NNZ()
		s.MT *= l.M
		s.KT *= l.K
		s.NT *= l.N
		s.R *= l.R
		s.NnzU *= u
		s.NnzV *= v
		s.NnzW *= w
	}
	return s
}

// Breakdown is a predicted execution time split into arithmetic and memory
// components.
type Breakdown struct {
	Ta, Tm float64
}

// Total is T = Ta + Tm in seconds.
func (b Breakdown) Total() float64 { return b.Ta + b.Tm }

// EffectiveGFLOPS is the paper's metric 2·m·n·k / T · 1e-9: classical flops
// divided by wall time, so FMM implementations can exceed "peak".
func EffectiveGFLOPS(m, k, n int, seconds float64) float64 {
	return 2 * float64(m) * float64(n) * float64(k) / seconds * 1e-9
}

// PredictGEMM evaluates the model's gemm column for C(m×n) += A(m×k)·B(k×n).
func PredictGEMM(arch Arch, m, k, n int) Breakdown {
	fm, fk, fn := float64(m), float64(k), float64(n)
	var b Breakdown
	b.Ta = 2 * fm * fn * fk * arch.TauA
	b.Tm = arch.TauB * (fm*fk*math.Ceil(fn/float64(arch.NC)) + // A packing reads
		fn*fk + // B packing reads
		2*arch.Lambda*fm*fn*math.Ceil(fk/float64(arch.KC))) // C micro-tile r/w
	return b
}

// Predict evaluates the model for an L-level FMM implementation with
// composite stats s and the given variant. The identity stats (StatsOf of no
// levels) are plain GEMM and return PredictGEMM exactly, whatever the variant:
// the zero-level plan forms no sums and no temporaries, so none of the
// variant columns applies, and ranking it against FMM candidates needs no
// comparison other than the predicted times.
func Predict(arch Arch, s Stats, v fmmexec.Variant, m, k, n int) Breakdown {
	if s == gemmStats {
		return PredictGEMM(arch, m, k, n)
	}
	sm := float64(m) / float64(s.MT)
	sk := float64(k) / float64(s.KT)
	sn := float64(n) / float64(s.NT)
	r := float64(s.R)
	nnzU, nnzV, nnzW := float64(s.NnzU), float64(s.NnzV), float64(s.NnzW)

	// Unit times (Figure 5, middle table, L-level column).
	tXa := 2 * sm * sn * sk * arch.TauA
	tAaddA := 2 * sm * sk * arch.TauA
	tBaddA := 2 * sk * sn * arch.TauA
	tCaddA := 2 * sm * sn * arch.TauA
	tAXm := arch.TauB * sm * sk * math.Ceil(sn/float64(arch.NC))
	tBXm := arch.TauB * sn * sk
	tCXm := 2 * arch.Lambda * arch.TauB * sm * sn * math.Ceil(sk/float64(arch.KC))
	tAaddM := arch.TauB * sm * sk
	tBaddM := arch.TauB * sk * sn
	tCaddM := arch.TauB * sm * sn

	var b Breakdown
	// Arithmetic counts are identical for all three variants.
	b.Ta = r*tXa + (nnzU-r)*tAaddA + (nnzV-r)*tBaddA + nnzW*tCaddA

	// Memory counts (Figure 5, bottom table).
	switch v {
	case fmmexec.ABC:
		b.Tm = nnzU*tAXm + nnzV*tBXm + nnzW*tCXm
	case fmmexec.AB:
		b.Tm = nnzU*tAXm + nnzV*tBXm + r*tCXm + 3*nnzW*tCaddM
	case fmmexec.Naive:
		b.Tm = r*tAXm + r*tBXm + r*tCXm +
			(nnzU+r)*tAaddM + (nnzV+r)*tBaddM + 3*nnzW*tCaddM
	default:
		panic(fmt.Sprintf("model: unknown variant %v", v))
	}
	return b
}

// Candidate is one generated implementation considered by the selector. The
// zero value — no levels — is plain GEMM, named "gemm": the candidate that
// wins wherever no fast algorithm is predicted to pay.
type Candidate struct {
	Levels  []core.Algorithm
	Variant fmmexec.Variant

	// stats is StatsOf(Levels...), stored by DefaultCandidates so that
	// pricing a family member counts no non-zeros; nil for a hand-built
	// candidate, which computes its own.
	stats *Stats
}

// Name renders the candidate like the paper's legends, e.g.
// "<2,2,2>+<3,3,3> ABC"; the zero-level candidate is "gemm".
func (c Candidate) Name() string { return fmmexec.Name(c.Variant, c.Levels) }

// Stats returns the candidate's composite model stats: the value
// DefaultCandidates stored for a family member, StatsOf(c.Levels...)
// otherwise. A family member's Levels are the family's; replace them and the
// stored stats no longer describe the candidate.
func (c Candidate) Stats() Stats {
	if c.stats != nil {
		return *c.stats
	}
	return StatsOf(c.Levels...)
}

// Ranked pairs a candidate with its predicted time.
type Ranked struct {
	Candidate Candidate
	Predicted float64 // seconds
}

// Rank predicts every candidate for problem size (m,k,n) and returns them
// sorted by predicted time, fastest first. Selection needs only the first:
// Best finds it without building the list.
func Rank(arch Arch, cands []Candidate, m, k, n int) []Ranked {
	out := make([]Ranked, len(cands))
	for i, c := range cands {
		out[i] = Ranked{Candidate: c, Predicted: Predict(arch, c.Stats(), c.Variant, m, k, n).Total()}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Predicted < out[j].Predicted })
	return out
}

// Best returns the index in cands of the predicted-fastest candidate for
// problem size (m,k,n): the candidate of Rank(arch, cands, m, k, n)[0], the
// first one winning an exact tie, found in one pass with no allocation.
// cands must not be empty.
//
//fmm:hotpath
func Best(arch Arch, cands []Candidate, m, k, n int) int {
	best, bestT := 0, Predict(arch, cands[0].Stats(), cands[0].Variant, m, k, n).Total()
	for i, c := range cands[1:] {
		if t := Predict(arch, c.Stats(), c.Variant, m, k, n).Total(); t < bestT {
			best, bestT = i+1, t
		}
	}
	return best
}

// Select implements §4.4: take the top two candidates by predicted time,
// measure both with the supplied measurement function (seconds), and return
// the faster. With fewer than two candidates the best prediction wins
// unmeasured.
func Select(arch Arch, cands []Candidate, m, k, n int, measure func(Candidate) float64) (Candidate, error) {
	if len(cands) == 0 {
		return Candidate{}, fmt.Errorf("model: no candidates")
	}
	ranked := Rank(arch, cands, m, k, n)
	if len(ranked) == 1 || measure == nil {
		return ranked[0].Candidate, nil
	}
	a, b := ranked[0].Candidate, ranked[1].Candidate
	if measure(a) <= measure(b) {
		return a, nil
	}
	return b, nil
}

// DefaultCandidates enumerates the implementation family the paper's
// experiments sweep — every Figure-2 catalog shape at one and two
// (homogeneous) levels in all three variants, plus the Figure-9 hybrids —
// behind plain GEMM, the zero-level candidate. GEMM comes first so that Rank's
// stable sort and Best resolve an exact tie in its favour: a fast plan is
// selected only where it is predicted to be strictly faster. Each candidate's
// stats are computed here, once, and stored with it.
func DefaultCandidates() []Candidate {
	out := []Candidate{{}}
	cat := core.Catalog()
	for _, e := range cat {
		for _, v := range fmmexec.Variants {
			out = append(out, Candidate{Levels: []core.Algorithm{e.Algorithm}, Variant: v})
			out = append(out, Candidate{Levels: []core.Algorithm{e.Algorithm, e.Algorithm}, Variant: v})
		}
	}
	s := core.Generate(2, 2, 2)
	for _, second := range [][3]int{{2, 3, 2}, {3, 3, 3}} {
		h := core.Generate(second[0], second[1], second[2])
		for _, v := range fmmexec.Variants {
			out = append(out, Candidate{Levels: []core.Algorithm{s, h}, Variant: v})
		}
	}
	stats := make([]Stats, len(out))
	for i := range out {
		stats[i] = StatsOf(out[i].Levels...)
		out[i].stats = &stats[i]
	}
	return out
}

// Break-even probe bounds: the smallest problem worth asking about and a
// ceiling past which the answer stops mattering (callers treat the ceiling
// as "never breaks even in practice").
const (
	breakEvenLo = 64
	breakEvenHi = 1 << 15
)

// BreakEvenSquare returns the smallest square problem size s in
// [64, 32768] at which the predicted-fastest of cands beats the plain-GEMM
// prediction on arch — the size below which a fast plan is not worth
// dispatching, and below which Best picks the gemm candidate. The
// sharding layer uses it as the tile floor so every shard still clears the
// fast-algorithm pay-off. If no probed size wins, the ceiling 32768 is
// returned. The gemm candidate in cands does not move the answer: it is
// priced at exactly the prediction the others have to beat.
//
// The probe doubles s until the fast family first wins, then bisects the
// bracketing octave; the model is smooth enough in s that this resolves the
// crossover exactly.
func BreakEvenSquare(arch Arch, cands []Candidate) int {
	if len(cands) == 0 {
		return breakEvenHi
	}
	fastWins := func(s int) bool {
		c := cands[Best(arch, cands, s, s, s)]
		return Predict(arch, c.Stats(), c.Variant, s, s, s).Total() < PredictGEMM(arch, s, s, s).Total()
	}
	lo := breakEvenLo
	if fastWins(lo) {
		return lo
	}
	hi := lo
	for {
		hi *= 2
		if hi > breakEvenHi {
			return breakEvenHi
		}
		if fastWins(hi) {
			break
		}
		lo = hi
	}
	// Invariant: fast loses at lo, wins at hi.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if fastWins(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// ShardMakespan predicts the wall time (seconds) of executing a gm×gn×gk
// shard decomposition of C(m×n) += A(m×k)·B(k×n) on workers equal workers:
// ⌈tiles/workers⌉ scheduling rounds of the largest tile's predicted GEMM
// time, plus — when the K dimension is split — the reduction term for
// folding the gk−1 extra per-tile slab buffers into C: m·n·(gk−1) element
// folds, each moving three elements (read slab buffer, read C, write C) at
// the bandwidth cost τb. The reduction is charged against the whole
// schedule rather than divided across workers, deliberately biasing the
// search away from over-splitting K. The sharding layer passes this as its
// grid-search score, so K is split only when the model says the slab
// products' smaller operand-packing traffic pays for the extra reduction
// traffic (the Benson–Ballard trade for K-dominant shapes).
//
// Tiles are priced with the plain-GEMM column, whatever plan runs on them:
// the grid search needs the balance of compute volume against per-tile
// operand traffic, which the GEMM column captures. Every tile runs the
// product's plan, so where that plan is a fast algorithm the column
// misprices each tile by the plan's gain over GEMM at the tile's shape,
// which differs between a grid's K-whole tiles and its K slabs.
func ShardMakespan(arch Arch, m, k, n, gm, gn, gk, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	ceil := func(a, b int) int { return (a + b - 1) / b }
	tr, tc, td := ceil(m, gm), ceil(n, gn), ceil(k, gk)
	rounds := ceil(gm*gn*gk, workers)
	t := float64(rounds) * PredictGEMM(arch, tr, td, tc).Total()
	if gk > 1 {
		t += 3 * arch.TauB * float64(m) * float64(n) * float64(gk-1)
	}
	return t
}

// FitLambda solves for the prefetch-efficiency parameter λ so that the
// model's GEMM prediction matches a measured execution time at (m,k,n) —
// the paper's "λ is adapted to match gemm performance". The result is
// clamped to the model's admissible range [0.5, 1].
func FitLambda(arch Arch, m, k, n int, measuredSeconds float64) Arch {
	fm, fk, fn := float64(m), float64(k), float64(n)
	ta := 2 * fm * fn * fk * arch.TauA
	fixed := arch.TauB * (fm*fk*math.Ceil(fn/float64(arch.NC)) + fn*fk)
	cTerm := 2 * arch.TauB * fm * fn * math.Ceil(fk/float64(arch.KC))
	lambda := (measuredSeconds - ta - fixed) / cTerm
	if lambda < 0.5 {
		lambda = 0.5
	} else if lambda > 1 {
		lambda = 1
	}
	arch.Lambda = lambda
	return arch
}

// calibrateReps is how many timed repetitions each Calibrate probe takes;
// the minimum is the estimate (least interference from scheduling noise).
const calibrateReps = 3

// Calibrate measures this machine's τa and τb for the given gemm
// configuration at element type E: τa from the effective flop rate of a
// square GEMM of size probe — run through cfg.Kernel's backend, so the
// measured constant is per-(backend, dtype) exactly as the paper bakes its
// assembly kernel's efficiency into the model (the returned Arch.Kernel and
// Arch.Dtype record which) — and τb from a large strided read-modify-write
// sweep over a buffer of E, so the per-element bandwidth cost reflects the
// element size (float32 moves half the bytes per element). Each probe runs
// one untimed warm-up pass — the GEMM to populate workspace pools and
// caches, the sweep to fault in every page of the fresh buffer, which would
// otherwise inflate τb well above steady-state bandwidth — and then reports
// the best of three timed repetitions. λ is left at 0.7.
func Calibrate[E matrix.Element](cfg gemm.Config, probe int) (Arch, error) {
	if probe < 64 {
		return Arch{}, fmt.Errorf("model: probe %d too small", probe)
	}
	ctx, err := gemm.NewContext[E](cfg)
	if err != nil {
		return Arch{}, err
	}
	a, b, c := matrix.New[E](probe, probe), matrix.New[E](probe, probe), matrix.New[E](probe, probe)
	a.Fill(1.0 / 3)
	b.Fill(2.0 / 3)
	ctx.MulAdd(c, a, b) // warm up
	best := math.Inf(1)
	for rep := 0; rep < calibrateReps; rep++ {
		c.Zero()
		start := time.Now()
		ctx.MulAdd(c, a, b)
		if el := time.Since(start).Seconds(); el < best {
			best = el
		}
	}
	flops := 2 * float64(probe) * float64(probe) * float64(probe)
	tauA := best / flops

	// Bandwidth probe: stream-add over a buffer far larger than cache (the
	// same element count as the historical float64 probe, so the float32
	// sweep moves half the bytes — which is exactly the per-element economics
	// τb should price). The untimed sweep writes every page first so the
	// timed sweeps measure steady-state bandwidth, not first-touch page
	// faults; it stores without loading, because a read of a fresh page maps
	// the shared zero page and the store after it takes a second,
	// copy-on-write fault.
	buf := make([]E, 1<<24) // 128 MiB of float64s, 64 MiB of float32s
	for i := range buf {
		buf[i] = 1
	}
	best = math.Inf(1)
	for rep := 0; rep < calibrateReps; rep++ {
		start := time.Now()
		for i := range buf {
			buf[i] += 1
		}
		if el := time.Since(start).Seconds(); el < best {
			best = el
		}
	}
	tauB := best / float64(len(buf)) // read+write amortized per element
	if buf[0] != calibrateReps+1 {
		return Arch{}, fmt.Errorf("model: unreachable")
	}
	return Arch{
		TauA: tauA, TauB: tauB, Lambda: 0.7,
		MC: cfg.MC, KC: cfg.KC, NC: cfg.NC,
		Kernel: ctx.Backend().Name(),
		Dtype:  matrix.DtypeOf[E](),
	}, nil
}
