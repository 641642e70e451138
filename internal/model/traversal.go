package model

import (
	"math"

	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
)

// TraversalPlan chooses a per-level BFS/DFS traversal for executing an
// L-level plan on C(m×n) += A(m×k)·B(k×n) with the given worker budget — the
// Benson–Ballard hybrid question ("A Framework for Practical Parallel Fast
// Matrix Multiplication"): fan a level's independent sub-products across
// workers (BFS — costs memory for temporaries and reduction traffic) or run
// them in sequence with intra-GEMM threading (DFS — idles cores once the
// sub-blocks are too small to split MC-wide)?
//
// The model extends the makespan reasoning of ShardMakespan to term fan-out.
// With composite stats (M̃,K̃,Ñ,R) the sub-block product is sm×sk×sn
// (sm = m/M̃, …) and every traversal executes the same R such products:
//
//   - DFS runs them back-to-back, each parallelized internally; the intra-GEMM
//     speedup is capped by how many MC-row panels the sub-block offers
//     (nb = ⌈sm/MC⌉ — below workers panels, cores idle), so
//     T_dfs = R·t_gemm · ⌈nb/w⌉/nb.
//   - BFS at prefix depth d fans F = ΠRl (l ≤ d) chunks of R/F serial
//     single-threaded terms across w workers in ⌈F/w⌉ rounds, then pays the
//     reduction fold: per-term product buffers for Naive/AB (τb·R·sm·sn extra
//     buffer traffic over the DFS scatter), per-chunk C shadows for ABC
//     (4·τb·F·m₁·n₁ — zero, read shadow, read C, write C over the full core).
//
// The cheapest depth wins; depth 0 (pure DFS) returns nil, so callers can
// hand the result straight to fmmexec.NewPlanTraversal (nil = historical
// serial loop). Ties keep the shallower depth — less memory for the same
// predicted time. workers < 2, an empty plan, or a problem smaller than the
// composite partition always returns nil.
func TraversalPlan(arch Arch, v fmmexec.Variant, m, k, n int, levels []core.Algorithm, workers int) []fmmexec.Step {
	L := len(levels)
	if workers < 2 || L == 0 {
		return nil
	}
	s := StatsOf(levels...)
	sm, sk, sn := m/s.MT, k/s.KT, n/s.NT
	if sm < 1 || sk < 1 || sn < 1 {
		return nil // partition larger than the problem: plain GEMM anyway
	}

	// DFS baseline: the sub-block offers nb = ⌈sm/MC⌉ independent row panels
	// to the intra-GEMM ic-loop split, so its realized speedup saturates at
	// min(nb, w).
	best := dfsCost(arch, s, sm, sk, sn, workers)
	bestDepth := 0
	for d := 1; d <= L; d++ {
		if cost := bfsCost(arch, v, s, sm, sk, sn, levels, d, workers); cost < best {
			best = cost
			bestDepth = d
		}
	}
	if bestDepth == 0 {
		return nil
	}
	steps := make([]fmmexec.Step, L)
	for i := 0; i < bestDepth; i++ {
		steps[i] = fmmexec.BFS
	}
	return steps
}

// dfsCost is the DFS baseline: R sub-products back-to-back, each
// parallelized internally with speedup capped at min(⌈sm/MC⌉, workers).
func dfsCost(arch Arch, s Stats, sm, sk, sn, workers int) float64 {
	perTerm := PredictGEMM(arch, sm, sk, sn).Total()
	nb := (sm + arch.MC - 1) / arch.MC
	return float64(s.R) * perTerm * math.Ceil(float64(nb)/float64(workers)) / float64(nb)
}

// bfsCost is the BFS cost at prefix depth d: ⌈F/w⌉ rounds of R/F serial
// terms, plus the reduction fold's τb buffer traffic.
func bfsCost(arch Arch, v fmmexec.Variant, s Stats, sm, sk, sn int, levels []core.Algorithm, depth, workers int) float64 {
	perTerm := PredictGEMM(arch, sm, sk, sn).Total()
	w := float64(workers)
	F := 1
	for i := 0; i < depth; i++ {
		F *= levels[i].R
	}
	chunk := float64(s.R / F)
	compute := math.Ceil(float64(F)/w) * chunk * perTerm
	m1 := float64(sm * s.MT)
	n1 := float64(sn * s.NT)
	if v == fmmexec.ABC {
		return compute + 4*arch.TauB*float64(F)*m1*n1
	}
	return compute + arch.TauB*float64(s.R)*float64(sm)*float64(sn) // Naive, AB: per-term product buffers
}
