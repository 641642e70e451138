package fmmfam

// Cross-module integration tests: the full stack (generator → plan →
// fused GEMM → peeling → parallelism) against the reference oracle, plus
// interop between discovery, coefficient I/O and execution.

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fmmfam/internal/coeffio"
	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/stability"
)

func refCheck(t *testing.T, p *Plan, m, k, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, b := NewMatrix(m, k), NewMatrix(k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	c := NewMatrix(m, n)
	want := NewMatrix(m, n)
	matrix.MulAdd(want, a, b)
	p.MulAdd(c, a, b)
	if d := c.MaxAbsDiff(want); d > 1e-8 {
		t.Fatalf("%s at %d×%d×%d: diff %g", p, m, k, n, d)
	}
}

func TestThreeLevelHybridAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("three-level sweep")
	}
	levels := []Algorithm{Generate(2, 2, 2), Generate(2, 3, 2), Generate(3, 2, 2)}
	for _, v := range []Variant{Naive, AB, ABC} {
		p, err := NewPlan(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, v, levels...)
		if err != nil {
			t.Fatal(err)
		}
		// Composite partition <12,12,8>; pick sizes with and without fringes.
		refCheck(t, p, 96, 96, 64, 1)
		refCheck(t, p, 97, 100, 70, 2)
	}
}

func TestCatalogTwoLevelSelfCompositionABC(t *testing.T) {
	if testing.Short() {
		t.Skip("23 two-level plans")
	}
	for _, e := range Catalog() {
		p, err := NewPlan(Config{MC: 8, KC: 8, NC: 16, Threads: 1}, ABC, e.Algorithm, e.Algorithm)
		if err != nil {
			t.Fatalf("%s: %v", e.Shape(), err)
		}
		refCheck(t, p, e.M*e.M*3+1, e.K*e.K*3+2, e.N*e.N*3+1, int64(e.M+10*e.K+100*e.N))
	}
}

func TestAllThreadCountsAgree(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if max > 8 {
		max = 8
	}
	rng := rand.New(rand.NewSource(3))
	a, b := NewMatrix(150, 90), NewMatrix(90, 120)
	a.FillRand(rng)
	b.FillRand(rng)
	var first Matrix
	for threads := 1; threads <= max; threads++ {
		p, err := NewPlan(Config{MC: 16, KC: 16, NC: 32, Threads: threads}, ABC, Strassen(), Generate(2, 3, 2))
		if err != nil {
			t.Fatal(err)
		}
		c := NewMatrix(150, 120)
		p.MulAdd(c, a, b)
		if threads == 1 {
			first = c
			continue
		}
		if d := c.MaxAbsDiff(first); d != 0 {
			t.Fatalf("threads=%d differs from serial by %g", threads, d)
		}
	}
}

func TestCoeffIOIntoPlanExecution(t *testing.T) {
	// Export a generated algorithm, re-import it, run it through the
	// executor: the serialized form must be executably identical.
	var buf bytes.Buffer
	if err := coeffio.Write(&buf, core.Generate(3, 2, 3)); err != nil {
		t.Fatal(err)
	}
	imported, err := coeffio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(Config{MC: 8, KC: 8, NC: 16, Threads: 1}, AB, imported)
	if err != nil {
		t.Fatal(err)
	}
	refCheck(t, p, 31, 23, 29, 4)
}

func TestModelAgreesWithMeasurementOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real multiplications")
	}
	// The model's core promise (§4.4): its *relative* ordering of ABC vs
	// Naive for a rank-k update matches measurement. Calibrate to this
	// machine, predict both, measure both.
	cfg := DefaultConfig()
	arch, err := model.Calibrate[float64](gemm.Config{MC: cfg.MC, KC: cfg.KC, NC: cfg.NC, Threads: 1}, 256)
	if err != nil {
		t.Fatal(err)
	}
	const m, k, n = 720, 240, 720
	s := model.StatsOf(core.Strassen())
	predABC := model.Predict(arch, s, fmmexec.ABC, m, k, n).Total()
	predNaive := model.Predict(arch, s, fmmexec.Naive, m, k, n).Total()
	if predABC >= predNaive {
		t.Fatalf("model: ABC %v !< Naive %v for rank-k", predABC, predNaive)
	}
	// The model-side ordering above is a hard assertion; the wall-clock half
	// is best of several runs with the two variants alternating — on a shared
	// host the two times differ by less than the run-to-run noise of a
	// best-of-3, and measuring one variant after the other lets a host
	// slowdown fall on one side only. Even so one measurement in two or three
	// lands in a noisy window on a 2-vCPU host, so the measurement is repeated
	// up to three times and only a contradiction on every attempt fails.
	a, b := NewMatrix(m, k), NewMatrix(k, n)
	a.Fill(0.5)
	b.Fill(0.25)
	c := NewMatrix(m, n)
	variants := []Variant{ABC, Naive}
	plans := make([]*Plan, len(variants))
	for i, v := range variants {
		if plans[i], err = NewPlan(cfg, v, Strassen()); err != nil {
			t.Fatal(err)
		}
	}
	const attempts = 3
	for attempt := 1; attempt <= attempts; attempt++ {
		best := []float64{1e18, 1e18}
		for rep := 0; rep < 9; rep++ {
			for i, p := range plans {
				c.Zero()
				start := time.Now()
				p.MulAdd(c, a, b)
				best[i] = min(best[i], time.Since(start).Seconds())
			}
		}
		if best[0] < best[1]*1.05 {
			return
		}
		t.Logf("attempt %d/%d: ABC %.4fs vs Naive %.4fs contradicts the model", attempt, attempts, best[0], best[1])
	}
	t.Fatal("measurement contradicts model on every attempt: ABC slower than Naive on rank-k")
}

func TestStabilityThroughFullStack(t *testing.T) {
	p, err := NewPlan(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, ABC, Strassen(), Strassen())
	if err != nil {
		t.Fatal(err)
	}
	r := stability.Measure(p, 128, 128, 128, 7)
	if r.MaxErr <= 0 || r.MaxErr > 1e-10 {
		t.Fatalf("two-level Strassen error %g outside expected window", r.MaxErr)
	}
}

func TestDiscoveredAlgorithmThroughFullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ALS")
	}
	algo, err := Discover(DiscoverProblem{M: 2, K: 2, N: 2, R: 7},
		DiscoverOptions{Restarts: 10, Iters: 1500, Seed: 2})
	if err != nil {
		t.Fatalf("known-good discovery seed failed: %v", err)
	}
	p, err := NewPlan(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, ABC, algo, algo)
	if err != nil {
		t.Fatal(err)
	}
	refCheck(t, p, 85, 91, 77, 8)
}
