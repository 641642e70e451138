package fmmexec

import (
	"math/rand"
	"sync"
	"testing"

	"fmmfam/internal/core"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
	"fmmfam/internal/sched"
)

// allBFS builds an n-level all-BFS traversal.
func allBFS(n int) []Step {
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = BFS
	}
	return steps
}

// checkTraversal runs a BFS plan against the reference on one size.
func checkTraversal[E matrix.Element](t *testing.T, p *Plan[E], m, k, n int, seed int64, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, b := matrix.New[E](m, k), matrix.New[E](k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	c := matrix.New[E](m, n)
	c.FillRand(rng)
	want := c.Clone()
	matrix.MulAdd(want, a, b)
	p.MulAdd(c, a, b)
	if d := c.MaxAbsDiff(want); d > tol {
		t.Fatalf("%s (fanout %d) on %d×%d×%d: diff %g", p, p.Fanout(), m, k, n, d)
	}
}

// TestBFSTraversalMatchesReference covers every variant at both dtypes under
// forced all-BFS, including fringed (peeled) and smaller-than-partition
// sizes, at one and two levels.
func TestBFSTraversalMatchesReference(t *testing.T) {
	cfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 4}
	sizes := [][3]int{{16, 16, 16}, {32, 16, 24}, {15, 17, 13}, {3, 3, 3}}
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			p1, err := NewPlanTraversal[float64](cfg, v, allBFS(1), core.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			if p1.Fanout() != 7 {
				t.Fatalf("one-level Strassen BFS fanout %d, want 7", p1.Fanout())
			}
			p2, err := NewPlanTraversal[float64](cfg, v, allBFS(2), core.Strassen(), core.Generate(2, 3, 2))
			if err != nil {
				t.Fatal(err)
			}
			if p2.Fanout() != 7*11 {
				t.Fatalf("two-level hybrid BFS fanout %d, want 77", p2.Fanout())
			}
			seed := int64(400)
			for _, s := range sizes {
				checkTraversal(t, p1, s[0], s[1], s[2], seed, 1e-9)
				checkTraversal(t, p2, s[0]+4, s[1]+7, s[2]+2, seed+1, 1e-9)
				seed += 2
			}
			p32, err := NewPlanTraversal[float32](cfg, v, allBFS(1), core.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sizes {
				checkTraversal(t, p32, s[0], s[1], s[2], seed, 1e-3)
				seed++
			}
		})
	}
}

// TestBFSPrefixTraversalMatchesReference exercises a mixed traversal —
// BFS at the outer level, DFS inside — the shape model.TraversalPlan
// typically returns.
func TestBFSPrefixTraversalMatchesReference(t *testing.T) {
	cfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 4}
	for _, v := range Variants {
		p, err := NewPlanTraversal[float64](cfg, v, []Step{BFS, DFS}, core.Strassen(), core.Strassen())
		if err != nil {
			t.Fatal(err)
		}
		if p.Fanout() != 7 {
			t.Fatalf("%s: prefix fanout %d, want 7", v, p.Fanout())
		}
		checkTraversal(t, p, 28, 24, 20, 500+int64(v), 1e-9)
	}
}

// fingerprintMulAdd runs c += a·b through p on fixed inputs and returns C's
// bit fingerprint.
func fingerprintMulAdd[E matrix.Element](p *Plan[E], m, k, n int, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	a, b := matrix.New[E](m, k), matrix.New[E](k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	c := matrix.New[E](m, n)
	p.MulAdd(c, a, b)
	return c.Fingerprint()
}

// TestBFSBitIdenticalToSerialNaiveAB pins the strongest determinism claim:
// for the Naive and AB variants the BFS fold replays the serial path's
// per-element addition order exactly, so the parallel traversal is
// bit-identical to the Threads=1 DFS plan — per variant and dtype, repeated
// to give the scheduler room to interleave differently (the -count=20 pin,
// folded into one run).
func TestBFSBitIdenticalToSerialNaiveAB(t *testing.T) {
	reps := 20
	if testing.Short() {
		reps = 5
	}
	serialCfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 1}
	parCfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 4}
	for _, v := range []Variant{Naive, AB} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			ps, err := NewPlanTraversal[float64](serialCfg, v, nil, core.Strassen(), core.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			pp, err := NewPlanTraversal[float64](parCfg, v, allBFS(2), core.Strassen(), core.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprintMulAdd(ps, 36, 36, 36, 600)
			for i := 0; i < reps; i++ {
				if got := fingerprintMulAdd(pp, 36, 36, 36, 600); got != want {
					t.Fatalf("%s rep %d: BFS fingerprint %#x != serial %#x", v, i, got, want)
				}
			}
			ps32, err := NewPlanTraversal[float32](serialCfg, v, nil, core.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			pp32, err := NewPlanTraversal[float32](parCfg, v, allBFS(1), core.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			want32 := fingerprintMulAdd(ps32, 30, 26, 34, 601)
			for i := 0; i < reps; i++ {
				if got := fingerprintMulAdd(pp32, 30, 26, 34, 601); got != want32 {
					t.Fatalf("%s rep %d: float32 BFS fingerprint %#x != serial %#x", v, i, got, want32)
				}
			}
		})
	}
}

// TestBFSRunToRunDeterministicABC pins the ABC BFS contract: per-chunk
// shadow accumulation cannot replay the serial interleaving, but fixed
// chunking and a fixed fold order make repeated runs bit-identical
// regardless of how the pool schedules the chunks.
func TestBFSRunToRunDeterministicABC(t *testing.T) {
	reps := 20
	if testing.Short() {
		reps = 5
	}
	cfg := gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 4}
	p, err := NewPlanTraversal[float64](cfg, ABC, allBFS(2), core.Strassen(), core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintMulAdd(p, 36, 36, 36, 700)
	for i := 0; i < reps; i++ {
		if got := fingerprintMulAdd(p, 36, 36, 36, 700); got != want {
			t.Fatalf("rep %d: ABC BFS fingerprint %#x != first run %#x", i, got, want)
		}
	}
	p32, err := NewPlanTraversal[float32](cfg, ABC, allBFS(1), core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	want32 := fingerprintMulAdd(p32, 24, 24, 24, 701)
	for i := 0; i < reps; i++ {
		if got := fingerprintMulAdd(p32, 24, 24, 24, 701); got != want32 {
			t.Fatalf("rep %d: float32 ABC BFS fingerprint %#x != first run %#x", i, got, want32)
		}
	}
}

// TestConcurrentBFSMulAdd hammers one BFS plan per variant from many
// goroutines — under -race this checks that term jobs' rented workspaces,
// term lists, and reduction buffers are never shared across concurrent
// calls, and that concurrent Pool.Run invocations compose.
func TestConcurrentBFSMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(800))
	type job struct{ a, b, want matrix.Mat[float64] }
	sizes := [][3]int{{16, 16, 16}, {24, 20, 28}, {15, 17, 13}, {32, 8, 32}}
	jobs := make([]job, len(sizes))
	for i, s := range sizes {
		a, b := matrix.New[float64](s[0], s[1]), matrix.New[float64](s[1], s[2])
		a.FillRand(rng)
		b.FillRand(rng)
		want := matrix.New[float64](s[0], s[2])
		matrix.MulAdd(want, a, b)
		jobs[i] = job{a, b, want}
	}
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			p, err := NewPlanTraversal[float64](gemm.Config{MC: 8, KC: 8, NC: 16, Threads: 3}, v, allBFS(1), core.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < 4; it++ {
						j := jobs[(g+it)%len(jobs)]
						c := matrix.New[float64](j.want.Rows, j.want.Cols)
						p.MulAdd(c, j.a, j.b)
						if d := c.MaxAbsDiff(j.want); d > 1e-9 {
							t.Errorf("goroutine %d: diff %g", g, d)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestNewPlanTraversalValidation pins the constructor's traversal rules.
func TestNewPlanTraversalValidation(t *testing.T) {
	cfg := smallCfg()
	if _, err := NewPlanTraversal[float64](cfg, ABC, []Step{BFS}, core.Strassen(), core.Strassen()); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewPlanTraversal[float64](cfg, ABC, []Step{DFS, BFS}, core.Strassen(), core.Strassen()); err == nil {
		t.Fatal("BFS after DFS accepted (must be a prefix)")
	}
	if _, err := NewPlanTraversal[float64](cfg, ABC, []Step{Step(5)}, core.Strassen()); err == nil {
		t.Fatal("unknown step accepted")
	}
	p, err := NewPlanTraversal[float64](cfg, ABC, []Step{BFS, BFS}, core.Strassen(), core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if p.Fanout() != 49 {
		t.Fatalf("fanout %d, want 49", p.Fanout())
	}
	if tr := p.Traversal(); len(tr) != 2 || tr[0] != BFS || tr[1] != BFS {
		t.Fatalf("traversal accessor %v", tr)
	}
	// nil traversal and all-DFS are the historical plan.
	pd, err := NewPlanTraversal[float64](cfg, ABC, []Step{DFS}, core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if pd.Fanout() != 1 || len(pd.Traversal()) != 1 {
		t.Fatalf("DFS plan fanout %d traversal %v", pd.Fanout(), pd.Traversal())
	}
}

// TestStepString covers the Step stringer.
func TestStepString(t *testing.T) {
	if DFS.String() != "dfs" || BFS.String() != "bfs" {
		t.Fatal("step names")
	}
	if Step(9).String() == "" {
		t.Fatal("unknown step should still print")
	}
}

// TestBFSWithThreadsOne degrades gracefully: a BFS traversal on a
// single-worker pool runs the fan-out serially on the caller and still
// matches the reference.
func TestBFSWithThreadsOne(t *testing.T) {
	p, err := NewPlanTraversal[float64](smallCfg(), AB, allBFS(1), core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	checkTraversal(t, p, 20, 20, 20, 900, 1e-9)
}

// TestPlanOnSharedPool: a plan built on a caller's context executes on that
// context and nothing else — its BFS term jobs run on the context's serial
// view, which shares the worker pool, the workspaces and the scratch list —
// and a plan built without one gets a private context with the same shape. A
// plan never holds a second worker budget or a second store of buffers.
func TestPlanOnSharedPool(t *testing.T) {
	cfg := gemm.Config{MC: 16, KC: 16, NC: 32, Threads: 4}
	shared, err := gemm.NewContextOn[float64](cfg, sched.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	onShared, err := NewPlanOn(shared, AB, []Step{BFS}, core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if onShared.Context() != shared {
		t.Fatal("plan ignored the context it was built on")
	}
	private, err := NewPlanTraversal[float64](cfg, AB, []Step{BFS}, core.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan[float64]{onShared, private} {
		ctx := p.Context()
		s := ctx.Serial()
		if s == ctx || s.Config().Threads != 1 {
			t.Fatal("BFS plan has no Threads=1 view to run term jobs on")
		}
		if ctx.Pool() == nil || ctx.Pool() != s.Pool() {
			t.Fatal("plan's context and its serial view run on different pools")
		}
		ws := ctx.GetWorkspace()
		ctx.PutWorkspace(ws)
		if got := s.GetWorkspace(); got != ws {
			t.Fatal("serial view rents from a workspace pool of its own")
		} else {
			s.PutWorkspace(got)
		}
		m := ctx.RentMat(8, 8)
		ctx.ReturnMat(m)
		if got := s.RentMat(8, 8); &got.Data[0] != &m.Data[0] {
			t.Fatal("serial view rents from a scratch list of its own")
		} else {
			s.ReturnMat(got)
		}
	}
}
