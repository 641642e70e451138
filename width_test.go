package fmmfam

import (
	"fmt"
	"math/rand"
	"testing"

	"fmmfam/internal/fmmexec"
	"fmmfam/internal/matrix"
	"fmmfam/internal/shard"
)

// wideCfg is an eight-thread multiplier on the reference kernel at small
// blocking, where fast algorithms serve products from ~150 up: the 256³ and
// 512³ classes get <2,2,2> ABC.
func wideCfg() Config {
	return Config{MC: 16, KC: 16, NC: 32, Threads: 8, Kernel: "go4x4"}
}

// fourCfg is a four-thread multiplier on the reference kernel that serves
// fast algorithms at the default-ish 32/32/64 blocking.
func fourCfg() Config {
	return Config{MC: 32, KC: 32, NC: 64, Threads: 4, Kernel: "go4x4"}
}

// tileRow is one row of the tile-replay table.
type tileRow struct {
	cfg     Config
	m, k, n int
}

// The traversal tests share one table contract, the tile contract every
// product a multiplier cuts obeys: on every row the multiplier serves a fast
// algorithm to a product below the shard threshold, cuts it into tiles at
// the MC floor with K whole, and its MulAdd equals PlanFor's plan replayed
// tile by tile on Explain's grid, bit for bit, at both precisions. The
// result also matches the reference product, and repeating the call
// reproduces its bits. The tiles follow from Threads, so unlike a
// GEMM-served product's (TestGEMMServedBitsIndependentOfThreads) an FMM
// product's bits do too. The names date from when a plan could fan its
// terms out (BFS) instead of running them in order (DFS).

// TestTraversalBFSEndToEnd covers <2,2,2> ABC on wideCfg at divisible and
// fringed sizes.
func TestTraversalBFSEndToEnd(t *testing.T) {
	runTileRows(t, 60, []tileRow{
		{wideCfg(), 256, 256, 256},
		{wideCfg(), 300, 260, 270},
		{wideCfg(), 211, 197, 203},
	})
}

// TestTraversalDFSKeepsSerialBits covers a four-thread multiplier on a
// fringed shape.
func TestTraversalDFSKeepsSerialBits(t *testing.T) {
	runTileRows(t, 63, []tileRow{{fourCfg(), 160, 144, 176}})
}

// TestTraversalAutoMatchesReference covers a four-thread multiplier on a
// square problem.
func TestTraversalAutoMatchesReference(t *testing.T) {
	runTileRows(t, 64, []tileRow{{fourCfg(), 256, 256, 256}})
}

// runTileRows checks each row at float64 and float32, seeding row i with
// seed+i.
func runTileRows(t *testing.T, seed int64, rows []tileRow) {
	for i, row := range rows {
		name := fmt.Sprintf("%dx%dx%d/T%d", row.m, row.k, row.n, row.cfg.Threads)
		s := seed + int64(i)
		t.Run(name+"/float64", func(t *testing.T) {
			checkTileReplay[float64](t, row.cfg, row.m, row.k, row.n, s, 1e-9)
		})
		t.Run(name+"/float32", func(t *testing.T) {
			checkTileReplay[float32](t, row.cfg, row.m, row.k, row.n, s, float32Tol(row.k))
		})
	}
}

func checkTileReplay[E matrix.Element](t *testing.T, cfg Config, m, k, n int, seed int64, tol float64) {
	mu := NewGenericMultiplier[E](cfg, PaperArch())
	p, err := mu.PlanFor(m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Levels) == 0 {
		t.Fatalf("Threads=%d plan is %s, want a fast algorithm", cfg.Threads, p)
	}
	ex, err := mu.Explain(m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if max(m, k, n) >= cfg.shardThreshold() || ex.GridM == 0 || ex.GridK != 1 {
		t.Fatalf("Threads=%d: %+v, want MC-floor tiles below the threshold", cfg.Threads, ex)
	}
	rng := rand.New(rand.NewSource(seed))
	a, b := matrix.New[E](m, k), matrix.New[E](k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	want := matrix.New[E](m, n)
	matrix.MulAdd(want, a, b)
	replay := matrix.New[E](m, n)
	spec := shard.Spec{M: m, K: k, N: n, GridM: ex.GridM, GridN: ex.GridN, GridK: ex.GridK}
	if err := replaySharded(serialTwin(mu), spec, replay, a, b); err != nil {
		t.Fatal(err)
	}
	for run := range 2 {
		c := matrix.New[E](m, n)
		if err := mu.MulAdd(c, a, b); err != nil {
			t.Fatal(err)
		}
		if d := c.MaxAbsDiff(want); d > tol {
			t.Fatalf("Threads=%d %s: diff %g from the reference", cfg.Threads, p, d)
		}
		if c.Fingerprint() != replay.Fingerprint() {
			t.Fatalf("run %d: Threads=%d %s on %d×%d tiles differs from its tile-by-tile replay",
				run, cfg.Threads, p, ex.GridM, ex.GridN)
		}
	}
}

// TestGEMMServedBitsIndependentOfThreads: a GEMM-served product's result
// does not depend on Threads. On every registered kernel, at both
// precisions, a product runs whole at Threads = 1 and, at Threads 2 and 3,
// whole where two MC tiles do not fit and cut into MC-floor tiles where they
// do, and the three results are identical bit for bit — the property that
// keeps GEMM-served bits, the float64 golden fingerprints included, valid at
// any Threads. Shapes a kernel serves with a fast algorithm are skipped
// there.
func TestGEMMServedBitsIndependentOfThreads(t *testing.T) {
	t.Run("float64", gemmServedBitsIndependentOfThreads[float64])
	t.Run("float32", gemmServedBitsIndependentOfThreads[float32])
}

func gemmServedBitsIndependentOfThreads[E matrix.Element](t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, kern := range Kernels() {
		if _, ok := archOf(kern, matrix.DtypeOf[E]()); !ok {
			continue
		}
		for _, s := range [][3]int{{40, 30, 40}, {100, 70, 90}, {128, 128, 128}, {200, 64, 150}, {300, 300, 300}} {
			a, b := matrix.New[E](s[0], s[1]), matrix.New[E](s[1], s[2])
			a.FillRand(rng)
			b.FillRand(rng)
			var first uint64
			runs, tiled := 0, false
			for _, threads := range []int{1, 2, 3} {
				cfg := Config{MC: 24, KC: 32, NC: 64, Threads: threads, Kernel: kern}
				mu := NewGenericMultiplier[E](cfg, PaperArch())
				ex, err := mu.Explain(s[0], s[1], s[2])
				if err != nil {
					t.Fatal(err)
				}
				if ex.Plan != fmmexec.GEMMName {
					break
				}
				runs, tiled = runs+1, tiled || ex.GridM > 0
				c := matrix.New[E](s[0], s[2])
				if err := mu.MulAdd(c, a, b); err != nil {
					t.Fatal(err)
				}
				if threads == 1 {
					first = c.Fingerprint()
				} else if c.Fingerprint() != first {
					t.Fatalf("%s %v: Threads=%d (grid %d×%d×%d) differs from Threads=1", kern, s, threads, ex.GridM, ex.GridN, ex.GridK)
				}
			}
			if runs == 3 && s[0] >= 2*24 && !tiled {
				t.Fatalf("%s %v: never tiled", kern, s)
			}
		}
	}
}
