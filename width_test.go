package fmmfam

import (
	"fmt"
	"math/rand"
	"testing"

	"fmmfam/internal/matrix"
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

// widthRow is one row of the width-independence table.
type widthRow struct {
	cfg     Config
	m, k, n int
}

// The traversal tests share one table contract: a plan's result does not
// depend on its width. On every row the wide multiplier serves a fast
// algorithm, and its MulAdd equals a Threads=1 multiplier's bit for bit, at
// both precisions — the property that keeps the float64 golden fingerprints
// valid at any Threads. Both results also match the reference product, and
// repeating the wide call reproduces its bits. The names date from when a
// plan could fan its terms out (BFS) instead of running them in order (DFS).

// TestTraversalBFSEndToEnd covers the shapes on which the term fan-out used
// to be chosen: <2,2,2> ABC on wideCfg at divisible and fringed sizes.
func TestTraversalBFSEndToEnd(t *testing.T) {
	runWidthRows(t, 60, []widthRow{
		{wideCfg(), 256, 256, 256},
		{wideCfg(), 300, 260, 270},
		{wideCfg(), 211, 197, 203},
	})
}

// TestTraversalDFSKeepsSerialBits covers a four-thread multiplier on a
// fringed shape.
func TestTraversalDFSKeepsSerialBits(t *testing.T) {
	runWidthRows(t, 63, []widthRow{{fourCfg(), 160, 144, 176}})
}

// TestTraversalAutoMatchesReference covers a four-thread multiplier on a
// square problem.
func TestTraversalAutoMatchesReference(t *testing.T) {
	runWidthRows(t, 64, []widthRow{{fourCfg(), 256, 256, 256}})
}

// runWidthRows checks each row at float64 and float32, seeding row i with
// seed+i.
func runWidthRows(t *testing.T, seed int64, rows []widthRow) {
	for i, row := range rows {
		name := fmt.Sprintf("%dx%dx%d/T%d", row.m, row.k, row.n, row.cfg.Threads)
		s := seed + int64(i)
		t.Run(name+"/float64", func(t *testing.T) {
			checkWidthIndependent[float64](t, row.cfg, row.m, row.k, row.n, s, 1e-9)
		})
		t.Run(name+"/float32", func(t *testing.T) {
			checkWidthIndependent[float32](t, row.cfg, row.m, row.k, row.n, s, float32Tol(row.k))
		})
	}
}

func checkWidthIndependent[E matrix.Element](t *testing.T, cfg Config, m, k, n int, seed int64, tol float64) {
	wide := NewGenericMultiplier[E](cfg, PaperArch())
	p, err := wide.PlanFor(m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Levels) == 0 {
		t.Fatalf("Threads=%d plan is %s, want a fast algorithm", cfg.Threads, p)
	}
	serialCfg := cfg
	serialCfg.Threads = 1
	serial := NewGenericMultiplier[E](serialCfg, PaperArch())
	rng := rand.New(rand.NewSource(seed))
	a, b := matrix.New[E](m, k), matrix.New[E](k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	want := matrix.New[E](m, n)
	matrix.MulAdd(want, a, b)
	var prints []uint64
	for _, mu := range []*GenericMultiplier[E]{serial, wide, wide} {
		c := matrix.New[E](m, n)
		if err := mu.MulAdd(c, a, b); err != nil {
			t.Fatal(err)
		}
		if d := c.MaxAbsDiff(want); d > tol {
			t.Fatalf("Threads=%d %s: diff %g from the reference", mu.cfg.Threads, p, d)
		}
		prints = append(prints, c.Fingerprint())
	}
	if prints[1] != prints[0] || prints[2] != prints[0] {
		t.Fatalf("%s: Threads=%d fingerprints %#x, %#x differ from Threads=1's %#x",
			p, cfg.Threads, prints[1], prints[2], prints[0])
	}
}
