package fmmfam

import (
	"math/rand"
	"testing"

	"fmmfam/internal/matrix"
)

// bfsCfg is a parallel multiplier on which the performance model fans a
// plan's terms across the pool: on the reference kernel with this small
// blocking at eight threads, the 256³ and 512³ classes get <2,2,2> ABC with
// its seven terms fanned (model.TraversalPlan), where at four threads the
// same plans keep the serial term loop.
func bfsCfg() Config {
	return Config{MC: 16, KC: 16, NC: 32, Threads: 8, Kernel: "go4x4"}
}

// TestTraversalBFSEndToEnd drives the full Multiplier stack on shapes where
// the model picks BFS: correctness against the reference on divisible and
// fringed sizes, and run-to-run bit-identical repeats (the BFS determinism
// contract). Each shape first asserts its plan fans out, so a model change
// cannot quietly turn this into a DFS test.
func TestTraversalBFSEndToEnd(t *testing.T) {
	mu := NewMultiplier(bfsCfg(), PaperArch())
	rng := rand.New(rand.NewSource(60))
	for _, s := range [][3]int{{256, 256, 256}, {300, 260, 270}, {211, 197, 203}} {
		p, err := mu.PlanFor(s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		if p.Fanout() < 2 {
			t.Fatalf("%v: plan %s has fanout %d, want an auto-selected BFS plan (≥ 2)", s, p, p.Fanout())
		}
		a, b := NewMatrix(s[0], s[1]), NewMatrix(s[1], s[2])
		a.FillRand(rng)
		b.FillRand(rng)
		want := NewMatrix(s[0], s[2])
		matrix.MulAdd(want, a, b)
		c := NewMatrix(s[0], s[2])
		if err := mu.MulAdd(c, a, b); err != nil {
			t.Fatal(err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("bfs MulAdd %v: diff %g", s, d)
		}
		c2 := NewMatrix(s[0], s[2])
		if err := mu.MulAdd(c2, a, b); err != nil {
			t.Fatal(err)
		}
		if d := c.MaxAbsDiff(c2); d != 0 {
			t.Fatalf("bfs MulAdd %v not run-to-run deterministic: %g", s, d)
		}
	}
}

// TestTraversalDFSKeepsSerialBits: where the model keeps the serial term
// loop, a parallel multiplier produces exactly the serial multiplier's bits —
// the property that keeps the float64 golden fingerprints valid at any
// Threads.
func TestTraversalDFSKeepsSerialBits(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 1, Kernel: "go4x4"}
	rng := rand.New(rand.NewSource(61))
	a, b := NewMatrix(160, 144), NewMatrix(144, 176)
	a.FillRand(rng)
	b.FillRand(rng)
	c1 := NewMatrix(160, 176)
	if err := NewMultiplier(cfg, PaperArch()).MulAdd(c1, a, b); err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 4
	mu := NewMultiplier(cfg, PaperArch())
	p, err := mu.PlanFor(160, 144, 176)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Levels) == 0 || p.Fanout() != 1 {
		t.Fatalf("Threads=4 plan %s fanout %d, want a DFS fast algorithm", p, p.Fanout())
	}
	c2 := NewMatrix(160, 176)
	if err := mu.MulAdd(c2, a, b); err != nil {
		t.Fatal(err)
	}
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("Threads=4 DFS plan is not bit-identical to serial")
	}
}

// TestTraversalAutoMatchesReference: whatever the model chooses for a
// parallel multiplier, results must match the reference and stay
// deterministic across repeats.
func TestTraversalAutoMatchesReference(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 4, Kernel: "go4x4"} // FMM plans at these sizes
	mu := NewMultiplier(cfg, PaperArch())
	rng := rand.New(rand.NewSource(62))
	a, b := NewMatrix(256, 256), NewMatrix(256, 256)
	a.FillRand(rng)
	b.FillRand(rng)
	want := NewMatrix(256, 256)
	matrix.MulAdd(want, a, b)
	c := NewMatrix(256, 256)
	if err := mu.MulAdd(c, a, b); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("auto MulAdd diff %g", d)
	}
	c2 := NewMatrix(256, 256)
	if err := mu.MulAdd(c2, a, b); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(c2); d != 0 {
		t.Fatalf("auto MulAdd not run-to-run deterministic: %g", d)
	}
}
