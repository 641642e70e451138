package fmmfam

import (
	"math/rand"
	"testing"

	"fmmfam/internal/matrix"
)

// TestConfigTraversalValidation: the Traversal knob accepts exactly the
// documented values, from both Validate and the multiplier entry points.
func TestConfigTraversalValidation(t *testing.T) {
	base := Config{MC: 32, KC: 32, NC: 64, Threads: 2}
	for _, ok := range []string{"", TraversalAuto, TraversalDFS, TraversalBFS} {
		cfg := base
		cfg.Traversal = ok
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Traversal=%q rejected: %v", ok, err)
		}
	}
	cfg := base
	cfg.Traversal = "breadth-first"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown Traversal accepted by Validate")
	}
	mu := NewMultiplier(cfg, PaperArch())
	c, a, b := NewMatrix(8, 8), NewMatrix(8, 8), NewMatrix(8, 8)
	if err := mu.MulAdd(c, a, b); err == nil {
		t.Fatal("multiplier with unknown Traversal executed")
	}
	if _, err := NewPlan(cfg, ABC, Strassen()); err == nil {
		t.Fatal("NewPlan with unknown Traversal succeeded")
	}
}

// TestForcedTraversalShapesPlans: "bfs" builds fanned plans, "dfs" and the
// Threads=1 auto path build the serial term loop, on both the Multiplier and
// the direct NewPlan/NewPlan32 surfaces.
func TestForcedTraversalShapesPlans(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 4, Traversal: TraversalBFS, Kernel: "go4x4"} // 256³ clears go4x4's break-even: an FMM plan to fan
	mu := NewMultiplier(cfg, PaperArch())
	p, err := mu.PlanFor(256, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fanout() < 2 {
		t.Fatalf("forced bfs plan fanout %d, want ≥ 2", p.Fanout())
	}
	cfg.Traversal = TraversalDFS
	if p, err = NewMultiplier(cfg, PaperArch()).PlanFor(256, 256, 256); err != nil {
		t.Fatal(err)
	}
	if p.Fanout() != 1 {
		t.Fatalf("forced dfs plan fanout %d, want 1", p.Fanout())
	}
	cfg.Traversal = TraversalAuto
	cfg.Threads = 1
	if p, err = NewMultiplier(cfg, PaperArch()).PlanFor(256, 256, 256); err != nil {
		t.Fatal(err)
	}
	if p.Fanout() != 1 {
		t.Fatalf("Threads=1 auto plan fanout %d, want 1", p.Fanout())
	}

	cfg = Config{MC: 32, KC: 32, NC: 64, Threads: 4, Traversal: TraversalBFS}
	dp, err := NewPlan(cfg, ABC, Strassen(), Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if dp.Fanout() != 49 {
		t.Fatalf("direct bfs plan fanout %d, want 49", dp.Fanout())
	}
	dp32, err := NewPlan32(cfg, AB, Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if dp32.Fanout() != 7 {
		t.Fatalf("direct float32 bfs plan fanout %d, want 7", dp32.Fanout())
	}
}

// TestTraversalBFSEndToEnd drives the full Multiplier stack under forced
// BFS: correctness against the reference on divisible and fringed sizes,
// and run-to-run bit-identical repeats (the BFS determinism contract).
func TestTraversalBFSEndToEnd(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 4, Traversal: TraversalBFS, Kernel: "go4x4"} // FMM plans at these sizes
	mu := NewMultiplier(cfg, PaperArch())
	rng := rand.New(rand.NewSource(60))
	for _, s := range [][3]int{{128, 128, 128}, {200, 130, 170}, {97, 61, 113}} {
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

// TestTraversalDFSKeepsSerialBits: under Traversal "dfs" a parallel
// multiplier produces exactly the serial multiplier's bits — the property
// that keeps the float64 golden fingerprints valid with the knob thrown.
func TestTraversalDFSKeepsSerialBits(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 1, Traversal: TraversalDFS, Kernel: "go4x4"}
	rng := rand.New(rand.NewSource(61))
	a, b := NewMatrix(160, 144), NewMatrix(144, 176)
	a.FillRand(rng)
	b.FillRand(rng)
	c1 := NewMatrix(160, 176)
	if err := NewMultiplier(cfg, PaperArch()).MulAdd(c1, a, b); err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 4
	c2 := NewMatrix(160, 176)
	if err := NewMultiplier(cfg, PaperArch()).MulAdd(c2, a, b); err != nil {
		t.Fatal(err)
	}
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("Threads=4 under forced dfs is not bit-identical to serial")
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
