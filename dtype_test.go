package fmmfam

// Dtype-generic serving tests: the float32 surface against a float64
// reference on the PR-3 K-split acceptance shapes, and mixed-dtype pool
// integrity — interleaved float32/float64 traffic through one process must
// never hand a pooled buffer of the wrong element size across surfaces
// (structurally impossible now that every pool is typed []E; these tests
// pin that with bit-determinism under concurrency) and must not leak
// goroutines.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fmmfam/internal/matrix"
)

// kSplitAcceptanceShapes are the PR-3 K-split acceptance shapes: K-dominant
// problems that only the 3D decomposition can shard.
var kSplitAcceptanceShapes = [][3]int{
	{48, 512, 48},  // K-dominant, divisible
	{40, 513, 52},  // non-dividing K and ragged output
	{64, 1024, 80}, // deeper K, more slabs available
}

// kSplitServingCfg is the blocking the PR-3 acceptance tests shard those
// shapes under, on the reference kernel: its break-even (~148) is the slab
// floor, low enough that these K's cut into three or four slabs, and slabs
// this small still get FMM plans. MC = 48 leaves their M×N no room for two
// MC tiles, so the K cut is the only grid that shards them.
func kSplitServingCfg() Config {
	return Config{
		MC: 48, KC: 16, NC: 32, Threads: 4,
		ShardThreshold: 256,
		Kernel:         "go4x4",
	}
}

// float32Tol is the FLOP-scaled float32 tolerance for |float32 result −
// float64 reference| on a depth-k product of operands in [−1, 1): the same
// eps-scaled form the conformance suite uses, with headroom for the FMM
// variants' extra additions.
func float32Tol(k int) float64 {
	return 180 * matrix.Eps[float32]() * float64(k+16)
}

// TestFloat32MatchesFloat64OnKSplitShapes is the PR-5 acceptance criterion:
// a float32 end-to-end MulAdd — plan selection, sharding, K-split reduction
// buffers and all — stays within FLOP-scaled float32 tolerance of a float64
// reference computed from the exact same inputs, on the PR-3 K-split
// acceptance shapes.
func TestFloat32MatchesFloat64OnKSplitShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, s := range kSplitAcceptanceShapes {
		m, k, n := s[0], s[1], s[2]
		mu := NewMultiplier32(kSplitServingCfg(), PaperArch())
		if spec, ok := mu.shardSpec(m, k, n); !ok || spec.GridK < 2 {
			t.Fatalf("shape %v: float32 surface should K-split like the float64 one, got %v ok=%v", s, spec, ok)
		}
		a, b := NewMatrix32(m, k), NewMatrix32(k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		got := NewMatrix32(m, n)
		if err := mu.MulAdd(got, a, b); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		// float64 reference over the exact same values (float32→float64 is
		// exact), via the naive oracle.
		ref := NewMatrix(m, n)
		matrix.MulAdd(ref, matrix.ToFloat64(a), matrix.ToFloat64(b))
		if d := matrix.ToFloat64(got).MaxAbsDiff(ref); d > float32Tol(k) {
			t.Fatalf("shape %v: float32 result off by %g > %g vs float64 reference", s, d, float32Tol(k))
		}
	}
}

// TestMixedDtypePoolIntegrity interleaves concurrent float32 and float64
// MulAdd traffic — including the K-split path, whose reduction buffers are
// pooled per multiplier — and checks every call's result is bit-identical
// to that surface's sequential answer. Workspace pools are typed per
// element, so a buffer of the wrong element size can never cross surfaces;
// if it somehow did, the corrupted numbers would break the fingerprint
// pins here. Run under -race in CI.
func TestMixedDtypePoolIntegrity(t *testing.T) {
	cfg := kSplitServingCfg()
	mu64 := NewMultiplier(cfg, PaperArch())
	mu32 := NewMultiplier32(cfg, PaperArch())
	rng := rand.New(rand.NewSource(64))
	m, k, n := 48, 512, 48 // K-split acceptance shape: K-split reduction buffers come from the scratch list too

	a64, b64 := NewMatrix(m, k), NewMatrix(k, n)
	a64.FillRand(rng)
	b64.FillRand(rng)
	a32, b32 := matrix.ToFloat32(a64), matrix.ToFloat32(b64)

	// Sequential answers fix the expected fingerprints (both shard paths are
	// run-to-run bit-deterministic).
	want64 := NewMatrix(m, n)
	if err := mu64.MulAdd(want64, a64, b64); err != nil {
		t.Fatal(err)
	}
	want32 := NewMatrix32(m, n)
	if err := mu32.MulAdd(want32, a32, b32); err != nil {
		t.Fatal(err)
	}
	fp64, fp32 := want64.Fingerprint(), want32.Fingerprint()

	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if (g+it)%2 == 0 {
					c := NewMatrix(m, n)
					if err := mu64.MulAdd(c, a64, b64); err != nil {
						errs <- err
						return
					}
					if c.Fingerprint() != fp64 {
						errs <- fmt.Errorf("goroutine %d iter %d: float64 result corrupted under mixed-dtype load", g, it)
						return
					}
				} else {
					c := NewMatrix32(m, n)
					if err := mu32.MulAdd(c, a32, b32); err != nil {
						errs <- err
						return
					}
					if c.Fingerprint() != fp32 {
						errs <- fmt.Errorf("goroutine %d iter %d: float32 result corrupted under mixed-dtype load", g, it)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMixedDtypeNoGoroutineLeak runs synchronous and async traffic through
// both dtype surfaces, closes them, and requires the goroutine count to
// settle back — the float32 serving stack must be as leak-free per
// multiplier lifetime as the float64 one (pinned by PR-4's async tests).
func TestMixedDtypeNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 2}
	mu64 := NewMultiplier(cfg, PaperArch())
	mu32 := NewMultiplier32(cfg, PaperArch())
	rng := rand.New(rand.NewSource(9))
	a64, b64, c64 := NewMatrix(40, 40), NewMatrix(40, 40), NewMatrix(40, 40)
	a64.FillRand(rng)
	b64.FillRand(rng)
	a32, b32, c32 := matrix.ToFloat32(a64), matrix.ToFloat32(b64), NewMatrix32(40, 40)
	var futures []*Future
	for i := 0; i < 8; i++ {
		futures = append(futures, mu64.MulAddAsync(c64, a64, b64))
		if err := futures[len(futures)-1].Wait(); err != nil {
			t.Fatal(err)
		}
		futures = append(futures, mu32.MulAddAsync(c32, a32, b32))
		if err := futures[len(futures)-1].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mu64.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mu32.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
