package fmmfam

import (
	"math/rand"
	"sync"
	"testing"

	"fmmfam/internal/autotune"
	"fmmfam/internal/matrix"
)

// TestConfigAutotuneValidation: AutotuneFraction accepts exactly [0, 0.5],
// from both Validate and the multiplier entry points.
func TestConfigAutotuneValidation(t *testing.T) {
	base := Config{MC: 32, KC: 32, NC: 64, Threads: 2, Autotune: true}
	for _, ok := range []float64{0, 0.01, 0.25, 0.5} {
		cfg := base
		cfg.AutotuneFraction = ok
		if err := cfg.Validate(); err != nil {
			t.Fatalf("AutotuneFraction=%g rejected: %v", ok, err)
		}
	}
	for _, bad := range []float64{-0.1, 0.51, 2} {
		cfg := base
		cfg.AutotuneFraction = bad
		if err := cfg.Validate(); err == nil {
			t.Fatalf("AutotuneFraction=%g accepted by Validate", bad)
		}
		mu := NewMultiplier(cfg, PaperArch())
		c, a, b := NewMatrix(8, 8), NewMatrix(8, 8), NewMatrix(8, 8)
		if err := mu.MulAdd(c, a, b); err == nil {
			t.Fatalf("multiplier with AutotuneFraction=%g executed", bad)
		}
	}
	// The fraction bound applies even with Autotune off, so a nonsense
	// fraction is never latent.
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 2, AutotuneFraction: 0.9}
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range fraction accepted with Autotune=false")
	}
	// Stats reports the knobs as served: off by default, and on at the
	// default share when AutotuneFraction is left zero.
	cfg.AutotuneFraction = 0
	if s := NewMultiplier(cfg, PaperArch()).Stats(); s.Autotune || s.Fraction != 0 {
		t.Fatalf("default multiplier reports tuning: %+v", s)
	}
	if s := NewMultiplier(base, PaperArch()).Stats(); !s.Autotune || s.Fraction != autotune.DefaultFraction {
		t.Fatalf("Autotune at the default fraction: %+v", s)
	}
}

// TestAutotuneServesCorrectly: with tuning on, every call — incumbent- or
// challenger-served — still computes c += a·b correctly, and Stats shows
// the traffic split arriving at the configured fraction.
func TestAutotuneServesCorrectly(t *testing.T) {
	// On go4x4 this shape's incumbent is an FMM plan, so the traversal-flip
	// arm is among the challengers.
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 2, Autotune: true, AutotuneFraction: 0.25, Kernel: "go4x4"}
	mu := NewMultiplier(cfg, PaperArch())
	rng := rand.New(rand.NewSource(70))
	a, b := NewMatrix(192, 160), NewMatrix(160, 176)
	a.FillRand(rng)
	b.FillRand(rng)
	want := NewMatrix(192, 176)
	matrix.MulAdd(want, a, b)
	const calls = 24
	for i := 0; i < calls; i++ {
		c := NewMatrix(192, 176)
		if err := mu.MulAdd(c, a, b); err != nil {
			t.Fatal(err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("call %d: diff %g", i, d)
		}
	}
	s := mu.Stats()
	if !s.Autotune || s.Fraction != 0.25 {
		t.Fatalf("stats knobs: %+v", s)
	}
	if len(s.Shapes) != 1 || s.Shapes[0].Kind != "plan" || s.Shapes[0].Serial {
		t.Fatalf("stats shapes: %+v", s.Shapes)
	}
	sh := s.Shapes[0]
	if sh.Served+sh.Shadowed != calls {
		t.Fatalf("routed %d calls, want %d", sh.Served+sh.Shadowed, calls)
	}
	// With at least one challenger arm, a 1/4 fraction shadows every 4th call.
	if len(sh.Arms) > 1 && sh.Shadowed != calls/4 {
		t.Fatalf("shadowed %d of %d calls at fraction 0.25", sh.Shadowed, calls)
	}
	// Total recorded samples equal routed calls — every MulAdd was timed.
	var samples uint64
	for _, arm := range sh.Arms {
		samples += arm.Samples
	}
	if samples != calls {
		t.Fatalf("recorded %d samples over %d calls", samples, calls)
	}
}

// TestAutotunePromotionLifecycle drives one shape class's bandit through the
// full serve → shadow → promote cycle with seeded two-arm samples (synthetic
// wall times recorded directly, so the test is deterministic on any
// machine), asserting Stats reflects every transition: roles before, the
// promotion record, roles after, and the measured-feedback visible in the
// incumbent swap.
func TestAutotunePromotionLifecycle(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 2, Autotune: true, AutotuneFraction: 0.25, Kernel: "go4x4"}
	mu := NewMultiplier(cfg, PaperArch())
	// Build the shape class's tuner through the serving path.
	c, a, b := NewMatrix(192, 192), NewMatrix(192, 192), NewMatrix(192, 192)
	if err := mu.MulAdd(c, a, b); err != nil {
		t.Fatal(err)
	}
	e, err := mu.entryFor(192, 192, 192, cfg.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if e.tun == nil {
		t.Fatal("tuned multiplier built an untuned entry")
	}
	snap := e.tun.tuner.Snapshot()
	if snap.Arms[0].Role != autotune.RoleIncumbent {
		t.Fatalf("fresh tuner roles: %+v", snap.Arms)
	}
	if len(snap.Arms) < 2 {
		t.Skip("shape class produced no challenger arms on this config")
	}
	incKey := snap.Arms[0].Plan
	chalKey := snap.Arms[1].Plan
	if e.tun.arms[chalKey].plan == nil {
		t.Fatalf("challenger arm %q has no plan", chalKey)
	}

	// Seed the two arms directly: incumbent slow, challenger clearly faster
	// with tight jitter, through enough checkpoints to promote.
	promoted := 0
	for i := 0; i < 64 && promoted == 0; i++ {
		jitter := float64(i%3) * 1e-4
		e.tun.tuner.Record(incKey, 2.0+jitter)
		if _, ok := e.tun.tuner.Record(chalKey, 1.0+jitter); ok {
			mu.tunePromoted(e.tun, e.tun.tuner.Snapshot().Promotions[0])
			promoted++
		}
	}
	if promoted != 1 {
		t.Fatal("seeded faster challenger never promoted")
	}

	// Stats reflects the transition: the challenger now leads, the former
	// incumbent shadows or waits, and the promotion history records the move
	// with its justifying medians.
	s := mu.Stats()
	var sh *ShapeTuning
	for i := range s.Shapes {
		if s.Shapes[i].Kind == "plan" && !s.Shapes[i].Serial {
			sh = &s.Shapes[i]
		}
	}
	if sh == nil {
		t.Fatalf("no plan tuning in stats: %+v", s.Shapes)
	}
	if len(sh.Promotions) != 1 {
		t.Fatalf("promotions: %+v", sh.Promotions)
	}
	p := sh.Promotions[0]
	if p.From != incKey || p.To != chalKey || p.ToMedian >= p.FromMedian {
		t.Fatalf("promotion record: %+v", p)
	}
	roles := map[string]autotune.Role{}
	for _, arm := range sh.Arms {
		roles[arm.Plan] = arm.Role
	}
	if roles[chalKey] != autotune.RoleIncumbent || roles[incKey] == autotune.RoleIncumbent {
		t.Fatalf("roles after promotion: %v", roles)
	}
	// The promotion fed the measured medians back into selection.
	if mu.feedback.Len() == 0 {
		t.Fatal("promotion recorded no model feedback")
	}
	// And serving now routes non-shadow traffic to the promoted arm.
	if key, isChal := e.tun.tuner.Route(); !isChal && key != chalKey {
		t.Fatalf("post-promotion route = %q, want %q", key, chalKey)
	}
}

// TestAutotuneConcurrentMulAdd: concurrent tuned serving is race-free and
// correct (meaningful under -race — the acceptance gate for the feature).
func TestAutotuneConcurrentMulAdd(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 2, Autotune: true, AutotuneFraction: 0.25}
	mu := NewMultiplier(cfg, PaperArch())
	rng := rand.New(rand.NewSource(71))
	a, b := NewMatrix(128, 128), NewMatrix(128, 128)
	a.FillRand(rng)
	b.FillRand(rng)
	want := NewMatrix(128, 128)
	matrix.MulAdd(want, a, b)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				c := NewMatrix(128, 128)
				if err := mu.MulAdd(c, a, b); err != nil {
					errs[g] = err
					return
				}
				if d := c.MaxAbsDiff(want); d > 1e-9 {
					errs[g] = errDiff(d)
					return
				}
				mu.Stats()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := mu.Stats()
	var routed uint64
	for _, sh := range s.Shapes {
		routed += sh.Served + sh.Shadowed
	}
	if routed != 8*12 {
		t.Fatalf("routed %d calls, want %d", routed, 8*12)
	}
}

type errDiff float64

func (e errDiff) Error() string { return "result diverged" }

// TestAutotuneBatchUsesConstructionTimeState: batch jobs plan lazily, at
// width 1, under the same Config.Autotune/AutotuneFraction as direct calls,
// and Stats reports their tuners as Serial with every job routed.
func TestAutotuneBatchUsesConstructionTimeState(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 2, Autotune: true, AutotuneFraction: 0.25}
	mu := NewMultiplier(cfg, PaperArch())

	rng := rand.New(rand.NewSource(73))
	a, b := NewMatrix(96, 96), NewMatrix(96, 96)
	a.FillRand(rng)
	b.FillRand(rng)
	jobs := make([]BatchJob, 4)
	for i := range jobs {
		jobs[i] = BatchJob{C: NewMatrix(96, 96), A: a, B: b}
	}
	if err := mu.MulAddBatch(jobs); err != nil {
		t.Fatal(err)
	}
	// One direct call of the same shape class: a second, non-Serial tuner.
	if err := mu.MulAdd(NewMatrix(96, 96), a, b); err != nil {
		t.Fatal(err)
	}
	s := mu.Stats()
	if !s.Autotune || s.Fraction != 0.25 {
		t.Fatalf("resolved knobs: %+v", s)
	}
	var serialRouted, directRouted uint64
	for _, sh := range s.Shapes {
		if sh.Serial {
			serialRouted += sh.Served + sh.Shadowed
		} else {
			directRouted += sh.Served + sh.Shadowed
		}
	}
	if serialRouted != uint64(len(jobs)) {
		t.Fatalf("width-1 tuners routed %d of %d batch jobs", serialRouted, len(jobs))
	}
	if directRouted != 1 {
		t.Fatalf("full-width tuners routed %d calls, want the 1 direct MulAdd", directRouted)
	}
}

// TestAutotuneShardedPath: a sharded-size problem under tuning builds a
// shard-grid tuner, serves correctly, and records every call.
func TestAutotuneShardedPath(t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 4, Autotune: true, AutotuneFraction: 0.25, ShardThreshold: 256, ShardMinTile: 64}
	mu := NewMultiplier(cfg, PaperArch())
	rng := rand.New(rand.NewSource(72))
	a, b := NewMatrix(256, 128), NewMatrix(128, 256)
	a.FillRand(rng)
	b.FillRand(rng)
	want := NewMatrix(256, 256)
	matrix.MulAdd(want, a, b)
	const calls = 8
	for i := 0; i < calls; i++ {
		c := NewMatrix(256, 256)
		if err := mu.MulAdd(c, a, b); err != nil {
			t.Fatal(err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("call %d: diff %g", i, d)
		}
	}
	s := mu.Stats()
	var shardTun *ShapeTuning
	for i := range s.Shapes {
		if s.Shapes[i].Kind == "shard" {
			shardTun = &s.Shapes[i]
		}
	}
	if shardTun == nil {
		t.Skip("problem did not shard under this config")
	}
	if shardTun.Served+shardTun.Shadowed != calls {
		t.Fatalf("shard tuner routed %d calls, want %d", shardTun.Served+shardTun.Shadowed, calls)
	}
}
