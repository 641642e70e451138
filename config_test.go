package fmmfam

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fmmfam/internal/matrix"
)

// TestConfigValidate is the table-driven contract of Config.Validate: every
// knob's failure mode, including per-backend blocking floors (MC=4 is legal
// for the 4×4 kernel, illegal for avx2's 6-row tile) and that avx2 and avx512
// are valid Kernels exactly where the host registered them.
func TestConfigValidate(t *testing.T) {
	hasAVX2 := HostCPU().AVX2
	valid := Config{MC: 96, KC: 256, NC: 2048, Threads: 1}
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"parallel", func(c *Config) { c.Threads = 8 }, true},
		{"explicit default kernel", func(c *Config) { c.Kernel = "go4x4" }, true},
		{"avx2 kernel iff the host has it", func(c *Config) { c.Kernel = "avx2" }, hasAVX2},
		{"avx512 kernel iff the host has it", func(c *Config) { c.Kernel = "avx512" }, HostCPU().AVX512},
		{"serving knobs at defaults", func(c *Config) {
			c.ShardThreshold = 0
		}, true},
		{"negative sentinels allowed", func(c *Config) {
			c.ShardThreshold, c.CoalesceWindow = -1, -1
		}, true},

		{"zero workers", func(c *Config) { c.Threads = 0 }, false},
		{"negative workers", func(c *Config) { c.Threads = -4 }, false},
		{"unknown kernel", func(c *Config) { c.Kernel = "no-such-kernel" }, false},
		{"zero blocking", func(c *Config) { c.MC, c.KC, c.NC = 0, 0, 0 }, false},
		{"negative MC", func(c *Config) { c.MC = -96 }, false},
		{"KC zero", func(c *Config) { c.KC = 0 }, false},
		{"NC below NR", func(c *Config) { c.NC = 3 }, false},
		{"MC below default backend MR", func(c *Config) { c.MC = 3 }, false},
		{"MC=4 ok for go4x4", func(c *Config) { c.MC = 4; c.Kernel = "go4x4" }, true},
		{"MC=4 below avx2 MR", func(c *Config) { c.MC = 4; c.Kernel = "avx2" }, false},
		{"MC=4 with an empty kernel fits iff go4x4 is the fastest here", func(c *Config) { c.MC = 4 }, !hasAVX2},
		{"serve knobs set", func(c *Config) { c.CoalesceWindow = 250e3 }, true},
		{"coalescing disabled by negative window", func(c *Config) { c.CoalesceWindow = -1 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("config %+v accepted, want error", cfg)
			}
		})
	}
}

// TestValidateNamesTheResolvedKernel: when blocking that fits the reference
// kernel's 4×4 tile fails against the backend an empty Config.Kernel
// resolved to (avx512 or avx2, both six rows), the error says which backend
// that was and how to pin the reference one — the caller never named it.
func TestValidateNamesTheResolvedKernel(t *testing.T) {
	resolved := fastestHere()
	if resolved == "go4x4" {
		t.Skip("an empty kernel resolves to go4x4 here: MC=4 is valid")
	}
	err := Config{MC: 4, KC: 256, NC: 2048, Threads: 1}.Validate()
	if err == nil {
		t.Fatalf("MC=4 accepted against %s's 6-row tile", resolved)
	}
	for _, want := range []string{"too small for kernel " + resolved, `resolved to "` + resolved + `"`, `Kernel: "go4x4" pins the reference kernel`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	// A named kernel gets the plain error: the caller knows what they chose.
	err = Config{MC: 4, KC: 256, NC: 2048, Threads: 1, Kernel: resolved}.Validate()
	if err == nil || strings.Contains(err.Error(), "resolved to") {
		t.Errorf("named %s with MC=4: %v", resolved, err)
	}
}

// TestInvalidConfigSurfacesFromEveryEntryPoint: a Multiplier built from an
// invalid config reports the validation error from MulAdd, MulAddBatch, and
// MulAddAsync instead of panicking deep in the stack.
func TestInvalidConfigSurfacesFromEveryEntryPoint(t *testing.T) {
	bad := Config{MC: 96, KC: 256, NC: 2048, Threads: 1, Kernel: "no-such-kernel"}
	mu := NewMultiplier(bad, PaperArch())
	c, a, b := NewMatrix(8, 8), NewMatrix(8, 8), NewMatrix(8, 8)
	if err := mu.MulAdd(c, a, b); err == nil {
		t.Fatal("MulAdd on invalid config succeeded")
	}
	if err := mu.MulAddBatch([]BatchJob{{C: c, A: a, B: b}}); err == nil {
		t.Fatal("MulAddBatch on invalid config succeeded")
	}
	if err := mu.MulAddAsync(c, a, b).Wait(); err == nil {
		t.Fatal("MulAddAsync on invalid config succeeded")
	}
}

// TestDefaultKernelPlanGolden pins the plan→execution path on the reference
// backend ("go4x4", the default until an empty Config.Kernel came to mean the
// host's fastest) to the exact bits it produced before the Backend interface existed
// (hash captured from the PR-3 tree on amd64): <2,2,2> ABC at 96³, the plan
// the selector served there until GEMM became a candidate — 96³ is below the
// default backend's break-even, so the plan is now built by name — and the
// full selection→plan→execution path at 192³, above the break-even, to the
// bits the Multiplier produced before that change (hash captured from the
// PR-14 tree). Plan selection and kernel numerics together are the
// reproducibility surface. Skipped off amd64, where the compiler may fuse
// a*b+c into FMA and round differently.
func TestDefaultKernelPlanGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fingerprint captured on amd64; GOARCH=%s may fuse FMA", runtime.GOARCH)
	}
	operands := func(n int) (c, a, b Matrix) {
		rng := rand.New(rand.NewSource(4096))
		a, b = NewMatrix(n, n), NewMatrix(n, n)
		a.FillRand(rng)
		b.FillRand(rng)
		return NewMatrix(n, n), a, b
	}
	c, a, b := operands(96)
	cfg := DefaultConfig()
	cfg.Kernel = "go4x4" // the goldens are the reference kernel's, by name
	p, err := NewPlan(cfg, ABC, Generate(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p.MulAdd(c, a, b)
	if got := c.Fingerprint(); got != 0xcf7d1834413624e4 {
		t.Errorf("default plan path fingerprint %#x, want %#x (no longer bit-identical to pre-backend-interface results)",
			got, uint64(0xcf7d1834413624e4))
	}
	c, a, b = operands(192)
	mu := NewMultiplier(cfg, PaperArch())
	if err := mu.MulAdd(c, a, b); err != nil {
		t.Fatal(err)
	}
	if sel, _ := mu.PlanFor(192, 192, 192); sel.String() != "<2,2,2> ABC" {
		t.Errorf("192³ on the reference backend selected %s, want <2,2,2> ABC", sel)
	}
	if got := c.Fingerprint(); got != 0x6dab96631598aae6 {
		t.Errorf("selected plan path fingerprint %#x, want %#x (no longer bit-identical to the selector before GEMM was a candidate)",
			got, uint64(0x6dab96631598aae6))
	}
}

// TestKernelBackendEndToEnd drives every registered backend through the full
// Multiplier stack — plan selection, sharding, batch — and checks results
// against the reference. The product shards on every backend, into MC tiles
// that run an FMM plan on go4x4 and GEMM on avx2 and avx512.
func TestKernelBackendEndToEnd(t *testing.T) {
	const m, k, n = 300, 130, 200
	rng := rand.New(rand.NewSource(5))
	a, b := NewMatrix(m, k), NewMatrix(k, n)
	a.FillRand(rng)
	b.FillRand(rng)
	want := NewMatrix(m, n)
	matrix.MulAdd(want, a, b)
	for _, name := range Kernels() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				MC: 32, KC: 32, NC: 64, Threads: 4,
				Kernel:         name,
				ShardThreshold: 128, // force the sharded path
			}
			mu := NewMultiplier(cfg, PaperArch())
			if spec, ok := mu.shardSpec(m, k, n); !ok {
				t.Fatalf("product does not shard: %v", spec)
			}
			c := NewMatrix(m, n)
			if err := mu.MulAdd(c, a, b); err != nil {
				t.Fatal(err)
			}
			if d := c.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("sharded MulAdd diff %g", d)
			}
			// Repeat must be bit-identical (the serving determinism contract
			// holds for every conforming backend).
			c2 := NewMatrix(m, n)
			if err := mu.MulAdd(c2, a, b); err != nil {
				t.Fatal(err)
			}
			if d := c.MaxAbsDiff(c2); d != 0 {
				t.Fatalf("backend %s not deterministic under sharding: %g", name, d)
			}
			// Batch path.
			c3 := NewMatrix(m, n)
			if err := mu.MulAddBatch([]BatchJob{{C: c3, A: a, B: b}}); err != nil {
				t.Fatal(err)
			}
			if d := c3.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("batch diff %g", d)
			}
		})
	}
}

// TestBackendsClosedSet: the backend set is closed — Kernels() is exactly
// go4x4, plus avx2 iff the CPU probe found AVX2+FMA and avx512 iff it found
// AVX-512F (each in an assembly build), each registered at both dtypes — so
// the accepted Config.Kernel / FMMFAM_KERNEL values are those and nothing
// registers from outside internal/kernel.
func TestBackendsClosedSet(t *testing.T) {
	cpu := HostCPU()
	var want []string
	if cpu.AVX2 {
		want = append(want, "avx2")
	}
	if cpu.AVX512 {
		want = append(want, "avx512")
	}
	want = append(want, "go4x4")
	if got := Kernels(); !slices.Equal(got, want) {
		t.Fatalf("Kernels() = %v, want exactly %v", got, want)
	}
	for _, st := range KernelStatuses() {
		if st.Available && !slices.Equal(st.Dtypes, []string{"float32", "float64"}) {
			t.Fatalf("%s registered for %v, want both dtypes", st.Name, st.Dtypes)
		}
	}
}
