package fmmfam

import (
	"math/rand"
	"strings"
	"testing"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

// fastestHere is what an empty kernel name must resolve to on this host and
// build, derived from the CPU probe rather than from the code under test:
// avx512 where it registered (amd64 assembly build, AVX-512F with ZMM state),
// else avx2 (AVX2+FMA), else go4x4 — under -tags purego, off amd64 and on
// older CPUs.
func fastestHere() string {
	switch cpu := HostCPU(); {
	case cpu.AVX512:
		return kernel.AVX512Backend
	case cpu.AVX2:
		return kernel.AVX2Backend
	}
	return kernel.DefaultBackend
}

// TestEmptyKernelResolvesToFastest is the resolution table of Config.Kernel:
// empty means the fastest registered backend on every public constructor, a
// name means itself, and a name that cannot run here is an error carrying
// its reason — never a fallback.
func TestEmptyKernelResolvesToFastest(t *testing.T) {
	want := fastestHere()
	cfg := DefaultConfig()
	cfg.Threads = 2

	if got := NewMultiplier(cfg, PaperArch()).Stats().Kernel; got != want {
		t.Errorf("Multiplier with an empty kernel runs on %q, want %q", got, want)
	}
	if got := NewMultiplier32(cfg, PaperArch()).Stats().Kernel; got != want {
		t.Errorf("Multiplier32 with an empty kernel runs on %q, want %q", got, want)
	}
	p, err := NewPlan(cfg, ABC, Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Context().Backend().Name(); got != want {
		t.Errorf("NewPlan with an empty kernel runs on %q, want %q", got, want)
	}
	p32, err := NewPlan32(cfg, ABC, Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if got := p32.Context().Backend().Name(); got != want {
		t.Errorf("NewPlan32 with an empty kernel runs on %q, want %q", got, want)
	}

	// Naming the reference kernel pins it, wherever a faster one exists.
	cfg.Kernel = kernel.DefaultBackend
	if got := NewMultiplier(cfg, PaperArch()).Stats().Kernel; got != kernel.DefaultBackend {
		t.Errorf("Kernel %q runs on %q", kernel.DefaultBackend, got)
	}
	if p, err = NewPlan(cfg, ABC, Strassen()); err != nil || p.Context().Backend().Name() != kernel.DefaultBackend {
		t.Errorf("NewPlan with Kernel %q: %v, %v", kernel.DefaultBackend, p, err)
	}

	// A name that cannot run here fails with its reason; nothing falls back.
	c, a, b := NewMatrix(8, 8), NewMatrix(8, 8), NewMatrix(8, 8)
	cfg.Kernel = "no-such-kernel"
	mu := NewMultiplier(cfg, PaperArch())
	if err := mu.MulAdd(c, a, b); err == nil || !strings.Contains(err.Error(), `unknown backend "no-such-kernel"`) {
		t.Errorf("unknown kernel: MulAdd error %v", err)
	}
	if got := mu.Stats().Kernel; got != "no-such-kernel (unavailable)" {
		t.Errorf("unknown kernel reported as %q", got)
	}
	for name, probed := range map[string]bool{kernel.AVX2Backend: HostCPU().AVX2, kernel.AVX512Backend: HostCPU().AVX512} {
		if probed {
			continue
		}
		reason := kernel.UnavailableReason(name)
		cfg.Kernel = name
		if err := NewMultiplier(cfg, PaperArch()).MulAdd(c, a, b); err == nil || reason == "" || !strings.Contains(err.Error(), reason) {
			t.Errorf("%s where it did not register: MulAdd error %v, want the recorded reason %q", name, err, reason)
		}
		if _, err := NewPlan(cfg, ABC, Strassen()); err == nil || !strings.Contains(err.Error(), reason) {
			t.Errorf("%s where it did not register: NewPlan error %v", name, err)
		}
	}
}

// TestEmptyKernelBitIdenticalToNamed: resolving an empty name is only a
// naming step — direct, 2-D sharded, K-split and batch results are those of a
// multiplier that names the same backend, bit for bit, at both element types.
// The direct product is under 2·MC in M and N, so it runs whole. A K-split
// slab is at least the break-even deep, so the K-split product's k = 8192
// clears twice the largest one (avx512's ~3841).
func TestEmptyKernelBitIdenticalToNamed(t *testing.T) {
	t.Run("float64", func(t *testing.T) { emptyKernelBitIdentical[float64](t) })
	t.Run("float32", func(t *testing.T) { emptyKernelBitIdentical[float32](t) })
}

func emptyKernelBitIdentical[E matrix.Element](t *testing.T) {
	cfg := Config{MC: 32, KC: 32, NC: 64, Threads: 2, ShardThreshold: 256}
	named := cfg
	named.Kernel = fastestHere()
	muEmpty, muNamed := NewGenericMultiplier[E](cfg, PaperArch()), NewGenericMultiplier[E](named, PaperArch())
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		s     [3]int
		route string
	}{{[3]int{60, 70, 50}, "direct"}, {[3]int{256, 96, 200}, "2-D"}, {[3]int{48, 8192, 48}, "K-split"}} {
		s := tc.s
		route := "direct"
		if spec, ok := muEmpty.shardSpec(s[0], s[1], s[2]); ok && spec.GridK > 1 {
			route = "K-split"
		} else if ok {
			route = "2-D"
		}
		if route != tc.route {
			t.Fatalf("%v takes the %s route, want %s", s, route, tc.route)
		}
		a, b := matrix.New[E](s[0], s[1]), matrix.New[E](s[1], s[2])
		a.FillRand(rng)
		b.FillRand(rng)
		c1, c2, c3 := matrix.New[E](s[0], s[2]), matrix.New[E](s[0], s[2]), matrix.New[E](s[0], s[2])
		if err := muEmpty.MulAdd(c1, a, b); err != nil {
			t.Fatal(err)
		}
		if err := muNamed.MulAdd(c2, a, b); err != nil {
			t.Fatal(err)
		}
		if err := muEmpty.MulAddBatch([]GenericBatchJob[E]{{C: c3, A: a, B: b}}); err != nil {
			t.Fatal(err)
		}
		c4 := matrix.New[E](s[0], s[2])
		if err := muNamed.MulAddBatch([]GenericBatchJob[E]{{C: c4, A: a, B: b}}); err != nil {
			t.Fatal(err)
		}
		if c1.Fingerprint() != c2.Fingerprint() || c3.Fingerprint() != c4.Fingerprint() {
			t.Fatalf("%v: empty kernel and Kernel %q differ in bits", s, named.Kernel)
		}
	}
}

// TestMultiplyRunsOnTheFastestKernel: the package-level Multiply family —
// the README's quick start — runs on the kernel FMMFAM_KERNEL names, and on
// the fastest registered one when the variable is unset: bit for bit what a
// Multiplier naming that backend computes. (CI runs this package once with
// FMMFAM_KERNEL=go4x4, where the same assertion pins the reference kernel.)
func TestMultiplyRunsOnTheFastestKernel(t *testing.T) {
	want := EnvKernel()
	if want == "" {
		want = fastestHere()
	}
	if got := defaultMultiplier[float64]().Stats().Kernel; got != want {
		t.Fatalf("package-level Multiply runs on %q, want %q (FMMFAM_KERNEL=%q)", got, want, EnvKernel())
	}
	rng := rand.New(rand.NewSource(22))
	a, b := NewMatrix(300, 200), NewMatrix(200, 260)
	a.FillRand(rng)
	b.FillRand(rng)
	got, ref := NewMatrix(300, 260), NewMatrix(300, 260)
	if err := Multiply(got, a, b); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().Parallel()
	cfg.Kernel = want
	if err := NewMultiplier(cfg, PaperArch()).MulAdd(ref, a, b); err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("Multiply differs in bits from NewMultiplier(Kernel: %q)", want)
	}
}
