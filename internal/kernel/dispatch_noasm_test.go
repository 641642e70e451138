//go:build !amd64 || purego

package kernel

import (
	"slices"
	"strings"
	"testing"

	"fmmfam/internal/matrix"
)

// TestAVX2AbsentWithoutAsm: on a build with no amd64 assembly (foreign
// GOARCH or the purego tag), the avx2 and avx512 backends must be absent from
// the registry, the registry must still work, and selecting either by name
// must fail validation with a clear explanation — not a panic and not a bare
// "unknown backend".
func TestAVX2AbsentWithoutAsm(t *testing.T) {
	asm := []string{AVX2Backend, AVX512Backend}
	for _, d := range []matrix.Dtype{matrix.Float64, matrix.Float32} {
		for _, name := range BackendsFor(d) {
			if slices.Contains(asm, name) {
				t.Fatalf("%s registered for %s in a no-asm build", name, d)
			}
		}
		if len(BackendsFor(d)) == 0 {
			t.Fatalf("no pure-Go backend registered for %s", d)
		}
	}
	if cpu := HostCPU(); cpu.AVX2 || cpu.AVX512 || !cpu.PureGo {
		t.Fatalf("HostCPU() = %+v in a no-asm build", cpu)
	}
	for _, name := range asm {
		_, err := Resolve[float64](name)
		if err == nil {
			t.Fatalf("Resolve(%s) succeeded in a no-asm build", name)
		}
		if !strings.Contains(err.Error(), "unavailable on this host") ||
			!strings.Contains(err.Error(), "amd64") {
			t.Fatalf("Resolve(%s) error lacks the recorded reason: %v", name, err)
		}
	}
	if got := Fastest(matrix.Float64); got != DefaultBackend {
		t.Fatalf("Fastest = %q in a no-asm build, want %q", got, DefaultBackend)
	}
	// The default backend still resolves: dispatch degrades, not breaks.
	if _, err := Resolve[float64](DefaultBackend); err != nil {
		t.Fatalf("default backend unavailable in no-asm build: %v", err)
	}
}
