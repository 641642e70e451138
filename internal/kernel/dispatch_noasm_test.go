//go:build !amd64 || purego

package kernel

import (
	"strings"
	"testing"

	"fmmfam/internal/matrix"
)

// TestAVX2AbsentWithoutAsm: on a build with no amd64 assembly (foreign
// GOARCH or the purego tag), the avx2 backend must be absent from the
// registry, the registry must still work, and selecting avx2 by name must
// fail validation with a clear explanation — not a panic and not a bare
// "unknown backend".
func TestAVX2AbsentWithoutAsm(t *testing.T) {
	for _, d := range []matrix.Dtype{matrix.Float64, matrix.Float32} {
		for _, name := range BackendsFor(d) {
			if name == AVX2Backend {
				t.Fatalf("avx2 registered for %s in a no-asm build", d)
			}
		}
		if len(BackendsFor(d)) == 0 {
			t.Fatalf("no pure-Go backend registered for %s", d)
		}
	}
	if cpu := HostCPU(); cpu.AVX2 || !cpu.PureGo {
		t.Fatalf("HostCPU() = %+v in a no-asm build", cpu)
	}
	_, err := Resolve[float64](AVX2Backend)
	if err == nil {
		t.Fatal("Resolve(avx2) succeeded in a no-asm build")
	}
	if !strings.Contains(err.Error(), "unavailable on this host") ||
		!strings.Contains(err.Error(), "amd64") {
		t.Fatalf("Resolve(avx2) error lacks the recorded reason: %v", err)
	}
	// The default backend still resolves: dispatch degrades, not breaks.
	if _, err := Resolve[float64](DefaultBackend); err != nil {
		t.Fatalf("default backend unavailable in no-asm build: %v", err)
	}
}
