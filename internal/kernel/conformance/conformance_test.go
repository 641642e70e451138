package conformance_test

import (
	"testing"

	"fmmfam/internal/kernel"
	"fmmfam/internal/kernel/conformance"
	"fmmfam/internal/matrix"
)

// TestRegisteredBackendsConform runs the shared conformance suite once per
// registered (backend, dtype) pair — the acceptance gate for the whole
// registry. Each dtype iterates its own registration list (BackendsFor), so
// a backend is gated exactly for the pairs it registers. CI runs this
// explicitly in its matrix so a backend that stops conforming names itself
// (and the offending dtype) in the job output.
func TestRegisteredBackendsConform(t *testing.T) {
	// The pure-Go backend must stay registered at both precisions on every
	// build — the float64 serving surface and the float32 one both fall back
	// to it.
	for _, d := range []matrix.Dtype{matrix.Float64, matrix.Float32} {
		if _, ok := kernel.ResolveNameFor(kernel.DefaultBackend, d); !ok {
			t.Fatalf("default backend missing for %s: have %v", d, kernel.BackendsFor(d))
		}
	}
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		name := name
		t.Run(name+"/float64", func(t *testing.T) { conformance.Run[float64](t, name) })
	}
	for _, name := range kernel.BackendsFor(matrix.Float32) {
		name := name
		t.Run(name+"/float32", func(t *testing.T) { conformance.Run[float32](t, name) })
	}
}

// Differential fuzz targets, one per (backend, dtype) pair (go test -fuzz
// runs a single target at a time, so each pair gets its own). The avx2 and
// avx512 targets skip themselves where the backend could not register
// (purego, non-amd64, no AVX2+FMA or no AVX-512F) — see FuzzDifferential.

func FuzzConformGo4x4(f *testing.F) { conformance.FuzzDifferential[float64](f, "go4x4") }

func FuzzConformGo4x4F32(f *testing.F) { conformance.FuzzDifferential[float32](f, "go4x4") }

func FuzzConformAVX2(f *testing.F) { conformance.FuzzDifferential[float64](f, kernel.AVX2Backend) }

func FuzzConformAVX2F32(f *testing.F) { conformance.FuzzDifferential[float32](f, kernel.AVX2Backend) }

func FuzzConformAVX512(f *testing.F) { conformance.FuzzDifferential[float64](f, kernel.AVX512Backend) }

func FuzzConformAVX512F32(f *testing.F) {
	conformance.FuzzDifferential[float32](f, kernel.AVX512Backend)
}
