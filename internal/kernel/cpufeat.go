package kernel

import (
	"runtime"
	"sort"
)

// AVX2Backend is the registry name of the amd64 assembly backend
// (avx2_amd64.s): 256-bit FMA micro-kernels on a row-major tile — 6×8 for
// float64, 6×16 for float32 — with the fused C update and vector packers,
// registered only when the host CPU supports AVX2+FMA and the build includes
// amd64 assembly.
const AVX2Backend = "avx2"

// AVX512Backend is the registry name of the amd64 AVX-512 backend
// (avx512_amd64.s): 512-bit FMA micro-kernels on a row-major tile — 6×16 for
// float64, 6×32 for float32 — with the fused C update, registered only when
// the host CPU supports AVX-512F beside AVX2+FMA, the OS enables ZMM state
// and the build includes amd64 assembly.
const AVX512Backend = "avx512"

// CPUFeatures describes the host properties backend dispatch consults. It is
// a build- and boot-time constant: detection runs once at init.
type CPUFeatures struct {
	// Arch is runtime.GOARCH.
	Arch string
	// AVX2 reports AVX2 + FMA support with OS-enabled YMM state (the CPUID +
	// XGETBV probe the avx2 backend's registration is gated on). Always false
	// on non-amd64 architectures and in purego builds.
	AVX2 bool
	// AVX512 reports AVX-512F on top of AVX2, with OS-enabled opmask and ZMM
	// state (the probe the avx512 backend's registration is gated on). Implies
	// AVX2; always false on non-amd64 architectures and in purego builds.
	AVX512 bool
	// PureGo reports a build without assembly backends — the purego build
	// tag, or a GOARCH with no assembly kernels.
	PureGo bool
}

// HostCPU reports the dispatch-relevant features of this host and build.
func HostCPU() CPUFeatures {
	return CPUFeatures{Arch: runtime.GOARCH, AVX2: hostAVX2, AVX512: hostAVX512, PureGo: pureGoBuild}
}

// unavailable records backend names that are known to this build but could
// not register — and why — so selection errors and the observability surface
// can explain the absence instead of reporting a bare "unknown backend". Like
// registry, it is written only by the init function that would otherwise
// register the backend, and read without locks afterwards.
var unavailable = map[string]string{}

// UnavailableReason reports why a known backend is absent from the registry
// on this host or build; "" means the name is not a known-unavailable
// backend (it is either registered or entirely unknown).
func UnavailableReason(name string) string { return unavailable[name] }

// BackendStatus is one backend's availability on this host and build: its
// registered dtypes when available, or the reason it could not register.
type BackendStatus struct {
	// Name is the registry name (a Config.Kernel / FMMFAM_KERNEL value when
	// Available).
	Name string
	// Dtypes lists the element types the backend registered for, sorted;
	// empty when unavailable.
	Dtypes []string
	// Available reports whether the backend is registered for at least one
	// dtype.
	Available bool
	// Reason explains an unavailable backend ("" when available).
	Reason string
}

// Statuses reports every backend known to this build — registered ones with
// their dtypes, plus known-unavailable ones (e.g. "avx2" on a host without
// AVX2+FMA) with the reason — sorted by name. This is what fmmfam.Kernel
// status reporting and the serving /v1/stats surface expose to operators.
func Statuses() []BackendStatus {
	byName := make(map[string]*BackendStatus)
	for key := range registry {
		st := byName[key.name]
		if st == nil {
			st = &BackendStatus{Name: key.name, Available: true}
			byName[key.name] = st
		}
		st.Dtypes = append(st.Dtypes, key.dtype.String())
	}
	for name, reason := range unavailable {
		if byName[name] == nil {
			byName[name] = &BackendStatus{Name: name, Reason: reason}
		}
	}
	out := make([]BackendStatus, 0, len(byName))
	for _, st := range byName {
		sort.Strings(st.Dtypes)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
