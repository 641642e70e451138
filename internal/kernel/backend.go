package kernel

import (
	"fmt"
	"sort"

	"fmmfam/internal/matrix"
)

// Backend is a pluggable micro-kernel implementation for one element type:
// the register-blocked rank-kC update of Figure 1 together with the packing
// routines that lay operands out in the micro-panel formats the kernel
// consumes. The GEMM driver (internal/gemm) is written against this
// interface only — swapping the backend swaps the innermost loops while the
// five-loop structure, workspace pooling, and FMM fusion stay fixed, which
// is exactly how the paper ports across architectures. A backend is
// registered under its (Name, dtype) pair; go4x4, avx2 and avx512 each
// register for float64 and float32.
//
// Contract (enforced by internal/kernel/conformance — every registered
// backend must pass that suite for each dtype it registers):
//
//   - PackA writes the mc×kc linear combination of the A-side terms in Ã
//     layout: ⌈mc/MR⌉ consecutive row-panels, panel rows stored column-major
//     (dst[panel*MR*kc + p*MR + lane]), rows beyond mc zero-padded.
//   - PackB writes the kc×nc combination of the B-side terms in B̃ layout:
//     ⌈nc/NR⌉ consecutive column-panels, panel columns stored row-major
//     (dst[panel*kc*NR + p*NR + lane]), columns beyond nc zero-padded.
//     PackBRange packs only panels [panelLo, panelHi); distinct ranges write
//     disjoint dst regions so ranges may be packed concurrently.
//   - Micro computes the MR×NR rank-kc product of one Ã row-panel and one B̃
//     column-panel into acc (row-major MR×NR, len ≥ MR·NR), overwriting acc.
//   - Scatter adds coef·acc[0:mr, 0:nr] into the mr×nr region of m at
//     (r0, c0); mr ≤ MR and nr ≤ NR handle fringe tiles.
//   - MicroScatter is the fused micro-kernel of Figure 1 (right), the one
//     call the driver makes per tile: the rank-kc product of Micro added,
//     weighted by each term's Coef, into the mr×nr region at (r0, c0) of
//     every C-side term — bit for bit what Micro followed by one Scatter per
//     term, in list order, leaves in C. acc is scratch of len ≥ MR·NR whose
//     contents afterwards are unspecified (a backend that updates C from its
//     registers never writes it).
//   - PackABufLen/PackBBufLen size packing buffers, including zero padding,
//     in elements.
//   - Align is the required alignment of packed-buffer starts, in elements
//     (1 = any; the avx2 float32 backend returns 8 for 32-byte loads, avx512
//     16 for 64-byte ones).
//     Workspace allocation (internal/gemm) honors it.
type Backend[E matrix.Element] interface {
	// Name is the registry key, e.g. "go4x4". Stable across releases: users
	// select backends by name via Config.Kernel / FMMFAM_KERNEL.
	Name() string
	MR() int
	NR() int
	Align() int

	PackA(dst []E, terms []Term[E], r0, c0, mc, kc int) int
	PackB(dst []E, terms []Term[E], r0, c0, kc, nc int) int
	PackBRange(dst []E, terms []Term[E], r0, c0, kc, nc, panelLo, panelHi int)
	Micro(kc int, ap, bp, acc []E)
	Scatter(m matrix.Mat[E], r0, c0 int, coef E, acc []E, mr, nr int)
	MicroScatter(kc int, ap, bp, acc []E, cTerms []Term[E], r0, c0, mr, nr int)
	PackABufLen(mc, kc int) int
	PackBBufLen(kc, nc int) int
}

// DefaultBackend is the registry name an empty kernel selection resolves to
// in this package and internal/gemm: the portable reference kernel — the
// original MR=NR=4 pure-Go kernel, kept bit-identical across releases for
// float64 and registered on every build.
const DefaultBackend = "go4x4"

// fastestOrder ranks the closed backend set fastest first; Fastest returns the
// first entry registered for a dtype. DefaultBackend is last and registers on
// every build.
var fastestOrder = [...]string{AVX512Backend, AVX2Backend, DefaultBackend}

// Fastest names the fastest backend registered for element type d: avx512
// where it registered, else avx2, else the portable go4x4. The order is a
// static list — which backends register is decided by GOARCH, build tags and
// the CPUID probe, never by timing — so one binary on one host always gets the
// same answer. It is what an empty fmmfam.Config.Kernel resolves to; below
// the public package the empty name keeps meaning DefaultBackend (Resolve).
func Fastest(d matrix.Dtype) string {
	for _, name := range fastestOrder {
		if _, ok := registry[regKey{name: name, dtype: d}]; ok {
			return name
		}
	}
	return DefaultBackend
}

// regKey identifies one registered backend: its registry name and the
// element type it implements.
type regKey struct {
	name  string
	dtype matrix.Dtype
}

// registry maps (name, dtype) → Backend[E] (stored as any; Resolve[E]
// recovers the typed interface — the dtype key guarantees the assertion
// succeeds). The set is closed: only this package's init functions write it
// (through register), so after package initialization it is read without
// locks.
var registry = map[regKey]any{}

// register adds a backend under its (Name, dtype) pair. Call it only from an
// init function of this package, one line per dtype the backend implements;
// a backend added this way must pass the conformance suite
// (internal/kernel/conformance) for each of them.
func register[E matrix.Element](b Backend[E]) {
	registry[regKey{name: b.Name(), dtype: matrix.DtypeOf[E]()}] = b
}

// Resolve returns the backend registered under name for element type E; the
// empty name selects DefaultBackend. Unknown (name, dtype) pairs error with
// the list of backends registered for that dtype; names that are known but
// could not register on this host or build (e.g. "avx2" without AVX2+FMA
// hardware, or under the purego tag) error with the recorded reason, so a
// misdirected FMMFAM_KERNEL fails validation with an explanation instead of
// a bare lookup failure.
func Resolve[E matrix.Element](name string) (Backend[E], error) {
	if name == "" {
		name = DefaultBackend
	}
	d := matrix.DtypeOf[E]()
	b, ok := registry[regKey{name: name, dtype: d}]
	if !ok {
		if reason := UnavailableReason(name); reason != "" {
			return nil, fmt.Errorf("kernel: backend %q is unavailable on this host: %s (registered for %s: %v)",
				name, reason, d, BackendsFor(d))
		}
		return nil, fmt.Errorf("kernel: unknown backend %q for %s (registered: %v)", name, d, BackendsFor(d))
	}
	return b.(Backend[E]), nil
}

// ResolveNameFor is the runtime-dtype form of Resolve for callers that hold
// a matrix.Dtype value instead of a compile-time element type (the
// performance model's Arch pricing): it canonicalizes name (empty selects
// DefaultBackend) and reports whether that backend is registered for d.
func ResolveNameFor(name string, d matrix.Dtype) (string, bool) {
	if name == "" {
		name = DefaultBackend
	}
	_, ok := registry[regKey{name: name, dtype: d}]
	return name, ok
}

// MustResolve is Resolve for names already validated (e.g. by a Config check).
func MustResolve[E matrix.Element](name string) Backend[E] {
	b, err := Resolve[E](name)
	if err != nil {
		panic(err)
	}
	return b
}

// Backends lists the registered backend names, sorted and deduplicated
// across dtypes — the valid Config.Kernel values. Use BackendsFor to ask
// which names support one specific element type.
func Backends() []string {
	seen := make(map[string]bool, len(registry))
	names := make([]string, 0, len(registry))
	for key := range registry {
		if !seen[key.name] {
			seen[key.name] = true
			names = append(names, key.name)
		}
	}
	sort.Strings(names)
	return names
}

// BackendsFor lists the backend names registered for one element type,
// sorted.
func BackendsFor(d matrix.Dtype) []string {
	names := make([]string, 0, len(registry))
	for key := range registry {
		if key.dtype == d {
			names = append(names, key.name)
		}
	}
	sort.Strings(names)
	return names
}
