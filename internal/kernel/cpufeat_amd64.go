//go:build amd64 && !purego

package kernel

// cpuid executes the CPUID instruction for (leaf, sub); implemented in
// cpufeat_amd64.s. No external dependency: the probe is ~10 instructions and
// runs once at init.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0 (requires OSXSAVE, checked by
// the caller); implemented in cpufeat_amd64.s.
func xgetbv0() (eax, edx uint32)

// pureGoBuild: this build includes the amd64 assembly backends.
const pureGoBuild = false

// hostAVX2 is the boot-time result of the AVX2+FMA probe.
var hostAVX2 = detectAVX2FMA()

// detectAVX2FMA reports whether this CPU can run the avx2 backend: AVX2 and
// FMA instruction support plus OS-managed XMM/YMM register state (OSXSAVE +
// XCR0 bits 1 and 2 — without it the kernel would fault or corrupt ymm state
// on context switch). The same three-step probe every runtime dispatcher
// performs; misdetection fails closed to the pure-Go backend.
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		cpuidFMA     = 1 << 12 // leaf 1 ECX: fused multiply-add
		cpuidOSXSAVE = 1 << 27 // leaf 1 ECX: XGETBV available, OS uses XSAVE
		cpuidAVX     = 1 << 28 // leaf 1 ECX: AVX
		cpuidAVX2    = 1 << 5  // leaf 7 EBX: AVX2
		xcr0SSE      = 1 << 1  // XCR0: XMM state saved on context switch
		xcr0AVX      = 1 << 2  // XCR0: YMM state saved on context switch
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(cpuidFMA|cpuidOSXSAVE|cpuidAVX) != cpuidFMA|cpuidOSXSAVE|cpuidAVX {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&(xcr0SSE|xcr0AVX) != xcr0SSE|xcr0AVX {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&cpuidAVX2 != 0
}

// hostAVX512 is the boot-time result of the AVX-512 probe; avx512Missing says
// what the host lacked when it failed ("" when it passed).
var hostAVX512, avx512Missing = detectAVX512()

// detectAVX512 reports whether this CPU can run the avx512 backend: the avx2
// probe's AVX2+FMA with YMM state (the backend reuses avx2's Ã packers),
// AVX-512F, and OS-managed opmask and ZMM state — XCR0 bits 5 (k0–k7), 6
// (the upper halves of Z0–Z15) and 7 (Z16–Z31), without which the OS would not
// preserve zmm registers across a context switch. A failed probe says which
// requirement was missing, for the unavailable reason.
func detectAVX512() (bool, string) {
	if !hostAVX2 {
		return false, "host CPU lacks AVX2+FMA (or the OS does not enable YMM state)"
	}
	const (
		cpuidAVX512F = 1 << 16 // leaf 7 EBX: AVX-512 Foundation
		xcr0ZMM      = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	if _, ebx7, _, _ := cpuid(7, 0); ebx7&cpuidAVX512F == 0 {
		return false, "host CPU lacks AVX-512F"
	}
	if xlo, _ := xgetbv0(); xlo&xcr0ZMM != xcr0ZMM {
		return false, "the OS does not enable opmask and ZMM register state (XCR0 bits 5–7)"
	}
	return true, ""
}
