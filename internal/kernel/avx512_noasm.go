//go:build !amd64 || purego

package kernel

// The avx512 backend is amd64 assembly; this build compiles it out. As for
// avx2 (avx2_noasm.go), the reason is recorded so selecting it by name fails
// with an explanation and Statuses can show why.
func init() {
	unavailable[AVX512Backend] = "requires amd64 assembly (build is non-amd64 or uses the purego tag); the pure-Go backend remains available"
}
