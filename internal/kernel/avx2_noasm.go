//go:build !amd64 || purego

package kernel

// The avx2 backend is amd64 assembly; this build (non-amd64 GOARCH, or the
// purego tag) compiles it out. Record the reason so Config.Kernel="avx2"
// fails validation with an explanation instead of a bare "unknown backend",
// and so the availability surface (Statuses, fmmfam.KernelStatuses,
// /v1/stats) can show operators why dispatch fell back to pure Go.
func init() {
	unavailable[AVX2Backend] = "requires amd64 assembly (build is non-amd64 or uses the purego tag); the pure-Go backend remains available"
}
