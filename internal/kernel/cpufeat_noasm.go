//go:build !amd64 || purego

package kernel

// This build carries no assembly backends: either the target GOARCH has
// none, or the purego tag compiled them out. Dispatch fails closed to the
// pure-Go backend.
const (
	hostAVX2    = false
	hostAVX512  = false
	pureGoBuild = true
)
