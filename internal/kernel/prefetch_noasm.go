//go:build !amd64 || purego

package kernel

import "unsafe"

// prefetchLines is a no-op without amd64 assembly: Prefetch is a hint.
func prefetchLines(unsafe.Pointer, uintptr) {}
