//go:build amd64 && !purego

package kernel

import "unsafe"

// prefetchLines issues PREFETCHT0 for every cache line of the n bytes at p
// (prefetch_amd64.s). It keeps no pointer past the call.
//
//go:noescape
func prefetchLines(p unsafe.Pointer, n uintptr)
