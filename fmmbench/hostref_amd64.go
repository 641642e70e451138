//go:build amd64 && !purego

package main

// fmaLoopAVX2 runs iters steps of the frozen FMA loop over the 14 float64s
// at p (hostref_amd64.s).
//
//go:noescape
func fmaLoopAVX2(iters int, p *float64)
