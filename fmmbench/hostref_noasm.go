//go:build !amd64 || purego

package main

// A build without assembly has no host reference: fmmfam.HostCPU().AVX2 is
// false in it, so hostSpeed never gets here.
func fmaLoopAVX2(iters int, p *float64) { panic("fmmbench: no assembly in this build") }
