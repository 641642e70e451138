package main

import (
	"sync"
	"time"

	"fmmfam"
)

// The host reference is a frozen piece of work — the instruction mix of an
// AVX2 micro-kernel step, in this directory's own assembly, on registers and
// 112 bytes of L1 — that the benchmark times next to everything it gates by
// time. On a shared host the same code runs 10–60 % slower from one minute to
// the next; the reference slows with it, so a time or rate divided by the
// reference's speed at that moment measures the code, not the neighbours
// (README, "Why these estimators"). Nothing in the repository can change the
// reference, so a faster kernel still shows.
const (
	hostRefIters = 3_000_000 // about 7 ms
	hostRefFlops = 96        // per iteration: twelve 4-lane FMAs

	// hostNominalGflops is the reference's rate per thread on the host the
	// benchmark was defined on (2-vCPU Xeon @ 2.1 GHz) when nothing disturbs
	// it. Gated times and rates are expressed at this host speed.
	hostNominalGflops = 44.0
)

var hostRefData = [14]float64{1, 0.5, 0.25, 0.125, 1, 0.5, 0.25, 0.125, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}

// hostRefGflops times the reference once on each of threads goroutines and
// returns its rate per thread, or 0 where the build or the CPU has no AVX2
// and FMA.
func hostRefGflops(threads int) float64 {
	if !fmmfam.HostCPU().AVX2 {
		return 0
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := hostRefData
			fmaLoopAVX2(hostRefIters, &data[0])
		}()
	}
	wg.Wait()
	return hostRefIters * hostRefFlops / time.Since(t0).Seconds() / 1e9
}

// hostSpeed is the host's speed at this moment as a share of the nominal
// host's: 1 where there is no reference, so that nothing is rescaled.
func hostSpeed(threads int) float64 {
	if g := hostRefGflops(threads); g > 0 {
		return g / hostNominalGflops
	}
	return 1
}
