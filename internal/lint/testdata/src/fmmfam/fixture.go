// Package fmmfam is the detorder fixture for the module root scope (import
// path "fmmfam"): every file of the library package is covered, so compute
// fan-out anywhere in it must go through internal/sched, and only the async
// queue's drainers carry a //fmm:go-ok waiver.
package fmmfam

import "sync"

// --- violations ---

func badBatchFanout(jobs []func()) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() { // want `bare go statement`
			defer wg.Done()
			j()
		}()
	}
	wg.Wait()
}

// --- compliant ---

// Queue drainers block on a channel until Close — a pool job cannot — and
// compute only through the multiplier, so they are waived with the reason.
func okQueueDrainers(q <-chan func(), n int, wg *sync.WaitGroup) {
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() { //fmm:go-ok queue drainer: blocks on the channel until Close
			defer wg.Done()
			for j := range q {
				j()
			}
		}()
	}
}
