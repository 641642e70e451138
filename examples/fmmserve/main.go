// Serving-over-the-wire walkthrough: a client driving a running fmmserve
// instance through every compute surface — synchronous multiplies small
// enough to ride the coalescing window, a wire batch, an async
// submit/collect pair — then reading /v1/stats back to see what the server
// did with the traffic. Results are verified against a local serial engine,
// so this doubles as the CI serving smoke check:
//
//	fmmserve -addr 127.0.0.1:8077 &
//	go run ./examples/fmmserve -url http://127.0.0.1:8077
//
// Exit status is nonzero on any wrong result or failed request.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"fmmfam"
	"fmmfam/serve"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8077", "base URL of a running fmmserve")
	flag.Parse()

	cl := &serve.Client{BaseURL: *url, Retry429: 8}

	// Local serial reference: the serving contract says coalesced and batch
	// results are bit-identical to a single-threaded engine run, so we can
	// check the wire answers exactly, not just approximately.
	refCfg := fmmfam.DefaultConfig()
	refCfg.Threads = 1
	ref := fmmfam.NewMultiplier(refCfg, fmmfam.PaperArch())
	defer ref.Close()

	rng := rand.New(rand.NewSource(7))
	mk := func(m, k, n int) (a, b, want fmmfam.Matrix) {
		a, b = fmmfam.NewMatrix(m, k), fmmfam.NewMatrix(k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		want = fmmfam.NewMatrix(m, n)
		if err := ref.MulAdd(want, a, b); err != nil {
			log.Fatalf("local reference: %v", err)
		}
		return a, b, want
	}

	// Small synchronous multiplies: on the server these join the coalescing
	// window and execute as one batch.
	for i := 0; i < 8; i++ {
		a, b, want := mk(48, 32, 48)
		c := fmmfam.NewMatrix(48, 48)
		if err := cl.Multiply(c, a, b); err != nil {
			log.Fatalf("multiply %d: %v", i, err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			log.Fatalf("multiply %d: wire result off by %g", i, d)
		}
	}
	fmt.Println("8 small multiplies served")

	// One wire batch: independent products shipped and answered in a single
	// request.
	jobs := make([]fmmfam.BatchJob, 4)
	wants := make([]fmmfam.Matrix, 4)
	for i := range jobs {
		a, b, want := mk(64, 48, 32)
		jobs[i] = fmmfam.BatchJob{C: fmmfam.NewMatrix(64, 32), A: a, B: b}
		wants[i] = want
	}
	if err := cl.MultiplyBatch(jobs); err != nil {
		log.Fatalf("batch: %v", err)
	}
	for i, j := range jobs {
		if d := j.C.MaxAbsDiff(wants[i]); d > 1e-9 {
			log.Fatalf("batch job %d off by %g", i, d)
		}
	}
	fmt.Println("4-job wire batch served")

	// Async: submit returns immediately with an id; collect blocks until the
	// server-side future resolves, then the result is released (collect-once).
	a, b, want := mk(160, 96, 128)
	c := fmmfam.NewMatrix(160, 128)
	h, err := cl.SubmitAsync(c, a, b)
	if err != nil {
		log.Fatalf("async submit: %v", err)
	}
	fmt.Printf("async submission accepted (id %s)\n", h.ID())
	if err := h.Collect(); err != nil {
		log.Fatalf("async collect: %v", err)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		log.Fatalf("async result off by %g", d)
	}
	fmt.Println("async product collected")

	// The server's view of what just happened.
	st, err := cl.Stats()
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	fmt.Printf("server stats: %d completed, %d errors, admission %d/%d in flight\n",
		st.Completed, st.Errors, st.Admission.InFlight, st.Admission.Depth)
	if st.Coalesce64.Enabled {
		fmt.Printf("coalescing: %d jobs in %d batches (%d size-flushed, %d timer-flushed, %d because the engine had room)\n",
			st.Coalesce64.Jobs, st.Coalesce64.Batches, st.Coalesce64.SizeFlushes, st.Coalesce64.TimerFlushes, st.Coalesce64.IdleFlushes)
	}
	p99 := st.Endpoints["multiply"].Quantile(0.99)
	fmt.Printf("multiply p99 ≤ %v\n", p99)
	// 11 requests: 8 multiplies, 1 batch, 1 async submit, 1 async collect.
	if st.Completed < 11 || st.Errors > 0 {
		log.Fatalf("stats disagree with the traffic just sent: %+v", st)
	}
	fmt.Println("serving smoke: OK")
}
