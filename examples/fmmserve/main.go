// Serving-over-the-wire walkthrough: a client driving a running fmmserve
// instance through every compute surface — synchronous multiplies small
// enough to ride the coalescing window, a wire batch, async submit/collect
// pairs, and one product the server cuts into K slabs, sent through both
// /v1/multiply and /v1/async — then reading /v1/stats back to
// see what the server did with the traffic. Results are verified against a
// local serial engine on the kernel the server reports, bit for bit where
// that kernel is available here, so this doubles as the CI serving smoke
// check:
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
	"math"
	"math/rand"

	"fmmfam"
	"fmmfam/serve"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8077", "base URL of a running fmmserve")
	flag.Parse()

	cl := &serve.Client{BaseURL: *url, Retry429: 8}

	// Local serial reference on the server's float64 kernel: the serving
	// contract says coalesced and batch results are bit-identical to a
	// single-threaded engine run on that kernel, so where it is available
	// here the wire answers are checked exactly, not just approximately.
	st, err := cl.Stats()
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	refCfg := fmmfam.DefaultConfig()
	refCfg.Threads = 1
	exact := false
	for _, k := range fmmfam.KernelStatuses() {
		if k.Name == st.Multiplier.Kernel && k.Available {
			refCfg.Kernel, exact = k.Name, true
		}
	}
	ref := fmmfam.NewMultiplier(refCfg, fmmfam.PaperArch())
	defer ref.Close()
	if exact {
		fmt.Printf("server kernel %s: checking small and batch results bit for bit\n", refCfg.Kernel)
	} else {
		fmt.Printf("server kernel %q is not available here: checking results to 1e-9\n", st.Multiplier.Kernel)
	}
	// check fails the run when a small or batch result is not the
	// reference's: bit for bit when exact, else within 1e-9.
	check := func(what string, got, want fmmfam.Matrix) {
		if exact {
			if n := bitsDiffer(got, want); n != 0 {
				log.Fatalf("%s: %d of %d elements differ from the local reference", what, n, len(want.Data))
			}
		} else if d := got.MaxAbsDiff(want); d > 1e-9 {
			log.Fatalf("%s: wire result off by %g", what, d)
		}
	}

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
		check(fmt.Sprintf("multiply %d", i), c, want)
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
		check(fmt.Sprintf("batch job %d", i), j.C, wants[i])
	}
	fmt.Println("4-job wire batch served")

	// Async: submit returns immediately with an id; collect blocks until the
	// server-side future resolves, then the result is released (collect-once).
	async := func(c, a, b fmmfam.Matrix) {
		h, err := cl.SubmitAsync(c, a, b)
		if err != nil {
			log.Fatalf("async submit: %v", err)
		}
		fmt.Printf("async submission accepted (id %s)\n", h.ID())
		if err := h.Collect(); err != nil {
			log.Fatalf("async collect: %v", err)
		}
	}
	a, b, want := mk(160, 96, 128)
	c := fmmfam.NewMatrix(160, 128)
	async(c, a, b)
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		log.Fatalf("async result off by %g", d)
	}
	fmt.Println("async product collected")

	// One product a multi-threaded engine cuts into K slabs on every kernel
	// (fmmtool explain 256 16384 256 -threads 2), whose bits therefore
	// depend on the route: /v1/multiply and /v1/async both run it through
	// MulAdd, so theirs agree.
	a, b, want = mk(256, 16384, 256)
	direct, queued := fmmfam.NewMatrix(256, 256), fmmfam.NewMatrix(256, 256)
	if err := cl.Multiply(direct, a, b); err != nil {
		log.Fatalf("multiply 256×16384×256: %v", err)
	}
	async(queued, a, b)
	if d := direct.MaxAbsDiff(want); d > 1e-9 {
		log.Fatalf("multiply 256×16384×256: wire result off by %g", d)
	}
	if n := bitsDiffer(queued, direct); n != 0 {
		log.Fatalf("256×16384×256: %d of %d elements of /v1/async differ from /v1/multiply", n, len(direct.Data))
	}
	fmt.Println("256×16384×256 served with the same bits by /v1/multiply and /v1/async")

	// The server's view of what just happened.
	st, err = cl.Stats()
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
	// 14 requests: 9 multiplies, 1 batch, 2 async submits, 2 async collects.
	if st.Completed < 14 || st.Errors > 0 {
		log.Fatalf("stats disagree with the traffic just sent: %+v", st)
	}
	fmt.Println("serving smoke: OK")
}

// bitsDiffer counts the elements of two equal-shaped dense matrices whose
// bits differ.
func bitsDiffer(x, y fmmfam.Matrix) int {
	n := 0
	for i, v := range x.Data {
		if math.Float64bits(v) != math.Float64bits(y.Data[i]) {
			n++
		}
	}
	return n
}
