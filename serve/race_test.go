// Race-detector stress: coalescing windows filling and flushing while the
// engines fill their plan tables on served traffic and a poller hammers
// /v1/stats. This is the serving-layer extension of the engine's
// stats_race_test — same idea, but through real sockets with the coalescer's
// timer and idle flushes racing in the loop.
package serve_test

import (
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmmfam"
	"fmmfam/serve"
)

func TestServeRaceCoalesceStats(t *testing.T) {
	beforeGoroutines := runtime.NumGoroutine()
	cfg := fmmfam.Config{
		MC: 16, KC: 16, NC: 32, Threads: 2,
		ShardThreshold: 128,
		CoalesceWindow: 100 * time.Microsecond,
	}
	h := startHarness(t, cfg, serve.Options{AdmissionDepth: 32})
	closed := false
	defer func() {
		if !closed {
			h.Close()
		}
	}()

	rng := rand.New(rand.NewSource(21))
	a, b := fmmfam.NewMatrix(48, 48), fmmfam.NewMatrix(48, 48)
	a.FillRand(rng)
	b.FillRand(rng)
	want := fmmfam.NewMatrix(48, 48)
	refCfg := cfg
	refCfg.Threads = 1
	ref := fmmfam.NewMultiplier(refCfg, fmmfam.PaperArch())
	if err := ref.MulAdd(want, a, b); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if err := ref.Close(); err != nil {
		t.Fatalf("reference close: %v", err)
	}

	const clients = 4
	const iters = 40
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Stats poller: runs flat out until the clients finish, checking every
	// snapshot is self-consistent JSON.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		cl := h.Client()
		cl.HTTPClient = &http.Client{Transport: tr}
		for !stop.Load() {
			st, err := cl.Stats()
			if err != nil {
				t.Errorf("stats poll: %v", err)
				return
			}
			if st.Multiplier.Kernel == "" {
				t.Errorf("stats: engine stats lost in flight: %+v", st.Multiplier)
				return
			}
			if st.Coalesce64.Jobs < st.Coalesce64.Batches {
				t.Errorf("stats: coalesce jobs %d < batches %d", st.Coalesce64.Jobs, st.Coalesce64.Batches)
				return
			}
		}
	}()

	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			cl := h.Client()
			cl.HTTPClient = &http.Client{Transport: tr}
			cl.Retry429 = 8
			for it := 0; it < iters; it++ {
				c := fmmfam.NewMatrix(48, 48)
				if err := cl.Multiply(c, a, b); err != nil {
					t.Errorf("client %d iter %d: %v", g, it, err)
					return
				}
				// Equality with the reference product is up to roundoff.
				if d := c.MaxAbsDiff(want); d > 1e-9 {
					t.Errorf("client %d iter %d: off by %g", g, it, d)
					return
				}
			}
		}(g)
	}

	// Let the clients finish, then stop the poller.
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	// The first Wait covers the client goroutines' natural completion; the
	// poller needs the stop flag. Poll for the client count via the shared
	// WaitGroup indirectly: flip stop once all client work is observable in
	// stats, bounded by a deadline.
	deadline := time.After(30 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	cl := h.Client()
	for {
		st, err := cl.Stats()
		if err != nil {
			t.Fatalf("final stats: %v", err)
		}
		if st.Completed+st.Errors >= clients*iters {
			stop.Store(true)
			break
		}
		select {
		case <-deadline:
			t.Fatalf("clients did not finish: %d/%d requests accounted", st.Completed+st.Errors, clients*iters)
		case <-tick.C:
		}
	}
	<-done

	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("final stats: %v", err)
	}
	if st.Coalesce64.Batches == 0 {
		t.Errorf("race run never coalesced: %+v", st.Coalesce64)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	closed = true
	http.DefaultClient.CloseIdleConnections()
	checkNoGoroutineLeak(t, beforeGoroutines)
}
