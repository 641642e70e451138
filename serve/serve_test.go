// End-to-end integration tests for the serving front-end: N concurrent
// clients over real loopback sockets mixing small multiplies (coalesced),
// large multiplies (auto-sharded), wire batches, and async submissions, with
// results checked against serial reference multipliers and the harness torn
// down to zero leaked goroutines. Run with -race; the CI workflow always
// does.
package serve_test

import (
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"fmmfam"
	"fmmfam/serve/servetest"
)

// serveCfg is the integration config: small blocking and the reference
// kernel by name so test-sized problems exercise real plan recursion (and run
// long enough to hold an admission slot), aggressive 2D-only sharding
// (ShardKSplit disabled keeps the sharded path bit-deterministic), and a
// short coalescing window so both flush paths fire at test speeds.
func serveCfg() fmmfam.Config {
	return fmmfam.Config{
		MC: 16, KC: 16, NC: 32, Threads: 4, Kernel: "go4x4",
		ShardThreshold: 128, ShardMinTile: 48, ShardKSplit: -1,
		CoalesceWindow: 200 * time.Microsecond, CoalesceMaxJobs: 8,
		AdmissionDepth: 64,
	}
}

// startHarness wraps servetest.Start with test plumbing.
func startHarness(t *testing.T, cfg fmmfam.Config) *servetest.Harness {
	t.Helper()
	h, err := servetest.Start(cfg, fmmfam.PaperArch())
	if err != nil {
		t.Fatalf("servetest.Start: %v", err)
	}
	return h
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// pre-test baseline (background runtime goroutines settle asynchronously
// after Close).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type refProduct struct {
	a, b, want fmmfam.Matrix
}

type refProduct32 struct {
	a, b, want fmmfam.Matrix32
}

// TestServeIntegration is the end-to-end test the issue asks for: concurrent
// clients mix small multiplies that ride the coalescing window, large
// multiplies that route through auto-sharding MulAdd, wire batches, and
// async submissions, all against one live server. Small-multiply and batch
// results must be bit-identical to a serial reference (they execute the
// engine's width-1 plans); large and async results go through parallel plan
// execution and are checked to the serving tolerance. After the clients
// finish, /v1/stats must account for the traffic, and shutdown must leak
// nothing.
func TestServeIntegration(t *testing.T) {
	beforeGoroutines := runtime.NumGoroutine()
	cfg := serveCfg()
	h := startHarness(t, cfg)
	closed := false
	defer func() {
		if !closed {
			h.Close()
		}
	}()

	// Serial references: the same engine config at Threads 1 — the coalesced
	// and batch paths promise bit-identity against exactly this.
	refCfg := cfg
	refCfg.Threads = 1
	ref64 := fmmfam.NewMultiplier(refCfg, fmmfam.PaperArch())
	ref32 := fmmfam.NewMultiplier32(refCfg, fmmfam.PaperArch())

	rng := rand.New(rand.NewSource(42))
	mkRef := func(m, k, n int) refProduct {
		a, b := fmmfam.NewMatrix(m, k), fmmfam.NewMatrix(k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		want := fmmfam.NewMatrix(m, n)
		if err := ref64.MulAdd(want, a, b); err != nil {
			t.Fatalf("reference MulAdd %dx%dx%d: %v", m, k, n, err)
		}
		return refProduct{a, b, want}
	}
	mkRef32 := func(m, k, n int) refProduct32 {
		a, b := fmmfam.NewMatrix32(m, k), fmmfam.NewMatrix32(k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		want := fmmfam.NewMatrix32(m, n)
		if err := ref32.MulAdd(want, a, b); err != nil {
			t.Fatalf("reference MulAdd32 %dx%dx%d: %v", m, k, n, err)
		}
		return refProduct32{a, b, want}
	}

	small := []refProduct{mkRef(24, 16, 32), mkRef(48, 48, 48), mkRef(64, 32, 16), mkRef(128, 96, 128)}
	small32 := []refProduct32{mkRef32(32, 32, 32), mkRef32(56, 40, 24)}
	large := []refProduct{mkRef(192, 160, 96), mkRef(256, 64, 192)}
	async := []refProduct{mkRef(80, 64, 80), mkRef(160, 48, 160)}

	const clients = 12
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*iters*4)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each client owns its transport so keep-alive connections are
			// torn down before the leak check.
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			cl := h.Client()
			cl.HTTPClient = &http.Client{Transport: tr}
			cl.Retry429 = 8
			for it := 0; it < iters; it++ {
				// Small float64: coalesced, bit-exact against the serial
				// reference.
				p := small[(g+it)%len(small)]
				c := fmmfam.NewMatrix(p.want.Rows, p.want.Cols)
				if err := cl.Multiply(c, p.a, p.b); err != nil {
					errs <- err
					continue
				}
				if d := c.MaxAbsDiff(p.want); d != 0 {
					t.Errorf("client %d iter %d: small multiply differs from serial reference by %g (want bit-exact)", g, it, d)
				}

				// Small float32: same contract at the other precision.
				q := small32[(g+it)%len(small32)]
				c32 := fmmfam.NewMatrix32(q.want.Rows, q.want.Cols)
				if err := cl.Multiply32(c32, q.a, q.b); err != nil {
					errs <- err
				} else if d := c32.MaxAbsDiff(q.want); d != 0 {
					t.Errorf("client %d iter %d: small float32 multiply differs from serial reference by %g (want bit-exact)", g, it, d)
				}

				// Large float64: auto-sharded MulAdd; the tile decomposition
				// groups additions differently from the reference's full-size
				// plan, so equality is up to roundoff.
				p = large[(g+it)%len(large)]
				c = fmmfam.NewMatrix(p.want.Rows, p.want.Cols)
				if err := cl.Multiply(c, p.a, p.b); err != nil {
					errs <- err
				} else if d := c.MaxAbsDiff(p.want); d > 1e-9 {
					t.Errorf("client %d iter %d: large multiply off by %g", g, it, d)
				}

				// Wire batch: rides MulAddBatch, bit-exact like the coalesced
				// path.
				jobs := make([]fmmfam.BatchJob, 0, 3)
				for j := 0; j < 3; j++ {
					bp := small[(g+it+j)%len(small)]
					jobs = append(jobs, fmmfam.BatchJob{
						C: fmmfam.NewMatrix(bp.want.Rows, bp.want.Cols), A: bp.a, B: bp.b,
					})
				}
				if err := cl.MultiplyBatch(jobs); err != nil {
					errs <- err
				} else {
					for j, job := range jobs {
						bp := small[(g+it+j)%len(small)]
						if d := job.C.MaxAbsDiff(bp.want); d != 0 {
							t.Errorf("client %d iter %d: batch job %d differs from serial reference by %g (want bit-exact)", g, it, j, d)
						}
					}
				}

				// Async: submit, then collect a beat later.
				p = async[(g+it)%len(async)]
				c = fmmfam.NewMatrix(p.want.Rows, p.want.Cols)
				hnd, err := cl.SubmitAsync(c, p.a, p.b)
				if err != nil {
					errs <- err
					continue
				}
				if err := hnd.Collect(); err != nil {
					errs <- err
				} else if d := c.MaxAbsDiff(p.want); d > 1e-9 {
					t.Errorf("client %d iter %d: async multiply off by %g", g, it, d)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client error: %v", err)
	}

	// The server's own accounting must cover the traffic.
	cl := h.Client()
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	wantCompleted := uint64(clients * iters * 4) // multiply + multiply32 + large + batch (+ async submits on top)
	if st.Completed < wantCompleted {
		t.Errorf("stats: Completed = %d, want ≥ %d", st.Completed, wantCompleted)
	}
	if st.Errors != 0 {
		t.Errorf("stats: Errors = %d, want 0", st.Errors)
	}
	if !st.Coalesce64.Enabled || st.Coalesce64.Batches == 0 {
		t.Errorf("stats: coalescing saw no float64 batches: %+v", st.Coalesce64)
	}
	if st.Coalesce64.Jobs < st.Coalesce64.Batches {
		t.Errorf("stats: coalesce jobs %d < batches %d", st.Coalesce64.Jobs, st.Coalesce64.Batches)
	}
	if st.Coalesce32.Jobs == 0 {
		t.Errorf("stats: coalescing saw no float32 jobs: %+v", st.Coalesce32)
	}
	if st.Admission.Admitted == 0 || st.Admission.Depth != 64 {
		t.Errorf("stats: admission gate unused or misconfigured: %+v", st.Admission)
	}
	if st.AsyncPending != 0 {
		t.Errorf("stats: %d uncollected async results after all collects", st.AsyncPending)
	}
	for _, ep := range []string{"multiply", "batch", "async-submit", "async-collect"} {
		if st.Endpoints[ep].Count == 0 {
			t.Errorf("stats: endpoint %q recorded no requests", ep)
		}
	}
	// FoldScale is always ≥ 1, which pins that the embedded engine stats
	// survive the JSON round-trip.
	if st.Multiplier.FoldScale < 1 {
		t.Errorf("stats: embedded float64 multiplier stats empty: %+v", st.Multiplier)
	}

	// Graceful shutdown, then the goroutine count must return to baseline:
	// no handler, watcher, coalescer, or pool goroutine may survive.
	http.DefaultClient.CloseIdleConnections()
	if err := h.Close(); err != nil {
		t.Fatalf("harness close: %v", err)
	}
	closed = true
	if err := ref64.Close(); err != nil {
		t.Fatalf("reference close: %v", err)
	}
	if err := ref32.Close(); err != nil {
		t.Fatalf("reference32 close: %v", err)
	}
	checkNoGoroutineLeak(t, beforeGoroutines)
}

// TestServeCoalesceDisabled pins the CoalesceWindow < 0 escape hatch: every
// request dispatches directly and /v1/stats reports the layer off.
func TestServeCoalesceDisabled(t *testing.T) {
	cfg := serveCfg()
	cfg.CoalesceWindow = -1
	h := startHarness(t, cfg)
	defer h.Close()

	cl := h.Client()
	rng := rand.New(rand.NewSource(3))
	a, b := fmmfam.NewMatrix(32, 32), fmmfam.NewMatrix(32, 32)
	a.FillRand(rng)
	b.FillRand(rng)
	c := fmmfam.NewMatrix(32, 32)
	if err := cl.Multiply(c, a, b); err != nil {
		t.Fatalf("Multiply with coalescing disabled: %v", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Coalesce64.Enabled || st.Coalesce64.Batches != 0 {
		t.Errorf("coalescing disabled but stats report %+v", st.Coalesce64)
	}
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1", st.Completed)
	}
}

// TestServeHealthz pins the liveness endpoint.
func TestServeHealthz(t *testing.T) {
	h := startHarness(t, serveCfg())
	defer h.Close()
	resp, err := http.Get(h.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}
}
