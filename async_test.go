package fmmfam

// Lifecycle tests for the MulAddAsync pool under adversarial concurrency:
// submitters racing Close, concurrent double-Close, and the goroutine-leak
// guarantee. PR 3 added the leak check for sharded execution only; these pin
// the async pool's side. Run with -race; the CI workflow always does.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

// bitsDiffer counts the elements of two equal-shaped dense matrices whose
// bits differ.
func bitsDiffer(x, y Matrix) int {
	n := 0
	for i, v := range x.Data {
		if math.Float64bits(v) != math.Float64bits(y.Data[i]) {
			n++
		}
	}
	return n
}

// TestAsyncBitsMatchMulAdd: a MulAddAsync product is MulAdd's, bit for bit —
// its drainer cuts it on the grid a direct call cuts it on, and every tile
// runs the product's plan. The rows are products a Threads = 2 multiplier
// shards at the default blocking: go4x4 512³ into FMM tiles, go4x4
// 64×4096×64 into GEMM K slabs and, where avx2 is registered and not under
// -short, avx2 2048³ (fmmbench's square_large, <2,2,2> ABC on 1×2×1 tiles).
// The last case keeps more sharded products in flight than Threads — async
// submissions beside direct callers — so drainers tile with no pool token
// free; every one must still finish with MulAdd's bits.
func TestAsyncBitsMatchMulAdd(t *testing.T) {
	newMu := func(t *testing.T, kern string) *Multiplier {
		if _, ok := archOf(kern, matrix.Float64); !ok {
			t.Skipf("%s not registered on this host/build", kern)
		}
		cfg := DefaultConfig()
		cfg.Kernel, cfg.Threads = kern, 2
		mu := NewMultiplier(cfg, PaperArch())
		t.Cleanup(func() { mu.Close() })
		return mu
	}
	operands := func(m, k, n int) (a, b, direct Matrix) {
		rng := rand.New(rand.NewSource(int64(m + k + n)))
		a, b = NewMatrix(m, k), NewMatrix(k, n)
		a.FillRand(rng)
		b.FillRand(rng)
		return a, b, NewMatrix(m, n)
	}
	for _, tc := range []struct {
		kern    string
		m, k, n int
		kSplit  bool
		long    bool
	}{
		{kernel.DefaultBackend, 512, 512, 512, false, false},
		{kernel.DefaultBackend, 64, 4096, 64, true, false},
		{kernel.AVX2Backend, 2048, 2048, 2048, false, true},
	} {
		t.Run(fmt.Sprintf("%s/%dx%dx%d", tc.kern, tc.m, tc.k, tc.n), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("a 2048³ product is skipped under -short")
			}
			mu := newMu(t, tc.kern)
			if spec, ok := mu.shardSpec(tc.m, tc.k, tc.n); !ok || (spec.GridK > 1) != tc.kSplit {
				t.Fatalf("shardSpec = %v, %v; want a grid that splits K: %v", spec, ok, tc.kSplit)
			}
			a, b, direct := operands(tc.m, tc.k, tc.n)
			if err := mu.MulAdd(direct, a, b); err != nil {
				t.Fatal(err)
			}
			c := NewMatrix(tc.m, tc.n)
			if err := mu.MulAddAsync(c, a, b).Wait(); err != nil {
				t.Fatal(err)
			}
			if n := bitsDiffer(c, direct); n != 0 {
				t.Fatalf("%d of %d elements differ from MulAdd's", n, len(c.Data))
			}
		})
	}
	t.Run("drainers without tokens", func(t *testing.T) {
		mu := newMu(t, kernel.DefaultBackend)
		const dim, async, direct = 256, 6, 2
		if _, ok := mu.shardSpec(dim, dim, dim); !ok {
			t.Fatalf("%d³ does not shard: no test", dim)
		}
		a, b, want := operands(dim, dim, dim)
		if err := mu.MulAdd(want, a, b); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < async+direct; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c := NewMatrix(dim, dim)
				var err error
				if g < async {
					err = mu.MulAddAsync(c, a, b).Wait()
				} else {
					err = mu.MulAdd(c, a, b)
				}
				if err != nil {
					t.Errorf("caller %d: %v", g, err)
				} else if n := bitsDiffer(c, want); n != 0 {
					t.Errorf("caller %d: %d of %d elements differ from MulAdd's", g, n, len(c.Data))
				}
			}()
		}
		close(start)
		wg.Wait()
	})
}

// TestAsyncSubmittersRacingClose hammers one multiplier with concurrent
// submitters while Close runs in the middle of the storm (twice, from two
// goroutines — double-Close must be idempotent under race too). Every future
// must resolve — either with a correct product or with ErrClosed — no send
// may panic on a closed queue, and after the dust settles no pool goroutine
// may survive. At Threads = 1 the queue holds 4 submissions and one more
// runs, so of the 8 submitters in flight at least 3 are blocked in the send
// (holding the queue's read lock) at the moment Close takes the write lock,
// the exact interleaving the RWMutex ordering exists for.
func TestAsyncSubmittersRacingClose(t *testing.T) {
	for round := 0; round < 5; round++ {
		before := runtime.NumGoroutine()
		cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 1}
		mu := NewMultiplier(cfg, PaperArch())

		rng := rand.New(rand.NewSource(int64(round)))
		a, b := NewMatrix(48, 32), NewMatrix(32, 48)
		a.FillRand(rng)
		b.FillRand(rng)
		want := NewMatrix(48, 48)
		matrix.MulAdd(want, a, b)

		const submitters = 8
		const perSubmitter = 6
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, submitters*perSubmitter+2)
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for it := 0; it < perSubmitter; it++ {
					c := NewMatrix(48, 48)
					f := mu.MulAddAsync(c, a, b)
					if err := f.Wait(); err != nil {
						if !errors.Is(err, ErrClosed) {
							errs <- err
						}
						continue // rejected after Close: fine, but must resolve
					}
					if d := c.MaxAbsDiff(want); d > 1e-9 {
						errs <- errors.New("accepted future computed wrong product")
					}
				}
			}()
		}
		// Two racing Closes in the middle of the submission storm.
		for i := 0; i < 2; i++ {
			wg.Add(1)
			delay := time.Duration(rng.Intn(2)) * time.Millisecond
			go func() {
				defer wg.Done()
				<-start
				time.Sleep(delay)
				if err := mu.Close(); err != nil {
					errs <- err
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// Third Close after the race: still idempotent.
		if err := mu.Close(); err != nil {
			t.Fatalf("post-race Close: %v", err)
		}
		// Submissions after Close resolve with ErrClosed.
		if err := mu.MulAddAsync(NewMatrix(48, 48), a, b).Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("submission after Close: err=%v, want ErrClosed", err)
		}
		// No worker goroutine survives Close. Compared with retries because
		// exiting goroutines are only eventually gone.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("round %d leaked goroutines: %d before, %d after Close",
					round, before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestAsyncConcurrentDoubleCloseUnusedPool: two Closes racing on a
// multiplier whose async path was never used — the lazy-materialization edge
// — must both return nil and leave no goroutines.
func TestAsyncConcurrentDoubleCloseUnusedPool(t *testing.T) {
	before := runtime.NumGoroutine()
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, PaperArch())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := mu.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
