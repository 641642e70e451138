package fmmfam

// Lifecycle tests for the MulAddAsync pool under adversarial concurrency:
// submitters racing Close, concurrent double-Close, and the goroutine-leak
// guarantee. PR 3 added the leak check for sharded execution only; these pin
// the async pool's side. Run with -race; the CI workflow always does.

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fmmfam/internal/matrix"
)

// TestAsyncSubmittersRacingClose hammers one multiplier with concurrent
// submitters while Close runs in the middle of the storm (twice, from two
// goroutines — double-Close must be idempotent under race too). Every future
// must resolve — either with a correct product or with ErrClosed — no send
// may panic on a closed queue, and after the dust settles no pool goroutine
// may survive. The deliberately tiny queue keeps submitters blocked in the
// send (holding the pool's read lock) at the moment Close takes the write
// lock, the exact interleaving the RWMutex ordering exists for.
func TestAsyncSubmittersRacingClose(t *testing.T) {
	for round := 0; round < 5; round++ {
		before := runtime.NumGoroutine()
		cfg := Config{MC: 16, KC: 16, NC: 32, Threads: 2, QueueDepth: 1}
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
