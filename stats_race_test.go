package fmmfam

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsConcurrentWithServing hammers Stats() from dedicated reader
// goroutines while servers drive traffic through a multiplier, so plan-table
// inserts race against snapshotting. Under -race this proves the
// observability surface never tears against the serving state it reports.
// Results are still checked against the naive reference.
func TestStatsConcurrentWithServing(t *testing.T) {
	mu := NewMultiplier(Config{MC: 16, KC: 16, NC: 32, Threads: 2}, PaperArch())
	refs := makeRefProducts(7)
	kern := mu.Stats().Kernel

	var stop atomic.Bool
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				if s := mu.Stats(); s.Kernel != kern {
					t.Errorf("Stats() = %+v; want kernel %q", s, kern)
					return
				}
			}
		}()
	}

	const servers = 4
	const iters = 60
	var wg sync.WaitGroup
	errc := make(chan error, servers)
	for g := 0; g < servers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				r := refs[(g+it)%len(refs)]
				c := NewMatrix(r.want.Rows, r.want.Cols)
				if err := mu.MulAdd(c, r.a, r.b); err != nil {
					errc <- err
					return
				}
				if d := c.MaxAbsDiff(r.want); d > 1e-9 {
					t.Errorf("goroutine %d iter %d: diff %g", g, it, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if s := mu.Stats(); s.CachedPlans == 0 {
		t.Error("Stats().CachedPlans = 0 after serving traffic")
	}
}
