package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fmmfam"
	"fmmfam/internal/matrix"
)

// gatedEngine stands in for a Multiplier's MulAddBatch: every call reports
// its job count on entered and then blocks until the test sends on release,
// so a test decides exactly when a "window is running".
type gatedEngine struct {
	entered chan int
	release chan struct{}
}

func newGatedEngine() *gatedEngine {
	return &gatedEngine{entered: make(chan int), release: make(chan struct{})}
}

func (g *gatedEngine) batch(jobs []fmmfam.GenericBatchJob[float64]) error {
	g.entered <- len(jobs)
	<-g.release
	return nil
}

func newTestCoalescer(g *gatedEngine, window time.Duration) *coalescer[float64] {
	return &coalescer[float64]{batch: g.batch, window: window}
}

// submitN starts n submitters and returns a WaitGroup that completes when all
// of them have returned.
func submitN(t *testing.T, co *coalescer[float64], n int) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := matrix.New[float64](1, 1)
			if err := co.submit(m, m, m); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	return &wg
}

// waitOpen blocks until the open window holds n jobs.
func waitOpen(co *coalescer[float64], n int) {
	for {
		co.mtx.Lock()
		got := 0
		if co.open != nil {
			got = len(co.open.jobs)
		}
		co.mtx.Unlock()
		if got == n {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCoalesceIdleRunsAtOnce: a request that finds nothing open and nothing
// running is a window of one, dispatched without touching the timer — the
// hold bound here is an hour.
func TestCoalesceIdleRunsAtOnce(t *testing.T) {
	g := newGatedEngine()
	co := newTestCoalescer(g, time.Hour)
	wg := submitN(t, co, 1)
	if n := <-g.entered; n != 1 {
		t.Fatalf("idle request dispatched as a window of %d", n)
	}
	g.release <- struct{}{}
	wg.Wait()
	st := co.snapshot()
	if st.Batches != 1 || st.Jobs != 1 || st.IdleFlushes != 1 || st.TimerFlushes != 0 || st.SizeFlushes != 0 {
		t.Fatalf("stats after one idle request: %+v", st)
	}
}

// TestCoalesceGroupCommit: requests arriving while a window runs collect in
// one open window, and the running window's completion dispatches them as a
// single batch — again with the timer an hour away.
func TestCoalesceGroupCommit(t *testing.T) {
	g := newGatedEngine()
	co := newTestCoalescer(g, time.Hour)
	wg := submitN(t, co, 1)
	<-g.entered // the first request is running
	wg3 := submitN(t, co, 3)
	waitOpen(co, 3)
	g.release <- struct{}{} // first window completes …
	if n := <-g.entered; n != 3 {
		t.Fatalf("completion released a window of %d, want 3", n)
	}
	g.release <- struct{}{}
	wg.Wait()
	wg3.Wait()
	st := co.snapshot()
	if st.Batches != 2 || st.Jobs != 4 || st.IdleFlushes != 2 || st.TimerFlushes != 0 || st.SizeFlushes != 0 {
		t.Fatalf("stats after group commit: %+v", st)
	}
}

// TestCoalesceSizeAndTimerBoundTheHold: a window waiting behind a running one
// is still dispatched at coalesceMaxJobs and at CoalesceWindow, alongside the
// window that is running.
func TestCoalesceSizeAndTimerBoundTheHold(t *testing.T) {
	t.Run("size", func(t *testing.T) {
		g := newGatedEngine()
		co := newTestCoalescer(g, time.Hour)
		wg := submitN(t, co, 1)
		<-g.entered
		wg2 := submitN(t, co, coalesceMaxJobs)
		if n := <-g.entered; n != coalesceMaxJobs { // dispatched while the first still runs
			t.Fatalf("full window dispatched with %d jobs, want %d", n, coalesceMaxJobs)
		}
		g.release <- struct{}{}
		g.release <- struct{}{}
		wg.Wait()
		wg2.Wait()
		if st := co.snapshot(); st.SizeFlushes != 1 || st.IdleFlushes != 1 || st.Batches != 2 {
			t.Fatalf("stats: %+v", st)
		}
	})
	t.Run("timer", func(t *testing.T) {
		g := newGatedEngine()
		co := newTestCoalescer(g, time.Millisecond)
		wg := submitN(t, co, 1)
		<-g.entered
		wg1 := submitN(t, co, 1)
		if n := <-g.entered; n != 1 { // the timer, since nothing else can close it
			t.Fatalf("timed-out window dispatched with %d jobs, want 1", n)
		}
		g.release <- struct{}{}
		g.release <- struct{}{}
		wg.Wait()
		wg1.Wait()
		if st := co.snapshot(); st.TimerFlushes != 1 || st.IdleFlushes != 1 || st.Batches != 2 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

// TestCoalesceClose: close dispatches the open window and returns only once
// it has run; later submits are refused.
func TestCoalesceClose(t *testing.T) {
	g := newGatedEngine()
	co := newTestCoalescer(g, time.Hour)
	wg := submitN(t, co, 1)
	<-g.entered
	wg2 := submitN(t, co, 2)
	waitOpen(co, 2)
	closed := make(chan struct{})
	go func() {
		co.close()
		close(closed)
	}()
	if n := <-g.entered; n != 2 {
		t.Fatalf("close dispatched a window of %d, want 2", n)
	}
	select {
	case <-closed:
		t.Fatal("close returned before the window it dispatched had run")
	case <-time.After(2 * time.Millisecond):
	}
	g.release <- struct{}{}
	g.release <- struct{}{}
	<-closed
	wg.Wait()
	wg2.Wait()
	m := matrix.New[float64](1, 1)
	if err := co.submit(m, m, m); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close: %v, want ErrServerClosed", err)
	}
}
