package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fmmfam"
	"fmmfam/internal/matrix"
)

// ErrServerClosed is reported for work submitted after shutdown began.
var ErrServerClosed = errors.New("serve: server closed")

// coalesceSizeLimit is the threshold below which a multiply request is
// coalesced instead of dispatched directly: requests with max(m,k,n) ≤ this
// join a window and ship as one MulAddBatch. 128 keeps coalescing to the
// regime where per-call overhead (HTTP handling, plan-cache lookup, pool
// dispatch) is comparable to the product itself — the small-matrix
// ML-inference traffic the batch path amortizes — while anything larger
// goes straight to MulAdd, whose auto-sharding and intra-plan parallelism
// want the whole worker pool, not a single-threaded batch slot.
const coalesceSizeLimit = 128

// coalescer group-commits small multiply requests: while the engine is idle
// a request runs at once, as a window of one; requests that arrive while a
// window is running collect in the one open window, which is dispatched as a
// single MulAddBatch — amortizing plan lookup and pool scheduling across it —
// as soon as a running window completes, when CoalesceMaxJobs requests have
// joined, or when ServeParams.CoalesceWindow has passed since it opened,
// whichever comes first. The hold is therefore never pure waiting: a window
// stays open only while earlier work occupies the engine, and CoalesceWindow
// is the upper bound of the hold, not its length.
//
// No dedicated dispatcher goroutine exists. Whatever closes a window — a
// completing window, the submitter that fills it, the timer callback, close —
// only detaches it and signals its first submitter, which runs the batch;
// every other waiter blocks on the window's done channel. A window of one
// runs on its submitter without either channel.
//
// Results do not depend on how requests were grouped: every job of a batch
// runs on the engine's serial twin, so a request's bits are those of a
// direct MulAddBatch of that request alone.
//
// Error granularity is per window: MulAddBatch joins per-job errors, and
// the join is reported to every waiter of the window. Requests are
// dimension-checked at decode time, so a window error is systemic (an
// invalid engine config), not one job's bad input taking out its
// neighbours.
type coalescer[E matrix.Element] struct {
	batch   func([]fmmfam.GenericBatchJob[E]) error // the engine's MulAddBatch
	window  time.Duration
	maxJobs int

	mtx     sync.Mutex
	closed  bool
	running int                // windows dispatched and not yet complete
	open    *coalesceWindow[E] // the accepting window, nil when none

	// Observability counters, read by Stats.
	batches      atomic.Uint64 // windows dispatched
	jobs         atomic.Uint64 // requests that went through a window
	sizeFlushes  atomic.Uint64 // windows flushed by reaching maxJobs
	timerFlushes atomic.Uint64 // windows flushed by the timer
	idleFlushes  atomic.Uint64 // windows flushed because the engine had room: run at once, or released by a completing window
}

// coalesceWindow is one batch in the making: its jobs, the timer bounding
// the hold, the start signal its first submitter waits for and the done
// channel the others block on. err is written once before done is closed.
type coalesceWindow[E matrix.Element] struct {
	jobs  []fmmfam.GenericBatchJob[E]
	timer *time.Timer
	start chan struct{}
	done  chan struct{}
	err   error
}

func newCoalescer[E matrix.Element](mul *fmmfam.GenericMultiplier[E], p fmmfam.ServeParams) *coalescer[E] {
	return &coalescer[E]{batch: mul.MulAddBatch, window: p.CoalesceWindow, maxJobs: p.CoalesceMaxJobs}
}

// submit computes c += a·b through a window and blocks until that window's
// batch has executed: at once when nothing is open or running, otherwise as
// part of the open window (opening one if needed). A window is detached from
// co.open exactly once, under the lock, by whichever cause closes it first;
// the causes that lose find co.open changed and stand down.
func (co *coalescer[E]) submit(c, a, b matrix.Mat[E]) error {
	job := fmmfam.GenericBatchJob[E]{C: c, A: a, B: b}
	co.mtx.Lock()
	if co.closed {
		co.mtx.Unlock()
		return ErrServerClosed
	}
	if co.open == nil && co.running == 0 {
		co.running++
		co.mtx.Unlock()
		co.idleFlushes.Add(1)
		return co.run([]fmmfam.GenericBatchJob[E]{job})
	}
	w := co.open
	first := w == nil
	if first {
		w = &coalesceWindow[E]{start: make(chan struct{}), done: make(chan struct{})}
		w.timer = time.AfterFunc(co.window, func() { co.flush(w, &co.timerFlushes) })
		co.open = w
	}
	w.jobs = append(w.jobs, job)
	full := len(w.jobs) >= co.maxJobs
	co.mtx.Unlock()
	if full {
		co.flush(w, &co.sizeFlushes)
	}
	if !first {
		<-w.done
		return w.err
	}
	<-w.start
	w.err = co.run(w.jobs)
	close(w.done)
	return w.err
}

// flush detaches w if it is still the accepting window, counts the cause
// (nil: shutdown, counted by none) and signals its first submitter to run
// it. When another cause detached it first, that cause owns the flush and
// this call stands down.
func (co *coalescer[E]) flush(w *coalesceWindow[E], cause *atomic.Uint64) {
	co.mtx.Lock()
	if co.open != w {
		co.mtx.Unlock()
		return
	}
	co.open = nil
	co.running++
	co.mtx.Unlock()
	w.timer.Stop()
	if cause != nil {
		cause.Add(1)
	}
	close(w.start)
}

// run executes one dispatched window on the calling goroutine, then releases
// the window that collected behind it, if any.
func (co *coalescer[E]) run(jobs []fmmfam.GenericBatchJob[E]) error {
	err := co.batch(jobs)
	co.batches.Add(1)
	co.jobs.Add(uint64(len(jobs)))
	co.mtx.Lock()
	co.running--
	w := co.open
	co.mtx.Unlock()
	if w != nil {
		co.flush(w, &co.idleFlushes)
	}
	return err
}

// close dispatches the open window (its waiters complete normally), waits
// for it, and fails all later submits with ErrServerClosed. Idempotent.
func (co *coalescer[E]) close() {
	co.mtx.Lock()
	co.closed = true
	w := co.open
	co.mtx.Unlock()
	if w != nil {
		co.flush(w, nil)
		<-w.done
	}
}

// snapshot reads the counters for Stats.
func (co *coalescer[E]) snapshot() CoalesceStats {
	return CoalesceStats{
		Enabled:      true,
		WindowNS:     co.window.Nanoseconds(),
		MaxJobs:      co.maxJobs,
		Batches:      co.batches.Load(),
		Jobs:         co.jobs.Load(),
		SizeFlushes:  co.sizeFlushes.Load(),
		TimerFlushes: co.timerFlushes.Load(),
		IdleFlushes:  co.idleFlushes.Load(),
	}
}
