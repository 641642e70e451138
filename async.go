package fmmfam

// Async serving: MulAddAsync submits one C += A·B to a bounded queue and
// returns a Future immediately, so latency-insensitive callers submit many
// products and collect results when they need them. The queue bound is the
// backpressure: when QueueDepth jobs are waiting, submitters block until a
// drainer frees a slot, so a burst of traffic cannot queue unbounded work.
// The queue is only a queue: its Threads drainers are ordinary callers of
// the multiplier (each job runs its width-1 plan, as a MulAddBatch job
// does) and schedule nothing themselves. Each multiplier instantiation
// (float64 or float32) owns its own queue.

import (
	"errors"
	"sync"

	"fmmfam/internal/matrix"
)

// ErrClosed is reported by futures submitted after Close.
var ErrClosed = errors.New("fmmfam: multiplier closed")

// Future is the handle to one in-flight MulAddAsync submission. The zero
// Future is invalid; futures are created by MulAddAsync only.
type Future struct {
	done chan struct{}
	err  error // written once by the executing worker before done is closed
}

// Wait blocks until the submission has executed and returns its error.
// Wait may be called any number of times and from any goroutine.
func (f *Future) Wait() error {
	<-f.done
	return f.err
}

// Done returns a channel closed when the submission has executed, for use
// in select loops. After Done is closed, Wait returns without blocking.
func (f *Future) Done() <-chan struct{} { return f.done }

func resolvedFuture(err error) *Future {
	f := &Future{done: make(chan struct{}), err: err}
	close(f.done)
	return f
}

// asyncJob is one queued submission.
type asyncJob[E matrix.Element] struct {
	c, a, b matrix.Mat[E]
	f       *Future
}

// asyncQueue is the bounded queue behind MulAddAsync; its channel and
// drainers start with the first submission. The RWMutex orders submissions
// against Close: submitters hold the read lock across the channel send,
// Close takes the write lock to flip closed and close the queue, so a send
// never races a close.
type asyncQueue[E matrix.Element] struct {
	start sync.Once
	q     chan asyncJob[E] // nil until the first submission
	wg    sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// startAsync makes the QueueDepth-bounded channel and starts the Threads
// drainers — the library's only goroutines outside internal/sched: a drainer
// waits on the queue, which a pool job cannot do.
func (mu *GenericMultiplier[E]) startAsync() {
	p := &mu.async
	p.q = make(chan asyncJob[E], mu.cfg.queueDepth())
	p.wg.Add(mu.cfg.Threads)
	for w := 0; w < mu.cfg.Threads; w++ {
		go func() { //fmm:go-ok queue drainer: blocks on the channel until Close, computes only through mulAdd
			defer p.wg.Done()
			for j := range p.q {
				j.f.err = mu.mulAdd(j.c, j.a, j.b, 1)
				close(j.f.done)
			}
		}()
	}
}

// MulAddAsync submits c += a·b to the multiplier's bounded queue and returns
// a Future immediately; call Wait (or select on Done) to collect the result.
// Submissions block when the queue is full — that bound is the serving
// layer's backpressure. Dimension errors resolve the returned Future
// immediately without occupying a queue slot. The caller must not touch c
// (nor mutate a or b) until the Future completes. Safe for concurrent
// submitters.
func (mu *GenericMultiplier[E]) MulAddAsync(c, a, b matrix.Mat[E]) *Future {
	if mu.cfgErr != nil {
		return resolvedFuture(mu.cfgErr)
	}
	if err := checkMulDims(c, a, b); err != nil {
		return resolvedFuture(err)
	}
	p := &mu.async
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return resolvedFuture(ErrClosed)
	}
	p.start.Do(mu.startAsync)
	f := &Future{done: make(chan struct{})}
	p.q <- asyncJob[E]{c: c, a: a, b: b, f: f}
	return f
}

// Close drains the async queue and stops its drainers: it waits for every
// already-submitted Future to complete, then returns. Submissions after
// Close resolve immediately with ErrClosed — including on a multiplier
// whose async path was never used, which Close only marks closed (nothing
// was started, so there is nothing to stop). Close is idempotent and safe to
// call concurrently with MulAddAsync submitters and with other Close calls:
// the queue's RWMutex orders every submission against the close, so each
// racing Future either executes and resolves normally or resolves with
// ErrClosed — never hangs or panics on a closed queue — and no drainer
// outlives Close. The synchronous MulAdd/MulAddBatch paths are unaffected
// and remain usable after Close.
func (mu *GenericMultiplier[E]) Close() error {
	p := &mu.async
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		if p.q != nil {
			close(p.q)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}
