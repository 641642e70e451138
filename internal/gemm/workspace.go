package gemm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/sched"
)

// Workspace holds the mutable per-call state of one FusedMulAdd execution:
// the shared B̃ packing buffer, and one Ã packing buffer and one MR×NR
// micro-tile accumulator per worker. A Workspace is rented from the Context's
// pool at the start of every multiplication and returned when it finishes, so
// a single Context can serve any number of concurrent callers while
// steady-state calls still allocate nothing.
// Buffer sizes and the accumulator tile derive from the configured backend's
// MR/NR, and buffer starts honor the backend's alignment requirement — a
// Workspace is only valid for the Context it was rented from and that
// context's Serial() view: the buffers are typed []E, so a float32 workspace
// can never be handed to a float64 call (the mixed-dtype pooling tests at
// the top layer pin this).
type Workspace[E matrix.Element] struct {
	bbuf  []E
	abufs [][]E // one Ã per worker
	accs  [][]E // one MR×NR accumulator tile per worker

	// ATerms, BTerms and CTerms are reusable operand lists for the renter: a
	// caller that assembles fused term lists many times per call (the FMM
	// executor's term loop) appends into these instead of allocating. They
	// hold views of the caller's matrices, so PutWorkspace clears them.
	ATerms, BTerms, CTerms []Term[E]

	// single holds MulAddWS's three one-term lists (C, A, B), so plain GEMM
	// allocates nothing per call; cleared with the lists above.
	single [3]Term[E]

	// next is the successor hint (SetNext): views of the operands the renter
	// multiplies after this call, prefetched under its micro-kernel calls;
	// cleared with the lists above.
	next successor[E]

	// The parallel branch's jobs live here, not on the heap of every (jc, pc)
	// block: slot w owns Ã buffer and accumulator w, packJobs[w].Run and
	// icJobs[w].Run are its packB and ic methods, bound once in newWorkspace,
	// and call holds the block in flight — written by packB/icLoop before the
	// hand-off to the pool, read by the slots, cleared with the lists above.
	// nextBlock deals the ic loop's MC row-blocks out to the slots.
	slots     []slot[E]
	packJobs  []sched.Job
	icJobs    []sched.Job
	call      blockCall[E]
	nextBlock atomic.Int64
}

// blockCall is one (jc, pc) block of a parallel FusedMulAddWS as its jobs see
// it: the context driving it, the operand lists, and the block's extents.
type blockCall[E matrix.Element] struct {
	ctx                    *Context[E]
	cTerms, aTerms, bTerms []Term[E]
	pc, jc, m, kcur, ncur  int
	nBlocks                int
}

// slot is one worker's share of a parallel block: its index into the
// workspace's per-worker buffers and, for B̃ packing, its panel range.
type slot[E matrix.Element] struct {
	ws     *Workspace[E]
	w      int
	lo, hi int
}

// packB packs the slot's B̃ panel range of the block in flight.
func (s *slot[E]) packB() {
	c := &s.ws.call
	c.ctx.bk.PackBRange(s.ws.bbuf, c.bTerms, c.pc, c.jc, c.kcur, c.ncur, s.lo, s.hi)
}

// ic claims MC row-blocks of the block in flight until none remain, running
// the macro-kernel on each with the slot's own Ã buffer and accumulator.
func (s *slot[E]) ic() {
	ws := s.ws
	c := &ws.call
	mc := c.ctx.cfg.MC
	for {
		b := int(ws.nextBlock.Add(1)) - 1
		if b >= c.nBlocks {
			return
		}
		ic := b * mc
		c.ctx.macroKernel(ws, ws.abufs[s.w], ws.accs[s.w], c.cTerms, c.aTerms, ic, c.pc, c.jc, min(mc, c.m-ic), c.kcur, c.ncur)
	}
}

// clearTerms zeroes the operand lists to their full capacity — entries past
// the current length are stale views from earlier, wider terms — and the
// successor hint, so a pooled workspace pins none of its last renter's
// matrices.
func (ws *Workspace[E]) clearTerms() {
	ws.ATerms = clearTermList(ws.ATerms)
	ws.BTerms = clearTermList(ws.BTerms)
	ws.CTerms = clearTermList(ws.CTerms)
	ws.single = [3]Term[E]{}
	ws.next = successor[E]{}
	ws.call = blockCall[E]{}
}

func clearTermList[E matrix.Element](l []Term[E]) []Term[E] {
	clear(l[:cap(l)])
	return l[:0]
}

// newWorkspace allocates packing buffers sized and aligned for cfg's backend
// at element type E.
func newWorkspace[E matrix.Element](cfg Config, bk kernel.Backend[E]) *Workspace[E] {
	align := bk.Align()
	ws := &Workspace[E]{
		bbuf:  alignedBuf[E](bk.PackBBufLen(cfg.KC, cfg.NC), align),
		abufs: make([][]E, cfg.Threads),
		accs:  make([][]E, cfg.Threads),
	}
	for i := range ws.abufs {
		ws.abufs[i] = alignedBuf[E](bk.PackABufLen(cfg.MC, cfg.KC), align)
		ws.accs[i] = alignedBuf[E](bk.MR()*bk.NR(), align)
	}
	if cfg.Threads > 1 {
		ws.slots = make([]slot[E], cfg.Threads)
		ws.packJobs = make([]sched.Job, cfg.Threads)
		ws.icJobs = make([]sched.Job, cfg.Threads)
		for w := range ws.slots {
			s := &ws.slots[w]
			s.ws, s.w = ws, w
			ws.packJobs[w].Run = s.packB
			ws.icJobs[w].Run = s.ic
		}
	}
	// Assert — not just compute — the backend's alignment contract on every
	// packed-panel start. A SIMD backend that declared Align and received a
	// misaligned panel would at best run slow and at worst fault on aligned
	// loads; catching the breach here, once per workspace construction, costs
	// a few pointer mods and names the offending buffer.
	assertAligned(ws.bbuf, align, "B̃")
	for i := range ws.abufs {
		assertAligned(ws.abufs[i], align, "Ã")
		assertAligned(ws.accs[i], align, "acc")
	}
	return ws
}

// assertAligned panics when a packed buffer's start violates the backend's
// element-granular alignment requirement — an internal invariant of
// alignedBuf, checked at workspace construction (never on the hot path).
func assertAligned[E matrix.Element](buf []E, align int, what string) {
	if align <= 1 || len(buf) == 0 {
		return
	}
	addr := uintptr(unsafe.Pointer(&buf[0]))
	if addr%(uintptr(align)*unsafe.Sizeof(buf[0])) != 0 {
		panic(fmt.Sprintf("gemm: %s packing buffer start %#x violates backend alignment of %d elements", what, addr, align))
	}
}

// alignedBuf returns a length-n element slice whose first element is aligned
// to align·sizeof(E) bytes, over-allocating by up to align−1 elements when
// needed. Pure-Go backends use align=1 (any); SIMD backends need their
// vector width in elements.
func alignedBuf[E matrix.Element](n, align int) []E {
	if align <= 1 || n == 0 {
		return make([]E, n)
	}
	buf := make([]E, n+align-1)
	size := unsafe.Sizeof(buf[0])
	rem := int((uintptr(unsafe.Pointer(&buf[0])) / size) % uintptr(align))
	off := 0
	if rem != 0 {
		off = align - rem
	}
	return buf[off : off+n : off+n]
}

// workspacePool is a bounded free list of Workspaces for one Context. Get
// falls back to allocating a fresh Workspace when the pool is empty, and Put
// drops the workspace (leaving it to the GC) when the pool already retains
// its bound — so concurrency is never limited by the pool, only the idle
// memory kept warm is.
//
// A plain sync.Pool would also work, but its retention policy is opaque
// (cleared on every GC cycle) and unbounded between cycles; a fixed-capacity
// channel gives a hard cap on retained packing memory, which matters because
// one Workspace is O(KC·NC + Threads·MC·KC) elements.
type workspacePool[E matrix.Element] struct {
	cfg  Config
	bk   kernel.Backend[E]
	free chan *Workspace[E]
}

// maxRetainedFloats caps each of the two idle stores a Context keeps warm —
// pooled workspaces and pooled scratch buffers — in elements (≈64 MiB of
// float64s, ≈32 MiB of float32s, each). Without it the retained packing
// memory would scale as O(Threads²): 2·Threads pooled workspaces, each
// holding Threads Ã buffers.
const (
	maxRetainedShift  = 23
	maxRetainedFloats = 1 << maxRetainedShift
)

// workspacePoolBound returns how many idle workspaces a context built on a
// pool of the given worker count retains. Simultaneous renters are bounded by
// that pool — callers + workers − 1 goroutines compute at once, whatever the
// fan-out of the plans above — so 2·workers lets a steady stream of
// concurrent callers recycle buffers instead of allocating, bounded so total
// retained packing memory stays under maxRetainedFloats on many-core
// machines. The bound may be 0 — when a single workspace already exceeds the
// cap, nothing is retained and every get allocates fresh (get and put handle
// an empty pool) — rather than silently keeping oversized workspaces alive
// past the documented cap.
func workspacePoolBound[E matrix.Element](cfg Config, bk kernel.Backend[E], workers int) int {
	per := bk.PackBBufLen(cfg.KC, cfg.NC) + cfg.Threads*bk.PackABufLen(cfg.MC, cfg.KC)
	n := 2 * workers
	if lim := maxRetainedFloats / per; n > lim {
		n = lim
	}
	return n
}

func newWorkspacePool[E matrix.Element](cfg Config, bk kernel.Backend[E], workers int) *workspacePool[E] {
	return &workspacePool[E]{cfg: cfg, bk: bk, free: make(chan *Workspace[E], workspacePoolBound(cfg, bk, workers))}
}

func (p *workspacePool[E]) alloc() *Workspace[E] { return newWorkspace[E](p.cfg, p.bk) }

func (p *workspacePool[E]) get() *Workspace[E] {
	select {
	case ws := <-p.free:
		return ws
	default:
		return p.alloc()
	}
}

func (p *workspacePool[E]) put(ws *Workspace[E]) {
	ws.clearTerms()
	select {
	case p.free <- ws:
	default: // pool full: drop, the GC reclaims it
	}
}

// scratch is a Context's one bounded free list of raw element buffers, behind
// RentMat/ReturnMat. Buffers come in power-of-two size classes, so a rent is
// one pop from its class — no search, and a class never holds more buffers
// than were once rented from it simultaneously. A return that would take the
// retained total past maxRetainedFloats is dropped for the GC, as is any
// buffer larger than that (those are allocated exactly and never pooled).
type scratch[E matrix.Element] struct {
	mu   sync.Mutex
	free [scratchClasses][][]E // free[c] holds buffers of capacity 1<<(c+scratchMinShift)
	held int                   // Σ capacity over free
}

// scratchMinShift sets the smallest size class (64 elements): rounding tiny
// rents up bounds the number of retained buffers by maxRetainedFloats>>6.
const (
	scratchMinShift = 6
	scratchClasses  = maxRetainedShift - scratchMinShift + 1
)

// scratchClass returns the size class of an n-element buffer; classes at or
// past scratchClasses are oversized.
func scratchClass(n int) int {
	return max(bits.Len(uint(n-1))-scratchMinShift, 0)
}

func (s *scratch[E]) rent(n int) []E {
	c := scratchClass(n)
	if c >= scratchClasses {
		return make([]E, n)
	}
	var buf []E
	s.mu.Lock()
	if l := s.free[c]; len(l) > 0 {
		buf, l[len(l)-1] = l[len(l)-1], nil
		s.free[c] = l[:len(l)-1]
		s.held -= cap(buf)
	}
	s.mu.Unlock()
	if buf == nil {
		buf = make([]E, 1<<(c+scratchMinShift))
	}
	return buf[:n]
}

func (s *scratch[E]) put(buf []E) {
	c := scratchClass(cap(buf))
	if c >= scratchClasses || cap(buf) != 1<<(c+scratchMinShift) {
		return // oversized, or not a buffer rent handed out
	}
	s.mu.Lock()
	if s.held+cap(buf) <= maxRetainedFloats {
		s.free[c] = append(s.free[c], buf[:cap(buf)])
		s.held += cap(buf)
	}
	s.mu.Unlock()
}
