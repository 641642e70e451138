package gemm

import (
	"unsafe"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

// prefetchBudget is the largest successor, in bytes of its three operand
// ranges, that a width-1 call prefetches (Workspace.SetNext); a larger one
// gets no prefetch at all. It is sized by measurement, on a 2-vCPU AMD EPYC
// host (1 MiB L2 per core, 32 MiB L3) running batches of n³ float64 GEMM
// jobs at width 1 over 96 MiB of operands, prefetch on against off: +16–24 %
// at 216 KiB successors, +4–6 % at 864 KiB, +1–3 % at 1.2–1.9 MiB, nothing
// at 2.4–2.9 MiB, and −1 to −3 % from 3.4 MiB on, where the successor's lines
// evict the running call's own panels and C before it is done with them.
// Every job of a 16…192 batch fits (192³ float64 is 864 KiB).
const prefetchBudget = 2 << 20

// cacheLine is the line size Prefetch spreads in.
const cacheLine = 64

// Operands names one product's C, A and B: what a successor hint carries.
type Operands[E matrix.Element] struct {
	C, A, B matrix.Mat[E]
}

// successor is a workspace's hint (Workspace.SetNext): the element ranges of
// the operands its renter multiplies after the current call, in the order A,
// B, C, and — while a width-1 call is armed with it — how many elements to
// prefetch after each micro-kernel call. A range shrinks from the front as it
// is prefetched, so a hint is spent once.
type successor[E matrix.Element] struct {
	spans [3][]E
	step  int
}

// span returns the elements a view's rows occupy, from its first element to
// its last (gaps between rows included); empty for an empty view. Indexing
// both ends is the bounds proof for the prefetch of the range.
func span[E matrix.Element](m matrix.Mat[E]) []E {
	if m.Rows == 0 || m.Cols == 0 {
		return nil
	}
	last := (m.Rows-1)*m.Stride + m.Cols - 1
	_, _ = m.Data[0], m.Data[last]
	return m.Data[:last+1]
}

// SetNext names the operands this workspace's renter multiplies next, so that
// its next width-1 FusedMulAddWS spreads their cache lines over its own
// micro-kernel calls (see arm). A successor over prefetchBudget bytes, or an
// empty one, clears the hint. Wide calls ignore it: their worker slots share
// no cursor. Prefetching never enters the arithmetic, so results are the
// same bits with or without a hint; PutWorkspace clears it.
func (ws *Workspace[E]) SetNext(next Operands[E]) {
	s := successor[E]{spans: [3][]E{span(next.A), span(next.B), span(next.C)}}
	if n := len(s.spans[0]) + len(s.spans[1]) + len(s.spans[2]); n*int(unsafe.Sizeof(E(0))) > prefetchBudget {
		s = successor[E]{}
	}
	ws.next = s
}

// arm sets the per-call step of an m×k×n width-1 call: the hint's cache lines
// divided evenly over the call's micro-kernel calls, rounded up. The count
// ⌈k/KC⌉·⌈m/MR⌉·⌈n/NR⌉ never exceeds the calls macroKernel makes, so the
// hint is spent by the end of the call.
func (s *successor[E]) arm(m, k, n, kc, mr, nr int) {
	size := int(unsafe.Sizeof(E(0)))
	lines := 0
	for _, sp := range s.spans {
		lines += (len(sp)*size + cacheLine - 1) / cacheLine
	}
	calls := ((k + kc - 1) / kc) * ((m + mr - 1) / mr) * ((n + nr - 1) / nr)
	s.step = (lines + calls - 1) / calls * (cacheLine / size)
}

// advance prefetches the next step elements of the hint.
//
//fmm:hotpath
func (s *successor[E]) advance() {
	n := s.step
	for i := range s.spans {
		sp := s.spans[i]
		if len(sp) == 0 {
			continue
		}
		take := min(n, len(sp))
		kernel.Prefetch(sp[:take])
		s.spans[i] = sp[take:]
		if n -= take; n == 0 {
			return
		}
	}
}
