package serve

import (
	"sync/atomic"
	"time"

	"fmmfam"
)

// histBuckets is the per-endpoint latency histogram resolution: bucket i
// counts requests that completed in under 1µs·2^i, so the 28 buckets span
// 1µs … ~134s logarithmically (the last bucket is the catch-all). Log₂
// buckets cost one bit-scan per observation and are plenty for serving
// dashboards — the interesting signal is "did p99 move a bucket", not
// microsecond precision.
const histBuckets = 28

// histogram is a lock-free fixed-bucket latency histogram. The zero value
// is ready to use.
type histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// observe records one request latency.
func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(uint64(ns))
	b := 0
	for us := ns / 1e3; us > 0 && b < histBuckets-1; us >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
}

// HistogramSnapshot is one endpoint's latency distribution at a point in
// time.
type HistogramSnapshot struct {
	// Count and SumNS are the request count and summed latency (ns); their
	// ratio is the mean.
	Count uint64
	SumNS uint64
	// Buckets[i] counts requests under UpperUS[i] microseconds (the last
	// bucket is the catch-all for everything slower).
	UpperUS []int64
	Buckets []uint64
}

// Quantile returns an upper bound on the q-quantile latency (q in [0, 1])
// from the bucket counts: the upper edge of the bucket where the q·Count-th
// request landed. Zero when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen > rank {
			return time.Duration(s.UpperUS[i]) * time.Microsecond
		}
	}
	return time.Duration(s.UpperUS[len(s.UpperUS)-1]) * time.Microsecond
}

// snapshot copies the histogram. The reads are individually atomic but not
// mutually consistent — fine for observability, same contract as
// Multiplier.Stats.
func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		SumNS:   h.sumNS.Load(),
		UpperUS: make([]int64, histBuckets),
		Buckets: make([]uint64, histBuckets),
	}
	for i := range s.Buckets {
		s.UpperUS[i] = int64(1) << i
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// CoalesceStats is the coalescing layer's observable state for one element
// type.
type CoalesceStats struct {
	// Enabled reports whether coalescing is on (CoalesceWindow > 0).
	Enabled bool
	// WindowNS and MaxJobs are the resolved knobs.
	WindowNS int64
	MaxJobs  int
	// Batches and Jobs count dispatched windows and the requests they
	// carried; Jobs/Batches is the realized amortization factor.
	Batches uint64
	Jobs    uint64
	// SizeFlushes, TimerFlushes and IdleFlushes split Batches by what
	// dispatched the window: CoalesceMaxJobs reached, CoalesceWindow passed,
	// or the engine had room — the request found nothing running and ran at
	// once as a window of one, or a running window completed and released
	// the one that had collected behind it.
	SizeFlushes  uint64
	TimerFlushes uint64
	IdleFlushes  uint64
}

// AdmissionStats is the admission gate's observable state.
type AdmissionStats struct {
	// Depth is the resolved in-flight bound.
	Depth int
	// Admitted and Rejected count requests that acquired a slot vs were
	// refused with 429.
	Admitted uint64
	Rejected uint64
	// InFlight is the point-in-time occupied slot count.
	InFlight int
}

// Stats is the /v1/stats response: serving-layer counters plus both
// engines' Multiplier.Stats.
type Stats struct {
	// Completed and Errors count finished requests by outcome across all
	// compute endpoints (an admission rejection counts as neither — see
	// Admission.Rejected).
	Completed uint64
	Errors    uint64
	// Endpoints maps endpoint name (multiply, batch, async-submit,
	// async-collect) to its latency histogram.
	Endpoints map[string]HistogramSnapshot
	// Coalesce64 and Coalesce32 are the per-dtype coalescing layers.
	Coalesce64 CoalesceStats
	Coalesce32 CoalesceStats
	// Admission is the shared admission gate.
	Admission AdmissionStats
	// AsyncPending counts submitted-but-uncollected async results held by
	// the server.
	AsyncPending int
	// Multiplier and Multiplier32 are the engines' own observability
	// surfaces (resolved kernel backend, plan cache, autotune arms,
	// promotions).
	Multiplier   fmmfam.MultiplierStats
	Multiplier32 fmmfam.MultiplierStats
	// CPU and Kernels report the host's dispatch-relevant CPU features and
	// every known micro-kernel backend's availability (with the reason when
	// one could not register — e.g. avx2 without AVX2+FMA hardware), so
	// operators can see at a glance whether the assembly backend is actually
	// in use and why not when it isn't.
	CPU     fmmfam.CPUInfo
	Kernels []fmmfam.KernelStatus
}
