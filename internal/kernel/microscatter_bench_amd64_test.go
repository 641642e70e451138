//go:build amd64 && !purego

package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fmmfam/internal/matrix"
)

// BenchmarkMicroScatterTerms is the layer probe for the fused micro-kernel's
// C walk: it replays the macro-kernel's sweep — a packed 96 × 256 Ã block
// against a packed 256 × 1024 B̃ block, one MicroScatter call per tile, over
// ten ic-blocks — with 1, 2 and 4 C terms that are quadrants of one 2048-row
// host, as an FMM plan's are, on every float64 assembly backend the host
// registered (avx2's 6×8 tile, avx512's 6×16). The host's row stride is the
// axis that matters: at 2048 and 2064 doubles (a multiple of 128 bytes) every
// row of every term's tile lies in the same half of its 128-byte line pair,
// at 2056 (an odd multiple of 64 bytes) the rows alternate halves — for a
// 64-byte avx2 tile row; a 128-byte avx512 row is one whole line pair at 2048
// and 2064, and at 2056 every other row straddles two. What a second and a fourth
// term cost over one, per stride and backend, is what the kernels' prefetch
// schedule (avx2_amd64.s, shared by avx512_amd64.s) decides.
//
// Host noise moves a configuration by more than the differences of interest
// when each is timed in its own stretch of the run, so one iteration is one
// round-robin pass over all of them, every ic-block (about a millisecond) is
// a sample, and each configuration reports the best and the median of its
// 10·b.N samples in GFLOP/s. The host's clock state still moves all of them
// together between runs: read a run's ratios (two terms over one at one
// stride and backend), not its numbers against another run's. -benchtime 1x
// is the compile-and-run smoke; 20x or more is a measurement.
func BenchmarkMicroScatterTerms(b *testing.B) {
	const (
		mc, kc, nc = 96, 256, 1024
		hostRows   = 2048
		half       = hostRows / 2
		blocks     = 10
		flops      = 2.0 * mc * kc * nc // per ic-block
	)
	var backends []Backend[float64]
	for _, name := range []string{AVX2Backend, AVX512Backend} {
		if _, ok := ResolveNameFor(name, matrix.Float64); ok {
			backends = append(backends, MustResolve[float64](name))
		}
	}
	if len(backends) == 0 {
		b.Skip("host lacks AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(24))
	a, bm := matrix.New[float64](mc, kc), matrix.New[float64](kc, nc)
	a.FillRand(rng)
	bm.FillRand(rng)

	type config struct {
		name       string
		bk         Backend[float64]
		abuf, bbuf []float64
		terms      []Term[float64]
		samples    []float64 // GFLOP/s, one per ic-block per round
	}
	var configs []*config
	for _, bk := range backends {
		abuf := make([]float64, bk.PackABufLen(mc, kc))
		bbuf := make([]float64, bk.PackBBufLen(kc, nc))
		bk.PackA(abuf, SingleTerm(a), 0, 0, mc, kc)
		bk.PackB(bbuf, SingleTerm(bm), 0, 0, kc, nc)
		for _, stride := range []int{2048, 2056, 2064} {
			host := matrix.New[float64](hostRows, stride)
			host.Fill(1) // touch every page before the clock starts
			quadrants := []Term[float64]{
				{Coef: 1, M: host.View(0, 0, half, half)},
				{Coef: -1, M: host.View(half, half, half, half)},
				{Coef: 1, M: host.View(0, half, half, half)},
				{Coef: -1, M: host.View(half, 0, half, half)},
			}
			for _, n := range []int{1, 2, 4} {
				configs = append(configs, &config{
					name: fmt.Sprintf("%s/s%d/t%d", bk.Name(), stride, n),
					bk:   bk, abuf: abuf, bbuf: bbuf, terms: quadrants[:n],
				})
			}
		}
	}

	b.ResetTimer()
	for round := 0; round < b.N; round++ {
		for _, c := range configs {
			mr, nr := c.bk.MR(), c.bk.NR()
			acc := make([]float64, mr*nr)
			for ic := 0; ic < blocks*mc; ic += mc {
				start := time.Now()
				for jr := 0; jr < nc; jr += nr {
					bp := c.bbuf[(jr/nr)*kc*nr:]
					for ir := 0; ir < mc; ir += mr {
						c.bk.MicroScatter(kc, c.abuf[ir*kc:], bp, acc, c.terms, ic+ir, jr, mr, nr)
					}
				}
				c.samples = append(c.samples, flops/float64(time.Since(start).Nanoseconds()))
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(0, "ns/op") // a round mixes every configuration; its mean says nothing
	for _, c := range configs {
		slices.Sort(c.samples)
		b.ReportMetric(c.samples[len(c.samples)-1], c.name+"-best-GF/s")
		b.ReportMetric(c.samples[len(c.samples)/2], c.name+"-med-GF/s")
	}
}
