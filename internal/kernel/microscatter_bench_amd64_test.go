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

// fringeBackends are the backends the fringe benchmarks time: every
// assembly backend the host registered for E.
func fringeBackends[E matrix.Element]() []Backend[E] {
	var out []Backend[E]
	for _, name := range []string{AVX2Backend, AVX512Backend} {
		if _, ok := ResolveNameFor(name, matrix.DtypeOf[E]()); ok {
			out = append(out, MustResolve[E](name))
		}
	}
	return out
}

// BenchmarkMicroScatterFringe times one MicroScatter call, one C term, on
// warm panels and a warm C tile, per tile shape: the full MR×NR tile, an
// n-fringe of NR−1 columns and one of NR/2−1, and an m-fringe of MR−1 rows,
// for float64 and float32 at kc 32, 96 and 192 on every assembly backend
// the host registered. ns/op is the call; a fringe tile's over the full
// tile's at one kc is what the fringe path costs. -benchtime 1x is the
// compile-and-run smoke.
func BenchmarkMicroScatterFringe(b *testing.B) {
	benchMicroScatterFringe[float64](b)
	benchMicroScatterFringe[float32](b)
}

func benchMicroScatterFringe[E matrix.Element](b *testing.B) {
	rng := rand.New(rand.NewSource(38))
	for _, bk := range fringeBackends[E]() {
		mr, nr := bk.MR(), bk.NR()
		for _, kc := range []int{32, 96, 192} {
			a, bm := matrix.New[E](mr, kc), matrix.New[E](kc, nr)
			a.FillRand(rng)
			bm.FillRand(rng)
			ap := make([]E, bk.PackABufLen(mr, kc))
			bp := make([]E, bk.PackBBufLen(kc, nr))
			bk.PackA(ap, SingleTerm(a), 0, 0, mr, kc)
			bk.PackB(bp, SingleTerm(bm), 0, 0, kc, nr)
			acc := make([]E, mr*nr)
			c := matrix.New[E](mr, 64)
			terms := []Term[E]{{Coef: 1, M: c}}
			for _, tile := range []struct {
				name   string
				tm, tn int
			}{{"full", mr, nr}, {"n-wide", mr, nr - 1}, {"n-half", mr, nr/2 - 1}, {"m", mr - 1, nr}} {
				name := fmt.Sprintf("%s/%s/kc%d/%s", bk.Name(), matrix.DtypeOf[E](), kc, tile.name)
				b.Run(name, func(b *testing.B) {
					for b.Loop() {
						bk.MicroScatter(kc, ap, bp, acc, terms, 0, 0, tile.tm, tile.tn)
					}
				})
			}
		}
	}
}

// BenchmarkPackFringe times one packing call of one term from a warm source
// of row stride 200, per panel kind: a full Ã panel (MR rows, kc columns),
// a fringe Ã panel (MR/2 rows), a full Ã panel with a k-tail (kc + 3
// columns), a full B̃ panel (NR columns) and a fringe B̃ panel (NR − 3), for
// float64 and float32 at kc 32, 96 and 192 on every assembly backend the
// host registered. ns/op is the call.
func BenchmarkPackFringe(b *testing.B) {
	benchPackFringe[float64](b)
	benchPackFringe[float32](b)
}

func benchPackFringe[E matrix.Element](b *testing.B) {
	rng := rand.New(rand.NewSource(39))
	src := matrix.New[E](200, 200)
	src.FillRand(rng)
	terms := SingleTerm(src)
	for _, bk := range fringeBackends[E]() {
		mr, nr := bk.MR(), bk.NR()
		for _, kc := range []int{32, 96, 192} {
			dst := make([]E, max(bk.PackABufLen(mr, kc+3), bk.PackBBufLen(kc, nr)))
			for _, p := range []struct {
				name string
				pack func()
			}{
				{"a-full", func() { bk.PackA(dst, terms, 0, 0, mr, kc) }},
				{"a-fringe", func() { bk.PackA(dst, terms, 0, 0, mr/2, kc) }},
				{"a-ktail", func() { bk.PackA(dst, terms, 0, 0, mr, kc+3) }},
				{"b-full", func() { bk.PackB(dst, terms, 0, 0, kc, nr) }},
				{"b-fringe", func() { bk.PackB(dst, terms, 0, 0, kc, nr-3) }},
			} {
				name := fmt.Sprintf("%s/%s/kc%d/%s", bk.Name(), matrix.DtypeOf[E](), kc, p.name)
				b.Run(name, func(b *testing.B) {
					for b.Loop() {
						p.pack()
					}
				})
			}
		}
	}
}
