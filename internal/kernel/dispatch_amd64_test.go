//go:build amd64 && !purego

package kernel

import (
	"math"
	"math/rand"
	"testing"

	"fmmfam/internal/matrix"
)

// TestAVX2RegistrationMatchesProbe: on amd64 assembly builds, avx2 is
// registered for both dtypes exactly when the CPUID probe reports AVX2+FMA
// with OS-enabled YMM state, and carries an explanatory reason otherwise.
func TestAVX2RegistrationMatchesProbe(t *testing.T) {
	checkRegistrationMatchesProbe(t, AVX2Backend, HostCPU().AVX2)
}

// TestAVX512RegistrationMatchesProbe: likewise avx512, against the AVX-512F
// + ZMM-state probe.
func TestAVX512RegistrationMatchesProbe(t *testing.T) {
	checkRegistrationMatchesProbe(t, AVX512Backend, HostCPU().AVX512)
}

func checkRegistrationMatchesProbe(t *testing.T, name string, probed bool) {
	if HostCPU().PureGo {
		t.Fatal("PureGo reported on an amd64 assembly build")
	}
	for _, d := range []matrix.Dtype{matrix.Float64, matrix.Float32} {
		_, registered := ResolveNameFor(name, d)
		if registered != probed {
			t.Fatalf("%s registered=%v for %s but the probe says %v (%+v)", name, registered, d, probed, HostCPU())
		}
	}
	if !probed && UnavailableReason(name) == "" {
		t.Fatalf("%s unregistered on amd64 without a recorded reason", name)
	}
}

// TestAVX2TileShape pins the row-major register blocking on hosts that have
// the backend: 6×8 float64 and 6×16 float32 tiles — six broadcast rows by one
// 64-byte row of C — and 32-byte alignment.
func TestAVX2TileShape(t *testing.T) {
	if !HostCPU().AVX2 {
		t.Skip("host lacks AVX2+FMA")
	}
	checkTileShape(t, AVX2Backend, 8, 4, 16, 8)
}

// TestAVX512TileShape: 6×16 float64 and 6×32 float32 tiles — one 128-byte row
// of C — and 64-byte alignment.
func TestAVX512TileShape(t *testing.T) {
	if !HostCPU().AVX512 {
		t.Skip("host lacks AVX-512F")
	}
	checkTileShape(t, AVX512Backend, 16, 8, 32, 16)
}

func checkTileShape(t *testing.T, name string, nr64, align64, nr32, align32 int) {
	b64 := MustResolve[float64](name)
	if b64.MR() != 6 || b64.NR() != nr64 || b64.Align() != align64 {
		t.Fatalf("%s float64 tile = %d×%d align %d, want 6×%d align %d", name, b64.MR(), b64.NR(), b64.Align(), nr64, align64)
	}
	b32 := MustResolve[float32](name)
	if b32.MR() != 6 || b32.NR() != nr32 || b32.Align() != align32 {
		t.Fatalf("%s float32 tile = %d×%d align %d, want 6×%d align %d", name, b32.MR(), b32.NR(), b32.Align(), nr32, align32)
	}
}

// TestAVX2PackersMatchGeneric and TestAVX512PackersMatchGeneric hold the
// assembly packers to their oracle: whatever mix of assembly (full panels,
// whole transpose steps) and generic code (fringe panel, k-tail) writes a
// packed buffer, every element carries exactly the bits
// packAGeneric/packBGeneric produce — including the signs of zeros, which is
// where "copy the first term" and "accumulate from +0" differ.
func TestAVX2PackersMatchGeneric(t *testing.T) {
	if !HostCPU().AVX2 {
		t.Skip("host lacks AVX2+FMA")
	}
	t.Run("float64", func(t *testing.T) { checkPackersMatchGeneric[float64](t, avx2F64{}) })
	t.Run("float32", func(t *testing.T) { checkPackersMatchGeneric[float32](t, avx2F32{}) })
}

func TestAVX512PackersMatchGeneric(t *testing.T) {
	if !HostCPU().AVX512 {
		t.Skip("host lacks AVX-512F")
	}
	t.Run("float64", func(t *testing.T) { checkPackersMatchGeneric[float64](t, avx512F64{}) })
	t.Run("float32", func(t *testing.T) { checkPackersMatchGeneric[float32](t, avx512F32{}) })
}

func checkPackersMatchGeneric[E matrix.Element](t *testing.T, bk Backend[E]) {
	mr, nr := bk.MR(), bk.NR()
	rng := rand.New(rand.NewSource(17))
	// Coefficient lists, 1…4 terms: a leading 1 (the copied term), a leading
	// −1 and a leading fraction (from +0), zeros in every position (skipped,
	// and a zero first term makes a later coefficient-1 term accumulate), and
	// cancelling pairs that produce −0 + +0 and x − x.
	coefLists := [][]E{
		{1}, {-1}, {0.5}, {0},
		{1, 1}, {1, -1}, {-1, 1}, {0, 1}, {1, 0}, {0, 0},
		{1, -0.5, 2}, {0, -1, 0.25}, {-0.5, 0, 1},
		{1, -1, 1, -1}, {0.25, 0, 0, -2}, {0, 0, 0, 1},
	}
	const r0, c0 = 3, 5 // the packed block is an interior view of each source
	equal := func(got, want []E) int {
		for i := range want {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
				return i
			}
		}
		return -1
	}
	for _, kc := range []int{1, 3, 4, 5, 255, 256} {
		for _, blk := range []int{1, mr - 1, mr, 2*mr + 1, 5 * mr, nr - 1, nr, 3*nr + 2, 4 * nr} {
			for _, coefs := range coefLists {
				// Sources mix ordinary values with ±0 so the sign rules show.
				mk := func(rows, cols int) []Term[E] {
					terms := make([]Term[E], len(coefs))
					for i, c := range coefs {
						m := matrix.New[E](rows+r0+2, cols+c0+3)
						m.FillRand(rng)
						for j := range m.Data {
							switch rng.Intn(8) {
							case 0:
								m.Data[j] = 0
							case 1:
								m.Data[j] = E(math.Copysign(0, -1))
							}
						}
						terms[i] = Term[E]{Coef: c, M: m}
					}
					// The second term repeats the first's data, so ±1 pairs
					// cancel exactly.
					if len(terms) > 1 {
						copy(terms[1].M.Data, terms[0].M.Data)
					}
					return terms
				}
				poison := func(n int) []E {
					buf := make([]E, n)
					for i := range buf {
						buf[i] = E(math.NaN())
					}
					return buf
				}

				aTerms := mk(blk, kc)
				got, want := poison(bk.PackABufLen(blk, kc)), poison(bk.PackABufLen(blk, kc))
				if n := bk.PackA(got, aTerms, r0, c0, blk, kc); n != len(got) {
					t.Fatalf("PackA(mc=%d,kc=%d) wrote %d, want %d", blk, kc, n, len(got))
				}
				packAGeneric(mr, want, aTerms, r0, c0, blk, kc)
				if i := equal(got, want); i >= 0 {
					t.Fatalf("PackA mc=%d kc=%d coefs=%v: element %d = %v, generic %v", blk, kc, coefs, i, got[i], want[i])
				}

				bTerms := mk(kc, blk)
				got, want = poison(bk.PackBBufLen(kc, blk)), poison(bk.PackBBufLen(kc, blk))
				if n := bk.PackB(got, bTerms, r0, c0, kc, blk); n != len(got) {
					t.Fatalf("PackB(kc=%d,nc=%d) wrote %d, want %d", kc, blk, n, len(got))
				}
				packBGeneric(nr, want, bTerms, r0, c0, kc, blk)
				if i := equal(got, want); i >= 0 {
					t.Fatalf("PackB kc=%d nc=%d coefs=%v: element %d = %v, generic %v", kc, blk, coefs, i, got[i], want[i])
				}
				// Panel ranges in uneven chunks cover the same buffer.
				got = poison(len(want))
				panels := (blk + nr - 1) / nr
				for lo := 0; lo < panels; {
					hi := min(lo+1+lo%2, panels)
					bk.PackBRange(got, bTerms, r0, c0, kc, blk, lo, hi)
					lo = hi
				}
				if i := equal(got, want); i >= 0 {
					t.Fatalf("PackBRange kc=%d nc=%d coefs=%v: element %d = %v, generic %v", kc, blk, coefs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFusedSegTrips pins the fused kernels' prefetch schedule. The assembly
// runs n segments — n−1 of fusedSegTrips(kc, n) four-step trips, then one of
// whatever is left — so the rule is sound when those n−1 never outrun the
// kc/4 trips there are and the last segment is not the short one (its term's
// tile has had the least time to arrive); and one term is one segment, the
// whole loop, which keeps plain GEMM on the unsegmented sequence.
func TestFusedSegTrips(t *testing.T) {
	for kc := 1; kc <= 1024; kc++ {
		trips := kc / 4
		if got := fusedSegTrips(kc, 1); got != trips {
			t.Fatalf("fusedSegTrips(%d, 1) = %d, want the whole loop, %d", kc, got, trips)
		}
		for n := 2; n <= MaxFusedTerms; n++ {
			seg := fusedSegTrips(kc, n)
			if want := min(fusedSegCap, trips/n); seg != want {
				t.Fatalf("fusedSegTrips(%d, %d) = %d, want %d", kc, n, seg, want)
			}
			// Replay RANK_KC_PREFETCH_C's counters.
			left := trips
			for segs := n; segs > 0; segs-- {
				run := seg
				if segs == 1 {
					run = left
				}
				if run < seg || run > left {
					t.Fatalf("kc=%d n=%d: segment of %d trips with %d left (seg %d)", kc, n, run, left, seg)
				}
				left -= run
			}
			if left != 0 {
				t.Fatalf("kc=%d n=%d: %d of %d trips never run", kc, n, left, trips)
			}
		}
	}
}
