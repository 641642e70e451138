package gemm

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
)

// TestSpanRange pins a view's prefetch range: first element to last, gaps
// between rows included, empty for an empty view — and indexing both ends
// never trips on a view that ends at its backing slice's last element.
func TestSpanRange(t *testing.T) {
	host := matrix.New[float64](5, 7)
	for _, tc := range []struct {
		name  string
		m     matrix.Mat[float64]
		first int // host index of the range's first element; -1: empty
		n     int
	}{
		{"0x7", host.View(2, 0, 0, 7), -1, 0},
		{"3x0", host.View(1, 3, 3, 0), -1, 0},
		{"1x1", host.View(2, 3, 1, 1), 2*7 + 3, 1},
		{"strided 3x2", host.View(1, 2, 3, 2), 1*7 + 2, 2*7 + 2},
		{"ends at the backing's last element", host.View(3, 4, 2, 3), 3*7 + 4, 7 + 3},
		{"whole", host, 0, 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := span(tc.m)
			if len(s) != tc.n {
				t.Fatalf("len %d, want %d", len(s), tc.n)
			}
			if tc.first >= 0 && &s[0] != &host.Data[tc.first] {
				t.Fatalf("range starts at the wrong element")
			}
			if tc.n > 0 && &s[len(s)-1] != &tc.m.Data[(tc.m.Rows-1)*tc.m.Stride+tc.m.Cols-1] {
				t.Fatalf("range does not end at the view's last element")
			}
		})
	}
}

// TestSetNextBudget: a successor just under prefetchBudget bytes is kept
// and spent by the next width-1 call; one just over it gets no prefetch.
func TestSetNextBudget(t *testing.T) {
	checkSetNextBudget[float64](t)
	checkSetNextBudget[float32](t)
}

func checkSetNextBudget[E matrix.Element](t *testing.T) {
	ctx := MustNewContext[E](DefaultConfig())
	elems := prefetchBudget / int(unsafe.Sizeof(E(0)))
	a, b, c := matrix.New[E](8, 8), matrix.New[E](8, 8), matrix.New[E](8, 8)
	for _, tc := range []struct {
		name string
		aLen int
		want bool
	}{
		{"under", elems - 3, true}, // A, B and C: the budget less one element
		{"at", elems - 2, true},
		{"over", elems - 1, false}, // the budget and one element
	} {
		t.Run(fmt.Sprintf("%v/%s", matrix.DtypeOf[E](), tc.name), func(t *testing.T) {
			next := Operands[E]{C: matrix.New[E](1, 1), A: matrix.New[E](1, tc.aLen), B: matrix.New[E](1, 1)}
			ws := ctx.GetWorkspace()
			defer ctx.PutWorkspace(ws)
			ws.SetNext(next)
			if got := hintLen(ws) > 0; got != tc.want {
				t.Fatalf("hint kept = %v, want %v (%d elements)", got, tc.want, tc.aLen+2)
			}
			ctx.MulAddWS(ws, c, a, b)
			if n := hintLen(ws); n != 0 || ws.next.step != 0 {
				t.Fatalf("after the call %d hint elements remain, step %d", n, ws.next.step)
			}
		})
	}
}

func hintLen[E matrix.Element](ws *Workspace[E]) int {
	n := 0
	for _, s := range ws.next.spans {
		n += len(s)
	}
	return n
}

// TestSuccessorHint: a width-1 call spends its hint by the end — through
// fringe tiles and several kc and nc blocks — and its C is the same bits as
// without one; a wide call leaves the hint untouched; PutWorkspace clears it.
func TestSuccessorHint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range kernel.Backends() {
		for _, s := range [][3]int{{1, 1, 1}, {7, 9, 5}, {50, 300, 70}, {13, 40, 33}} {
			m, k, n := s[0], s[1], s[2]
			a, b := randMat(rng, m, k), randMat(rng, k, n)
			host := randMat(rng, 60, 90)
			next := Operands[float64]{C: host.View(3, 4, 20, 30), A: host.View(0, 0, 20, 50), B: host.View(10, 10, 50, 30)}
			for _, threads := range []int{1, 2} {
				cfg := Config{MC: 24, KC: 32, NC: 48, Threads: threads, Kernel: name}
				t.Run(fmt.Sprintf("%s/%dx%dx%d/T=%d", name, m, k, n, threads), func(t *testing.T) {
					ctx, err := NewContext[float64](cfg)
					if err != nil {
						t.Skipf("%v", err)
					}
					want, got := matrix.New[float64](m, n), matrix.New[float64](m, n)
					ctx.MulAdd(want, a, b)
					ws := ctx.GetWorkspace()
					ws.SetNext(next)
					full := hintLen(ws)
					ctx.MulAddWS(ws, got, a, b)
					left := hintLen(ws)
					ctx.PutWorkspace(ws)
					if got.Fingerprint() != want.Fingerprint() {
						t.Fatalf("the hint changed C's bits")
					}
					if threads == 1 && left != 0 {
						t.Fatalf("width-1 call left %d of %d hint elements unprefetched", left, full)
					}
					if threads > 1 && left != full {
						t.Fatalf("wide call used the hint: %d of %d left", left, full)
					}
					if hintLen(ws) != 0 {
						t.Fatalf("PutWorkspace kept the hint")
					}
				})
			}
		}
	}
}
