package kernel

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"fmmfam/internal/matrix"
)

// storageBytes views a matrix's whole backing array as bytes.
func storageBytes[E matrix.Element](m matrix.Mat[E]) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&m.Data[0])), uintptr(len(m.Data))*unsafe.Sizeof(m.Data[0]))
}

// touchViews are the views TouchPages is checked on: the whole tight
// matrix, strided views that start mid-page and span page boundaries, one
// row, and one column.
func touchViews[E matrix.Element](m matrix.Mat[E]) map[string]matrix.Mat[E] {
	return map[string]matrix.Mat[E]{
		"tight":       m,
		"tight rows":  m.View(7, 0, 20, m.Cols),
		"strided":     m.View(3, 5, 30, 200),
		"strided end": m.View(1, m.Cols-9, m.Rows-1, 9),
		"one row":     m.View(11, 1, 1, m.Cols-1),
		"one column":  m.View(0, 17, m.Rows, 1),
	}
}

func checkTouchKeepsBits[E matrix.Element](t *testing.T, specials []E) {
	t.Helper()
	m := matrix.New[E](40, 700) // about 55 (float64) or 27 (float32) pages
	for i := range m.Data {
		m.Data[i] = specials[i%len(specials)]
	}
	want := bytes.Clone(storageBytes(m))
	for name, v := range touchViews(m) {
		TouchPages(v)
		if !bytes.Equal(storageBytes(m), want) {
			t.Fatalf("%s: TouchPages changed the storage's bits", name)
		}
	}
}

// TestTouchPagesKeepsBits: the touch is an integer add of zero, so −0, NaN
// payloads (quiet and signalling, either sign), ±Inf and subnormals keep
// every bit, on tight and on strided views.
func TestTouchPagesKeepsBits(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		var s []float64
		for _, b := range []uint64{
			0x8000000000000000, // −0
			0x7ff8000000000123, // quiet NaN with a payload
			0xfff4000000000abc, // negative signalling NaN with a payload
			0x7ff0000000000000, // +Inf
			0xfff0000000000000, // −Inf
			0x0000000000000001, // smallest subnormal
			0x800fffffffffffff, // largest negative subnormal
			0x3ff0000000000001, // 1 + ulp
		} {
			s = append(s, math.Float64frombits(b))
		}
		checkTouchKeepsBits(t, s)
	})
	t.Run("float32", func(t *testing.T) {
		var s []float32
		for _, b := range []uint32{
			0x80000000, // −0
			0x7fc00123, // quiet NaN with a payload
			0xffa00abc, // negative signalling NaN with a payload
			0x7f800000, // +Inf
			0xff800000, // −Inf
			0x00000001, // smallest subnormal
			0x807fffff, // largest negative subnormal
			0x3f800001, // 1 + ulp
		} {
			s = append(s, math.Float32frombits(b))
		}
		checkTouchKeepsBits(t, s)
	})
}

// TestTouchPagesEmptyViews: a view with no rows or no columns touches
// nothing and does not index its (possibly empty) storage.
func TestTouchPagesEmptyViews(t *testing.T) {
	TouchPages(matrix.Mat[float64]{})
	m := matrix.New[float32](3, 4)
	TouchPages(m.View(3, 0, 0, 4))
	TouchPages(m.View(0, 4, 3, 0))
}
