package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fmmfam/internal/matrix"
)

// specials64 and specials32 are the values whose bits a codec is most likely
// to disturb: both zeros, both infinities, quiet and signalling NaNs with
// payload bits set, the extremes and a subnormal.
func specials64() []float64 {
	out := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, bits := range []uint64{0x7FF8000000000001, 0xFFF8123456789ABC, 0x7FF0000000000001, 0xFFF7FFFFFFFFFFFF} {
		out = append(out, math.Float64frombits(bits))
	}
	return out
}

func specials32() []float32 {
	out := []float32{float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, math.SmallestNonzeroFloat32}
	for _, bits := range []uint32{0x7FC00001, 0xFFC12345, 0x7F800001, 0xFFBFFFFF} {
		out = append(out, math.Float32frombits(bits))
	}
	return out
}

// codecShapes are ragged on purpose: single rows and columns, sizes around
// the vector widths, and nothing square.
var codecShapes = [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {2, 9}, {17, 33}, {64, 3}, {31, 64}}

// testCodecAgainstOracle holds the row-copy codec to the per-element one at
// element type E: every frame byte and every decoded bit, for tight matrices
// and for views with a wider stride, with the special values sp planted in
// every row.
func testCodecAgainstOracle[E matrix.Element](t *testing.T, sp []E) {
	rng := rand.New(rand.NewSource(5))
	size := matrix.DtypeOf[E]().Size()
	for _, shape := range codecShapes {
		rows, cols := shape[0], shape[1]
		backing := matrix.New[E](rows+3, cols+5)
		backing.FillRand(rng)
		for _, m := range []matrix.Mat[E]{backing.View(0, 0, rows, cols).Clone(), backing.View(2, 4, rows, cols)} {
			for i := 0; i < rows; i++ {
				m.Set(i, (i*3)%cols, sp[i%len(sp)])
			}
			var want []byte
			for i := 0; i < rows; i++ {
				want = appendRowPortable(want, m.Data[i*m.Stride:i*m.Stride+cols])
			}
			if got := appendElems(nil, m); !bytes.Equal(got, want) {
				t.Fatalf("%d×%d stride %d: appendElems differs from the per-element oracle", rows, cols, m.Stride)
			}
			frame := AppendResult(nil, m)
			if !bytes.Equal(frame[headerLen:], want) || len(frame) != headerLen+rows*cols*size {
				t.Fatalf("%d×%d stride %d: AppendResult payload differs from the oracle", rows, cols, m.Stride)
			}

			oracle := make([]E, rows*cols)
			decodeRowPortable(oracle, want)
			got, err := DecodeResult[E](frame)
			if err != nil {
				t.Fatalf("%d×%d: DecodeResult: %v", rows, cols, err)
			}
			if !bytes.Equal(elemBytes(got.Data), elemBytes(oracle)) {
				t.Fatalf("%d×%d stride %d: DecodeResult bits differ from the per-element oracle", rows, cols, m.Stride)
			}
			if again := AppendResult(nil, got); !bytes.Equal(again, frame) {
				t.Fatalf("%d×%d: decode then encode changed the frame", rows, cols)
			}

			// The streaming pair the handlers use moves the same bytes.
			streamed := matrix.New[E](rows, cols)
			if err := readElems(bytes.NewReader(want), streamed); err != nil {
				t.Fatalf("%d×%d: readElems: %v", rows, cols, err)
			}
			if !bytes.Equal(elemBytes(streamed.Data), elemBytes(oracle)) {
				t.Fatalf("%d×%d: readElems bits differ from the oracle", rows, cols)
			}
			var out bytes.Buffer
			if err := writeElems(&out, streamed); err != nil || !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%d×%d: writeElems differs from the oracle (err %v)", rows, cols, err)
			}

			// addResult is DecodeResult followed by AddScaled, in one pass.
			// (The accumulator is finite: which payload NaN + NaN keeps is the
			// compiler's choice of operand order, not the codec's.)
			acc := matrix.New[E](rows, cols)
			acc.FillRand(rng)
			ref := acc.Clone()
			ref.AddScaled(1, got)
			if err := addResult(acc, frame); err != nil {
				t.Fatalf("%d×%d: addResult: %v", rows, cols, err)
			}
			if !bytes.Equal(elemBytes(acc.Data), elemBytes(ref.Data)) {
				t.Fatalf("%d×%d: addResult differs from decode-then-AddScaled", rows, cols)
			}
		}
	}
}

func TestCodecAgainstOracle(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testCodecAgainstOracle(t, specials64()) })
	t.Run("float32", func(t *testing.T) { testCodecAgainstOracle(t, specials32()) })
}

// TestSwapElems drives the big-endian host's in-place conversion on whatever
// host runs the test: swapping an element's bytes in memory must give its
// encoding in the byte order that is not the host's.
func TestSwapElems(t *testing.T) {
	var other binary.AppendByteOrder = binary.BigEndian
	if !hostLittleEndian {
		other = binary.LittleEndian
	}
	f64 := specials64()
	var want []byte
	for _, v := range f64 {
		want = other.AppendUint64(want, math.Float64bits(v))
	}
	got := append([]byte(nil), elemBytes(f64)...)
	swapElems(got, 8)
	if !bytes.Equal(got, want) {
		t.Errorf("float64: swapped bytes % x, want % x", got, want)
	}
	f32 := specials32()
	want = want[:0]
	for _, v := range f32 {
		want = other.AppendUint32(want, math.Float32bits(v))
	}
	got = append(got[:0], elemBytes(f32)...)
	swapElems(got, 4)
	if !bytes.Equal(got, want) {
		t.Errorf("float32: swapped bytes % x, want % x", got, want)
	}
	swapElems(got, 4)
	if !bytes.Equal(got, elemBytes(f32)) {
		t.Error("swapping twice is not the identity")
	}
}
