// Package serve is the wire-facing serving front-end of the engine: an
// HTTP service (binary matrix payloads, JSON control surfaces) wrapping a
// GenericMultiplier pair (float64 + float32) with small-request coalescing
// into MulAddBatch, bounded admission control that refuses with 429 +
// Retry-After instead of queueing unbounded work, async submit/collect on
// top of MulAddAsync, graceful shutdown that drains in-flight work through
// Multiplier.Close, and a /stats endpoint exposing Multiplier.Stats plus
// per-endpoint latency histograms. New takes the engines' fmmfam.Config and
// the front-end's own Options.
//
// The wire format is deliberately dumb: a fixed little-endian header naming
// the element type and dimensions, followed by the operands' row-major
// bits. No compression, no self-describing schema — on a little-endian host
// a matrix on the wire is the matrix in memory, which matters when the
// payloads are 32×32 matrices arriving from 64 concurrent clients.
//
// The data path touches each byte once. A compute handler reads a frame's 17
// header bytes, validates them exactly as DecodeRequest does (magic, dtype,
// zero dimensions, MaxDim, MaxFrameElems for the payload and for the result,
// and — when the request declared a Content-Length — that it is the length
// the header implies), and only then rents A and B from the engine's scratch
// list (GenericMultiplier.RentMat: the one bounded store of buffers an engine
// keeps, shared with its plans' temporaries — the server has no pool of its
// own and an idle server holds nothing beyond that bound) and reads the
// payload from the connection straight into their storage. A body that
// declared no length (chunked) takes the same path and is held to the same
// exact-length and trailing-byte checks as it streams. C is rented and
// zeroed after admission, the product runs, and the result header and C's
// storage are written straight to the connection under an explicit
// Content-Length. /v1/batch does this per frame after its count prefix, and
// holds the batch as a whole to one frame's budget: its payloads together and
// the results it names together each stay within MaxFrameElems.
//
// Who owns a rented matrix: the handler, from the rent until the engine can
// no longer read or write it — MulAdd, MulAddBatch and a coalescing window
// all return only after the product has run — and it returns the matrix on
// every path out, refusals and broken connections included. /v1/async hands
// the operands to its watcher, which submits the product to MulAddAsync and
// returns them once it has run, and C to the pending table, which returns it
// at collect; a
// result nobody collects is left to the garbage collector. Nothing read from
// a rented matrix is ever what it held before: operands are overwritten in
// full, C is zeroed.
//
// Endianness: frames are little-endian whatever the host. On a little-endian
// host the exported codec (AppendRequest, AppendResult, DecodeRequest,
// DecodeResult — caller-owned buffers and freshly allocated matrices, for
// clients) moves whole rows with copy and the handlers read and write matrix
// storage as it is; on a big-endian host the codec converts element by
// element and the handlers byte-swap a payload in place, so there is one data
// path either way.
//
// Endpoints (see the README "Serving over the wire" section):
//
//	POST /v1/multiply  one request frame  → one result frame
//	POST /v1/batch     uint32 count + count request frames → count result frames
//	POST /v1/async     one request frame  → 202 {"id": "..."}
//	GET  /v1/async/{id}                   → one result frame (collect once)
//	GET  /v1/stats                        → JSON Stats
//	GET  /healthz                         → 200 ok
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"fmmfam/internal/matrix"
)

// Wire-format constants. A request frame is
//
//	magic "FMM1" | dtype uint8 | m, k, n uint32 LE | A (m·k elems) | B (k·n elems)
//
// and a result frame is
//
//	magic "FMM1" | dtype uint8 | rows, cols uint32 LE | C (rows·cols elems)
//
// with every element little-endian IEEE-754 in row-major order.
const (
	// Magic opens every frame; a mismatch fails fast with ErrBadMagic so a
	// stray JSON or HTML body never reaches the dimension logic.
	Magic = "FMM1"
	// headerLen is the frame header size: magic + dtype + three uint32 dims.
	headerLen = 4 + 1 + 3*4
	// MaxDim caps each dimension of a wire request. It exists to bound the
	// decoder, not the engine: a single 65536² operand is already 32 GiB of
	// float64s, far past what one request should ship over HTTP.
	MaxDim = 1 << 16
	// MaxFrameElems caps the total element count of one frame's payload
	// (both operands of a request together): 2²⁶ elements is 512 MiB of
	// float64s. Oversized requests are refused with ErrTooLarge on their
	// header, before any memory is rented or allocated for them.
	MaxFrameElems = 1 << 26
)

// Decode failure modes, distinguished so the HTTP layer can map payload
// size violations to 413 and everything else to 400.
var (
	// ErrBadMagic reports a frame that does not open with Magic.
	ErrBadMagic = errors.New("serve: bad frame magic")
	// ErrBadDtype reports an unknown element-type tag.
	ErrBadDtype = errors.New("serve: unknown dtype tag")
	// ErrTruncated reports a frame shorter than its header claims.
	ErrTruncated = errors.New("serve: frame shorter than header dimensions require")
	// ErrTrailing reports extra bytes after the payload the header claims.
	ErrTrailing = errors.New("serve: trailing bytes after frame payload")
	// ErrTooLarge reports dimensions past MaxDim or a payload past
	// MaxFrameElems.
	ErrTooLarge = errors.New("serve: frame exceeds size limits")
	// ErrBadDims reports a request frame with a zero dimension. Zero dims
	// are refused outright: a k=0 request carries no payload at all yet
	// names an m×n result, which would let a 17-byte frame demand a
	// gigabyte allocation.
	ErrBadDims = errors.New("serve: zero dimension in request frame")
)

// Header is a decoded frame header: the element type and the three
// dimensions of C(m×n) = A(m×k)·B(k×n). Result frames carry the result's
// rows in M and cols in K, with N zero.
type Header struct {
	Dtype   matrix.Dtype
	M, K, N int
}

// putHeader writes a frame header. Result frames pass n == 0.
func putHeader(dst *[headerLen]byte, dt matrix.Dtype, m, k, n int) {
	copy(dst[:4], Magic)
	dst[4] = byte(dt)
	binary.LittleEndian.PutUint32(dst[5:], uint32(m))
	binary.LittleEndian.PutUint32(dst[9:], uint32(k))
	binary.LittleEndian.PutUint32(dst[13:], uint32(n))
}

func appendHeader(dst []byte, dt matrix.Dtype, m, k, n int) []byte {
	var hdr [headerLen]byte
	putHeader(&hdr, dt, m, k, n)
	return append(dst, hdr[:]...)
}

// DecodeHeader decodes and validates a frame header: magic, a known dtype
// tag, and dimensions within MaxDim. It does not check the payload length —
// the per-frame decoders do, since request and result frames size
// differently.
func DecodeHeader(buf []byte) (Header, error) {
	if len(buf) < headerLen {
		return Header{}, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(buf), headerLen)
	}
	if string(buf[:4]) != Magic {
		return Header{}, fmt.Errorf("%w: % x", ErrBadMagic, buf[:4])
	}
	var h Header
	switch buf[4] {
	case byte(matrix.Float64):
		h.Dtype = matrix.Float64
	case byte(matrix.Float32):
		h.Dtype = matrix.Float32
	default:
		return Header{}, fmt.Errorf("%w: %d", ErrBadDtype, buf[4])
	}
	h.M = int(binary.LittleEndian.Uint32(buf[5:]))
	h.K = int(binary.LittleEndian.Uint32(buf[9:]))
	h.N = int(binary.LittleEndian.Uint32(buf[13:]))
	if h.M > MaxDim || h.K > MaxDim || h.N > MaxDim {
		return Header{}, fmt.Errorf("%w: dims %d×%d×%d, MaxDim %d", ErrTooLarge, h.M, h.K, h.N, MaxDim)
	}
	return h, nil
}

// reqElems returns the total payload element count of a request frame with
// header h. The dims are each ≤ MaxDim = 2¹⁶, so the products stay far from
// overflowing int64 (and int: the package requires a 64-bit platform for
// payloads near the cap, like the rest of the engine).
func (h Header) reqElems() int64 {
	return int64(h.M)*int64(h.K) + int64(h.K)*int64(h.N)
}

// resElems is the element count of the result a request frame with header h
// names.
func (h Header) resElems() int64 { return int64(h.M) * int64(h.N) }

// checkRequest validates a decoded header as a request frame's: no zero
// dimension, and both the payload and the result it names within
// MaxFrameElems. Everything a frame can be refused for short of its length
// is decided here, before a byte of payload is read or stored.
func (h Header) checkRequest() error {
	if h.M < 1 || h.K < 1 || h.N < 1 {
		return fmt.Errorf("%w: dims %d×%d×%d", ErrBadDims, h.M, h.K, h.N)
	}
	// Cap the result alongside the operands: with k small, m·k + k·n can sit
	// far under the payload cap while m·n names a huge C allocation.
	if elems, res := h.reqElems(), h.resElems(); elems > MaxFrameElems || res > MaxFrameElems {
		return fmt.Errorf("%w: %d payload + %d result elements, cap %d", ErrTooLarge, elems, res, MaxFrameElems)
	}
	return nil
}

// reqBytes is the payload length in bytes of a request frame with header h.
func (h Header) reqBytes() int64 { return h.reqElems() * int64(h.Dtype.Size()) }

// lengthError reports a frame whose payload is have bytes where its header
// needs want: ErrTruncated when short, ErrTrailing when long.
func (h Header) lengthError(have, want int64) error {
	sentinel := ErrTruncated
	if have > want {
		sentinel = ErrTrailing
	}
	return fmt.Errorf("%w: %d payload bytes, dims %d×%d×%d need %d", sentinel, have, h.M, h.K, h.N, want)
}

// AppendRequest encodes one multiply request frame, C(m×n) = A·B, appending
// to dst. The operands may be strided views; the wire always carries tight
// row-major data.
func AppendRequest[E matrix.Element](dst []byte, a, b matrix.Mat[E]) []byte {
	dst = slices.Grow(dst, headerLen+(a.Rows*a.Cols+b.Rows*b.Cols)*matrix.DtypeOf[E]().Size())
	dst = appendHeader(dst, matrix.DtypeOf[E](), a.Rows, a.Cols, b.Cols)
	dst = appendElems(dst, a)
	return appendElems(dst, b)
}

// DecodeRequest decodes a request frame into its operands (and the result
// header), allocating tight backing for A and B. The payload length must
// match the header dimensions exactly.
func DecodeRequest(buf []byte) (h Header, a64, b64 matrix.Mat[float64], a32, b32 matrix.Mat[float32], err error) {
	h, err = DecodeHeader(buf)
	if err != nil {
		return
	}
	if err = h.checkRequest(); err != nil {
		return
	}
	payload := buf[headerLen:]
	if want := h.reqBytes(); int64(len(payload)) != want {
		err = h.lengthError(int64(len(payload)), want)
		return
	}
	if h.Dtype == matrix.Float32 {
		a32 = decodeElems[float32](payload, h.M, h.K)
		b32 = decodeElems[float32](payload[int64(h.M)*int64(h.K)*4:], h.K, h.N)
	} else {
		a64 = decodeElems[float64](payload, h.M, h.K)
		b64 = decodeElems[float64](payload[int64(h.M)*int64(h.K)*8:], h.K, h.N)
	}
	return
}

// AppendResult encodes one result frame (rows×cols matrix C), appending to
// dst.
func AppendResult[E matrix.Element](dst []byte, c matrix.Mat[E]) []byte {
	dst = slices.Grow(dst, headerLen+c.Rows*c.Cols*matrix.DtypeOf[E]().Size())
	dst = appendHeader(dst, matrix.DtypeOf[E](), c.Rows, c.Cols, 0)
	return appendElems(dst, c)
}

// DecodeResult decodes a result frame of element type E. The frame's dtype
// tag must match E and the payload must size to rows×cols exactly.
func DecodeResult[E matrix.Element](buf []byte) (matrix.Mat[E], error) {
	h, payload, err := resultPayload[E](buf)
	if err != nil {
		return matrix.Mat[E]{}, err
	}
	return decodeElems[E](payload, h.M, h.K), nil
}

// resultPayload validates buf as one result frame of element type E and
// returns its header and payload.
func resultPayload[E matrix.Element](buf []byte) (Header, []byte, error) {
	h, err := DecodeHeader(buf)
	if err != nil {
		return h, nil, err
	}
	if h.Dtype != matrix.DtypeOf[E]() {
		return h, nil, fmt.Errorf("%w: result dtype %s, want %s", ErrBadDtype, h.Dtype, matrix.DtypeOf[E]())
	}
	elems := int64(h.M) * int64(h.K)
	if elems > MaxFrameElems {
		return h, nil, fmt.Errorf("%w: %d payload elements, cap %d", ErrTooLarge, elems, MaxFrameElems)
	}
	payload := buf[headerLen:]
	want := elems * int64(h.Dtype.Size())
	if int64(len(payload)) != want {
		return h, nil, fmt.Errorf("%w: %d payload bytes, %d×%d result needs %d", ErrTruncated, len(payload), h.M, h.K, want)
	}
	return h, payload, nil
}

// addResult folds the result frame buf into c, c += the frame's matrix, in
// one pass over the payload — what a client does with a product the wire
// computed as C = A·B. The frame must be of element type E and c's shape.
func addResult[E matrix.Element](c matrix.Mat[E], buf []byte) error {
	h, payload, err := resultPayload[E](buf)
	if err != nil {
		return err
	}
	if h.M != c.Rows || h.K != c.Cols {
		return fmt.Errorf("serve: result frame is %d×%d, want %d×%d", h.M, h.K, c.Rows, c.Cols)
	}
	rowBytes := c.Cols * h.Dtype.Size()
	for i := 0; i < c.Rows; i++ {
		src := payload[i*rowBytes : (i+1)*rowBytes]
		switch row := any(c.Data[i*c.Stride : i*c.Stride+c.Cols]).(type) {
		case []float64:
			for j := range row {
				row[j] += math.Float64frombits(binary.LittleEndian.Uint64(src[j*8:]))
			}
		case []float32:
			for j := range row {
				row[j] += math.Float32frombits(binary.LittleEndian.Uint32(src[j*4:]))
			}
		}
	}
	return nil
}

// readElems fills the tight matrix m from r's next m.Rows·m.Cols
// little-endian elements, reading straight into m's storage.
//
//fmm:hotpath
func readElems[E matrix.Element](r io.Reader, m matrix.Mat[E]) error {
	buf := elemBytes(m.Data[:m.Rows*m.Cols])
	_, err := io.ReadFull(r, buf)
	if !hostLittleEndian {
		swapElems(buf, matrix.DtypeOf[E]().Size())
	}
	return err
}

// writeElems writes the tight matrix m to w as little-endian elements,
// straight from m's storage. On a big-endian host m is left byte-swapped:
// the caller is done with it.
//
//fmm:hotpath
func writeElems[E matrix.Element](w io.Writer, m matrix.Mat[E]) error {
	buf := elemBytes(m.Data[:m.Rows*m.Cols])
	if !hostLittleEndian {
		swapElems(buf, matrix.DtypeOf[E]().Size())
	}
	_, err := w.Write(buf)
	return err
}

// hostLittleEndian reports whether element bytes in memory are already the
// wire's: then a row moves with one copy, and a handler reads a payload
// straight into a matrix. On a big-endian host the codec converts element by
// element (appendRowPortable, decodeRowPortable — also the oracle the copy
// path is tested against) and the handlers byte-swap a payload in place.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// elemBytes views s as its bytes in memory: the one unsafe cast of the
// package. A []E is aligned for E, so the view is always valid; the reverse
// cast (wire bytes as elements) is never made, since a frame's payload starts
// at an odd offset.
func elemBytes[E matrix.Element](s []E) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// appendElems appends m's elements row-major little-endian. Strided views
// are walked row by row, a tight matrix as one long row; the wire layout is
// always tight.
func appendElems[E matrix.Element](dst []byte, m matrix.Mat[E]) []byte {
	rows, cols := m.Rows, m.Cols
	if m.Stride == cols {
		rows, cols = min(rows, 1), rows*cols
	}
	for i := 0; i < rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+cols]
		if hostLittleEndian {
			dst = append(dst, elemBytes(row)...)
		} else {
			dst = appendRowPortable(dst, row)
		}
	}
	return dst
}

// decodeElems decodes rows×cols little-endian elements from the front of
// payload into a freshly-allocated tight matrix. The caller has already
// checked payload is long enough.
func decodeElems[E matrix.Element](payload []byte, rows, cols int) matrix.Mat[E] {
	out := matrix.New[E](rows, cols)
	if hostLittleEndian {
		copy(elemBytes(out.Data), payload)
	} else {
		decodeRowPortable(out.Data, payload)
	}
	return out
}

// appendRowPortable appends row's elements little-endian on any host.
func appendRowPortable[E matrix.Element](dst []byte, row []E) []byte {
	switch row := any(row).(type) {
	case []float64:
		for _, v := range row {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case []float32:
		for _, v := range row {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// decodeRowPortable fills row from little-endian elements at the front of
// payload on any host.
func decodeRowPortable[E matrix.Element](row []E, payload []byte) {
	switch row := any(row).(type) {
	case []float64:
		for i := range row {
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	case []float32:
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:]))
		}
	}
}

// swapElems reverses the bytes of every size-byte element of buf in place:
// wire order to host order and back on a big-endian host.
func swapElems(buf []byte, size int) {
	for ; len(buf) >= size; buf = buf[size:] {
		for i, j := 0, size-1; i < j; i, j = i+1, j-1 {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
}
