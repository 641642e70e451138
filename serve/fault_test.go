// Fault-path tests: malformed payloads, dimension mismatches, oversized
// requests, queue-full 429s with a Retry-After that is actually honored, and
// shutdown racing in-flight work.
package serve_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fmmfam"
	"fmmfam/serve"
	"fmmfam/serve/servetest"
)

// wireCase is one raw request of the malformed-request table and the status
// it must get.
type wireCase struct {
	name string
	path string
	body []byte
	// declared is the Content-Length the request claims: 0 for the body's
	// own, -1 for none (chunked), and any other value for exactly that, sent
	// over a bare connection with only body behind it — a server that went on
	// to wait for the bytes the declaration promises would hang the row.
	declared int64
	want     int
}

// post sends the case to a harness and returns the status.
func (tc wireCase) post(t *testing.T, h *servetest.Harness) int {
	t.Helper()
	if tc.declared > 0 {
		conn, err := net.Dial("tcp", strings.TrimPrefix(h.URL, "http://"))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: fmm\r\nConnection: close\r\nContent-Length: %d\r\n\r\n", tc.path, tc.declared)
		conn.Write(tc.body)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("POST %s declaring %d bytes, sending %d: %v", tc.path, tc.declared, len(tc.body), err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	var body io.Reader = bytes.NewReader(tc.body)
	if tc.declared < 0 {
		body = struct{ io.Reader }{body} // length hidden: the client chunks it
	}
	resp, err := http.Post(h.URL+tc.path, "application/octet-stream", body)
	if err != nil {
		t.Fatalf("POST %s: %v", tc.path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// malformedCases is the table TestServeMalformedRequests drives; good is a
// well-formed float64 request frame the rows are cut from.
func malformedCases(good []byte) []wireCase {
	badMagic := append([]byte("NOPE"), good[4:]...)
	badDtype := append([]byte(nil), good...)
	badDtype[4] = 99
	trailing := append(append([]byte(nil), good...), 0xAB)
	oversize := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(oversize[5:], 1<<20) // m far past MaxDim
	batchOf := func(count uint32, frames ...[]byte) []byte {
		body := binary.LittleEndian.AppendUint32(nil, count)
		for _, f := range frames {
			body = append(body, f...)
		}
		return body
	}
	header := good[:17]
	full := int64(len(good))
	// An outer product whose result is exactly the frame cap on 128 KiB of
	// payload: one is a legal frame, two name twice the cap of C between them.
	outer := serve.AppendRequest[float64](nil, fmmfam.NewMatrix(1<<13, 1), fmmfam.NewMatrix(1, 1<<13))

	return []wireCase{
		{"empty-body", "/v1/multiply", nil, 0, http.StatusBadRequest},
		{"bad-magic", "/v1/multiply", badMagic, 0, http.StatusBadRequest},
		{"bad-dtype", "/v1/multiply", badDtype, 0, http.StatusBadRequest},
		{"truncated", "/v1/multiply", good[:len(good)-5], 0, http.StatusBadRequest},
		{"trailing", "/v1/multiply", trailing, 0, http.StatusBadRequest},
		{"oversize-dims", "/v1/multiply", oversize, 0, http.StatusRequestEntityTooLarge},
		{"async-bad-magic", "/v1/async", badMagic, 0, http.StatusBadRequest},
		{"batch-no-count", "/v1/batch", []byte{1, 2}, 0, http.StatusBadRequest},
		{"batch-count-overrun", "/v1/batch", batchOf(3, good), 0, http.StatusBadRequest}, // claims 3 frames, carries 1
		{"batch-count-cap", "/v1/batch", batchOf(1<<20, good), 0, http.StatusRequestEntityTooLarge},
		{"batch-trailing", "/v1/batch", append(batchOf(1, good), 0xCD), 0, http.StatusBadRequest},
		// Refused on the second frame's header — none of its payload is sent.
		{"batch-results-over-cap", "/v1/batch", batchOf(2, outer, outer[:17]), 0, http.StatusRequestEntityTooLarge},

		// A declared length that is not what the header implies is refused on
		// the header: only the 17 header bytes are ever sent.
		{"declared-short", "/v1/multiply", header, full - 5, http.StatusBadRequest},
		{"declared-long", "/v1/multiply", header, full + 1, http.StatusBadRequest},
		{"declared-over-cap", "/v1/multiply", header, 1 << 40, http.StatusRequestEntityTooLarge},
		{"async-declared-short", "/v1/async", header, full - 8, http.StatusBadRequest},
		{"async-declared-over-cap", "/v1/async", header, 1 << 40, http.StatusRequestEntityTooLarge},
		{"batch-declared-short", "/v1/batch", batchOf(2, good, header), 4 + 2*full - 1, http.StatusBadRequest},
		{"batch-declared-long", "/v1/batch", batchOf(2, good, header), 4 + 2*full + 1, http.StatusBadRequest},
		{"batch-declared-over-cap", "/v1/batch", batchOf(1), 1 << 40, http.StatusRequestEntityTooLarge},

		// No declared length: the same frames, the same checks.
		{"chunked-good", "/v1/multiply", good, -1, http.StatusOK},
		{"chunked-truncated", "/v1/multiply", good[:len(good)-5], -1, http.StatusBadRequest},
		{"chunked-trailing", "/v1/multiply", trailing, -1, http.StatusBadRequest},
		{"chunked-batch-good", "/v1/batch", batchOf(2, good, good), -1, http.StatusOK},
		{"chunked-batch-trailing", "/v1/batch", append(batchOf(1, good), 0xCD), -1, http.StatusBadRequest},
	}
}

// TestServeMalformedRequests drives each decode failure through the real
// HTTP stack and checks the mapped status: frame-shape garbage is a client
// error (400), anything that tripped a size cap is 413, and none of it may
// consume an admission slot or count as a completed request — nor keep a
// matrix it rented.
func TestServeMalformedRequests(t *testing.T) {
	h := startHarness(t, serveCfg())
	defer h.Close()
	mats := serve.CountMats(h.Server)

	a, b := fmmfam.NewMatrix(2, 3), fmmfam.NewMatrix(3, 2)
	var wellFormed uint64
	for _, tc := range malformedCases(serve.AppendRequest[float64](nil, a, b)) {
		if tc.want == http.StatusOK {
			wellFormed++
		}
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.post(t, h); got != tc.want {
				t.Fatalf("POST %s (%s) = %d, want %d", tc.path, tc.name, got, tc.want)
			}
		})
	}

	// Unknown and malformed async ids.
	for _, tc := range []struct {
		id   string
		want int
	}{{"999999", http.StatusNotFound}, {"not-a-number", http.StatusBadRequest}} {
		resp, err := http.Get(h.URL + "/v1/async/" + tc.id)
		if err != nil {
			t.Fatalf("GET /v1/async/%s: %v", tc.id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/async/%s = %d, want %d", tc.id, resp.StatusCode, tc.want)
		}
	}

	st, err := h.Client().Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Completed != wellFormed {
		t.Errorf("malformed requests counted as completed: %d, want the %d well-formed rows", st.Completed, wellFormed)
	}
	if st.Admission.InFlight != 0 {
		t.Errorf("malformed requests left %d admission slots held", st.Admission.InFlight)
	}
	if st.Admission.Admitted != wellFormed {
		t.Errorf("malformed requests acquired admission slots before failing decode: %d admitted, want the %d well-formed rows", st.Admission.Admitted, wellFormed)
	}
	checkMatsReturned(t, mats)
}

// checkMatsReturned requires that the data path has rented matrices and
// returned every one. A handler returns its matrices after the response is on
// the wire, so the last returns may trail the client by a moment.
func checkMatsReturned(t *testing.T, mats func() (rents, returns int64)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rents, returns := mats()
		if rents == returns && rents > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d matrices rented, %d returned", rents, returns)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeAdmissionControl fills the admission gate with slow async work,
// checks that the next request is refused with 429 + Retry-After, and that a
// client honoring the hint eventually gets through once the gate drains.
func TestServeAdmissionControl(t *testing.T) {
	cfg := serveCfg()
	cfg.CoalesceWindow = -1 // direct dispatch keeps slot accounting deterministic
	cfg.Threads = 1         // one worker: the second job queues behind the first
	h := startHarness(t, cfg, serve.Options{AdmissionDepth: 2})
	defer h.Close()
	cl := h.Client()

	rng := rand.New(rand.NewSource(5))
	// Chunky products on a single worker: the first job alone runs for
	// hundreds of milliseconds, so both admission slots stay held (one
	// executing, one queued) long after the submit round-trips return.
	a, b := fmmfam.NewMatrix(512, 512), fmmfam.NewMatrix(512, 512)
	a.FillRand(rng)
	b.FillRand(rng)
	var handles []*serve.AsyncHandle
	for i := 0; i < 2; i++ {
		hnd, err := cl.SubmitAsync(fmmfam.NewMatrix(512, 512), a, b)
		if err != nil {
			t.Fatalf("SubmitAsync %d: %v", i, err)
		}
		handles = append(handles, hnd)
	}

	// Gate is full: a bare client (no retry budget) must see 429 with a
	// usable Retry-After.
	sa, sb := fmmfam.NewMatrix(8, 8), fmmfam.NewMatrix(8, 8)
	sa.FillRand(rng)
	sb.FillRand(rng)
	err := cl.Multiply(fmmfam.NewMatrix(8, 8), sa, sb)
	var herr *serve.HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusTooManyRequests {
		t.Fatalf("multiply against a full gate = %v, want HTTP 429", err)
	}
	if herr.RetryAfter <= 0 {
		t.Fatalf("429 carried no Retry-After hint: %+v", herr)
	}

	// A client that honors Retry-After succeeds once the async work drains.
	patient := h.Client()
	patient.Retry429 = 10
	if err := patient.Multiply(fmmfam.NewMatrix(8, 8), sa, sb); err != nil {
		t.Fatalf("retrying multiply never got through: %v", err)
	}

	for i, hnd := range handles {
		if err := hnd.Collect(); err != nil {
			t.Fatalf("Collect %d: %v", i, err)
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Admission.Rejected == 0 {
		t.Errorf("stats: no rejections recorded after observed 429s: %+v", st.Admission)
	}
	if st.Admission.InFlight != 0 {
		t.Errorf("stats: %d slots still held after all work drained", st.Admission.InFlight)
	}
}

// TestServeAsyncPendingCap fills the uncollected-results table (4×
// Options.AdmissionDepth) and checks that the next submission is refused before it
// costs anything: no admission slot taken, and — the refused product has a
// shape class of its own — no plan built for it, so the engine never ran it.
func TestServeAsyncPendingCap(t *testing.T) {
	const depth = 1
	h := startHarness(t, serveCfg(), serve.Options{AdmissionDepth: depth})
	defer h.Close()
	cl := h.Client()
	cl.Retry429 = 50 // depth 1: each submission waits out the one before it

	// drained waits until no submission holds an admission slot.
	drained := func() serve.Stats {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err := cl.Stats()
			if err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if st.Admission.InFlight == 0 {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("admission never drained: %+v", st.Admission)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	rng := rand.New(rand.NewSource(21))
	a, b := fmmfam.NewMatrix(8, 8), fmmfam.NewMatrix(8, 8)
	a.FillRand(rng)
	b.FillRand(rng)
	var handles []*serve.AsyncHandle
	for i := 0; i < 4*depth; i++ {
		hnd, err := cl.SubmitAsync(fmmfam.NewMatrix(8, 8), a, b)
		if err != nil {
			t.Fatalf("SubmitAsync %d: %v", i, err)
		}
		handles = append(handles, hnd)
		drained()
	}
	before := drained()
	if before.AsyncPending != len(handles) {
		t.Fatalf("AsyncPending = %d, want %d", before.AsyncPending, len(handles))
	}

	bare := h.Client() // no retry budget: the 429 must surface
	wa, wb := fmmfam.NewMatrix(24, 24), fmmfam.NewMatrix(24, 24)
	wa.FillRand(rng)
	wb.FillRand(rng)
	_, err := bare.SubmitAsync(fmmfam.NewMatrix(24, 24), wa, wb)
	var herr *serve.HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusTooManyRequests || herr.RetryAfter <= 0 {
		t.Fatalf("submit at the pending cap = %v, want HTTP 429 with Retry-After", err)
	}
	after := drained()
	if after.Admission.Admitted != before.Admission.Admitted {
		t.Errorf("refused submission took an admission slot: Admitted %d → %d", before.Admission.Admitted, after.Admission.Admitted)
	}
	if after.Multiplier.CachedPlans != before.Multiplier.CachedPlans {
		t.Errorf("refused submission reached the engine: CachedPlans %d → %d", before.Multiplier.CachedPlans, after.Multiplier.CachedPlans)
	}
	if after.Admission.Rejected != before.Admission.Rejected+1 {
		t.Errorf("Rejected %d → %d, want one more", before.Admission.Rejected, after.Admission.Rejected)
	}

	// Collecting frees a place, and the same submission goes through.
	if err := handles[0].Collect(); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	hnd, err := bare.SubmitAsync(fmmfam.NewMatrix(24, 24), wa, wb)
	if err != nil {
		t.Fatalf("submit after a collect: %v", err)
	}
	for _, hd := range append(handles[1:], hnd) {
		if err := hd.Collect(); err != nil {
			t.Fatalf("Collect: %v", err)
		}
	}
}

// TestServeShutdown covers both halves of shutdown: an in-flight request
// racing harness teardown completes cleanly (HTTP drains before compute
// closes), and requests after Server.Close get a clean 503, not a hang.
func TestServeShutdown(t *testing.T) {
	t.Run("in-flight-completes", func(t *testing.T) {
		h := startHarness(t, serveCfg())
		rng := rand.New(rand.NewSource(9))
		a, b := fmmfam.NewMatrix(320, 320), fmmfam.NewMatrix(320, 320)
		a.FillRand(rng)
		b.FillRand(rng)
		cl := h.Client()

		var wg sync.WaitGroup
		var mulErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			mulErr = cl.Multiply(fmmfam.NewMatrix(320, 320), a, b)
		}()
		// Close only after the request has demonstrably reached the engine
		// (it holds an admission slot) — a fixed sleep flakes on a loaded
		// single-core runner where the client goroutine may not have dialed
		// yet.
		admitDeadline := time.Now().Add(10 * time.Second)
		for {
			st, err := h.Client().Stats()
			if err != nil {
				t.Fatalf("stats while waiting for admission: %v", err)
			}
			if st.Admission.Admitted >= 1 {
				break
			}
			if time.Now().After(admitDeadline) {
				t.Fatal("multiply never acquired an admission slot")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := h.Close(); err != nil {
			t.Fatalf("Close with work in flight: %v", err)
		}
		wg.Wait()
		if mulErr != nil {
			t.Fatalf("in-flight multiply failed during shutdown: %v", mulErr)
		}
	})

	t.Run("post-close-503", func(t *testing.T) {
		h := startHarness(t, serveCfg())
		defer h.Close()
		// Close compute directly while the listener still accepts: the
		// handler must answer 503 ErrServerClosed, never hang on a closed
		// engine.
		if err := h.Server.Close(); err != nil {
			t.Fatalf("Server.Close: %v", err)
		}
		rng := rand.New(rand.NewSource(13))
		a, b := fmmfam.NewMatrix(16, 16), fmmfam.NewMatrix(16, 16)
		a.FillRand(rng)
		b.FillRand(rng)
		err := h.Client().Multiply(fmmfam.NewMatrix(16, 16), a, b)
		var herr *serve.HTTPError
		if !errors.As(err, &herr) || herr.Status != http.StatusServiceUnavailable {
			t.Fatalf("multiply after Close = %v, want HTTP 503", err)
		}
		if _, err := h.Client().SubmitAsync(fmmfam.NewMatrix(16, 16), a, b); !errors.As(err, &herr) || herr.Status != http.StatusServiceUnavailable {
			t.Fatalf("async submit after Close = %v, want HTTP 503", err)
		}
	})
}
