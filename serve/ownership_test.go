// Ownership tests for the streaming data path: every operand and result of a
// request lives in a matrix rented from the engine's scratch list, so the
// handlers may not depend on what a rented matrix held before, must return
// every one on every path out, and must not allocate in proportion to the
// payload.
package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fmmfam"
	"fmmfam/internal/matrix"
	"fmmfam/serve"
)

// wireProduct is one product as the wire sees it: its request frame and the
// result frame a direct MulAddBatch on fresh matrices encodes to.
type wireProduct struct {
	req, want []byte
}

// newWireProducts draws one product per shape at element type E and computes
// the references through one MulAddBatch on mul.
func newWireProducts[E matrix.Element](t *testing.T, rng *rand.Rand, mul *fmmfam.GenericMultiplier[E], shapes [][3]int) []wireProduct {
	t.Helper()
	jobs := make([]fmmfam.GenericBatchJob[E], len(shapes))
	for i, s := range shapes {
		jobs[i] = fmmfam.GenericBatchJob[E]{C: matrix.New[E](s[0], s[2]), A: matrix.New[E](s[0], s[1]), B: matrix.New[E](s[1], s[2])}
		jobs[i].A.FillRand(rng)
		jobs[i].B.FillRand(rng)
	}
	if err := mul.MulAddBatch(jobs); err != nil {
		t.Fatalf("reference MulAddBatch: %v", err)
	}
	ps := make([]wireProduct, len(jobs))
	for i, j := range jobs {
		ps[i] = wireProduct{req: serve.AppendRequest(nil, j.A, j.B), want: serve.AppendResult(nil, j.C)}
	}
	return ps
}

// roundTrip sends one request and returns the response's status and body.
func roundTrip(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// asyncRoundTrip submits req to /v1/async and collects the result.
func asyncRoundTrip(hc *http.Client, base string, req []byte) (int, []byte, error) {
	status, out, err := roundTrip(hc, http.MethodPost, base+"/v1/async", req)
	if err != nil || status != http.StatusAccepted {
		return status, out, err
	}
	var resp map[string]string
	if err := json.Unmarshal(out, &resp); err != nil {
		return status, out, err
	}
	return roundTrip(hc, http.MethodGet, base+"/v1/async/"+resp["id"], nil)
}

// TestServePoisonedScratch fills both scratch lists with NaN buffers and then
// drives all three compute endpoints from 16 concurrent clients: a handler
// that read a rented operand it had not fully overwritten, or accumulated
// into a C it had not zeroed, answers NaN, and a handler that returned a
// matrix while the engine still used it answers another request's numbers.
// Every response must be byte-equal to a direct MulAddBatch on fresh
// matrices.
func TestServePoisonedScratch(t *testing.T) {
	cfg := serveCfg()
	h := startHarness(t, cfg)
	defer h.Close()
	serve.PoisonScratch(h.Server, 1<<13, 48)

	shapes := [][3]int{{1, 1, 1}, {7, 64, 3}, {33, 17, 48}, {64, 64, 64}, {5, 90, 61}, {80, 9, 80}}
	rng := rand.New(rand.NewSource(31))
	ref64 := fmmfam.NewMultiplier(cfg, fmmfam.PaperArch())
	ref32 := fmmfam.NewMultiplier32(cfg, fmmfam.PaperArch())
	p64 := newWireProducts(t, rng, ref64, shapes)
	p32 := newWireProducts(t, rng, ref32, shapes)
	if err := errors.Join(ref64.Close(), ref32.Close()); err != nil {
		t.Fatalf("reference close: %v", err)
	}

	const clients = 16
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			check := func(what string, status int, got []byte, err error, want []byte) bool {
				if err != nil || status != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("client %d %s: status %d, err %v, %d bytes equal to the direct product: %t", g, what, status, err, len(got), bytes.Equal(got, want))
					return false
				}
				return true
			}
			for it := 0; it < 3*len(shapes); it++ {
				i := (g + it) % len(shapes)
				// Frames alternate dtypes, so a batch of four mixes them.
				pick := func(j int) wireProduct {
					if j%2 == 0 {
						return p64[j%len(shapes)]
					}
					return p32[j%len(shapes)]
				}
				p := pick(g + it)
				status, got, err := roundTrip(hc, http.MethodPost, h.URL+"/v1/multiply", p.req)
				if !check("multiply", status, got, err, p.want) {
					return
				}
				body := binary.LittleEndian.AppendUint32(nil, 4)
				var want []byte
				for j := i; j < i+4; j++ {
					body, want = append(body, pick(j).req...), append(want, pick(j).want...)
				}
				status, got, err = roundTrip(hc, http.MethodPost, h.URL+"/v1/batch", body)
				if !check("batch", status, got, err, want) {
					return
				}
				status, got, err = asyncRoundTrip(hc, h.URL, p.req)
				if !check("async", status, got, err, p.want) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServeRentsAreReturned counts rents against returns across a run that
// takes every way out of the data path: each malformed row, a 429 at each
// compute endpoint, a client that hangs up in the middle of a payload, and
// well-formed requests of all three kinds.
func TestServeRentsAreReturned(t *testing.T) {
	cfg := serveCfg()
	cfg.AdmissionDepth = 1
	cfg.CoalesceWindow = -1 // direct dispatch keeps slot accounting deterministic
	cfg.Threads = 1
	h := startHarness(t, cfg)
	defer h.Close()
	mats := serve.CountMats(h.Server)
	hc := http.DefaultClient

	rng := rand.New(rand.NewSource(77))
	small := serve.AppendRequest[float64](nil, fmmfam.NewMatrix(2, 3), fmmfam.NewMatrix(3, 2))
	for _, tc := range malformedCases(small) {
		if got := tc.post(t, h); got != tc.want {
			t.Fatalf("POST %s (%s) = %d, want %d", tc.path, tc.name, got, tc.want)
		}
	}

	// One slow async product holds the only admission slot: every endpoint
	// refuses with its operands already read into rented matrices.
	a, b := fmmfam.NewMatrix(384, 384), fmmfam.NewMatrix(384, 384)
	a.FillRand(rng)
	b.FillRand(rng)
	slow := serve.AppendRequest[float64](nil, a, b)
	status, out, err := roundTrip(hc, http.MethodPost, h.URL+"/v1/async", slow)
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("slow async submit: status %d, err %v", status, err)
	}
	var submitted map[string]string
	if err := json.Unmarshal(out, &submitted); err != nil {
		t.Fatalf("slow async submit response %q: %v", out, err)
	}
	for _, refused := range []struct {
		path string
		body []byte
	}{
		{"/v1/multiply", small},
		{"/v1/batch", append(binary.LittleEndian.AppendUint32(nil, 2), append(append([]byte(nil), small...), small...)...)},
		{"/v1/async", small},
	} {
		if status, _, err := roundTrip(hc, http.MethodPost, h.URL+refused.path, refused.body); err != nil || status != http.StatusTooManyRequests {
			t.Fatalf("POST %s against a full gate: status %d, err %v, want 429", refused.path, status, err)
		}
	}
	if status, _, err := roundTrip(hc, http.MethodGet, h.URL+"/v1/async/"+submitted["id"], nil); err != nil || status != http.StatusOK {
		t.Fatalf("collect of the slow product: status %d, err %v", status, err)
	}

	// A client that hangs up mid-payload: the handler is inside its read of
	// A, holding both operands, when the connection dies.
	before, _ := mats()
	conn, err := net.Dial("tcp", strings.TrimPrefix(h.URL, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	fmt.Fprintf(conn, "POST /v1/multiply HTTP/1.1\r\nHost: fmm\r\nContent-Length: %d\r\n\r\n", len(slow))
	conn.Write(slow[:len(slow)/3])
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if rents, _ := mats(); rents >= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the handler never rented operands for the half-sent request")
		}
	}
	conn.Close()

	// Well-formed traffic last, so the count also covers the success paths.
	cl := h.Client()
	cl.Retry429 = 20
	c := fmmfam.NewMatrix(384, 384)
	if err := cl.Multiply(c, a, b); err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	if err := cl.MultiplyBatch([]fmmfam.BatchJob{{C: fmmfam.NewMatrix(384, 384), A: a, B: b}, {C: fmmfam.NewMatrix(384, 384), A: b, B: a}}); err != nil {
		t.Fatalf("MultiplyBatch: %v", err)
	}
	hnd, err := cl.SubmitAsync(fmmfam.NewMatrix(384, 384), a, b)
	if err == nil {
		err = hnd.Collect()
	}
	if err != nil {
		t.Fatalf("async: %v", err)
	}
	checkMatsReturned(t, mats)
}

// discard is a ResponseWriter that drops the body.
type discard struct {
	hdr    http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.hdr }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// allocBytesPerRun is testing.AllocsPerRun in bytes: one warm-up call, then
// the mean heap bytes allocated per call, by every goroutine of the process.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestServeAllocationIndependentOfPayload pins that a warm /v1/multiply
// allocates a fixed few kilobytes — the mux, the header map, the admission
// bookkeeping — whatever the size of the matrices: a 256³ request (1.5 MiB
// of payload and result) may cost no more than 1 KiB over a 32³ one.
func TestServeAllocationIndependentOfPayload(t *testing.T) {
	cfg := fmmfam.DefaultConfig()
	cfg.Threads = 2
	s, err := serve.New(cfg, fmmfam.PaperArch())
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer s.Close()
	perRequest := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		a, b := fmmfam.NewMatrix(n, n), fmmfam.NewMatrix(n, n)
		a.FillRand(rng)
		b.FillRand(rng)
		frame := serve.AppendRequest[float64](nil, a, b)
		body := bytes.NewReader(frame)
		req := httptest.NewRequest(http.MethodPost, "/v1/multiply", body)
		w := &discard{hdr: make(http.Header)}
		run := func() {
			body.Reset(frame)
			req.Body = io.NopCloser(body)
			clear(w.hdr)
			w.status = http.StatusOK
			s.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("%d³ multiply: status %d", n, w.status)
			}
		}
		return allocBytesPerRun(20, run)
	}
	small, large := perRequest(32), perRequest(256)
	t.Logf("bytes allocated per warm /v1/multiply: %.0f at 32³, %.0f at 256³", small, large)
	if large > 16<<10 {
		t.Errorf("a warm 256³ /v1/multiply allocates %.0f bytes, want under 16 KiB", large)
	}
	if large > small+1<<10 {
		t.Errorf("a 256³ /v1/multiply allocates %.0f bytes against %.0f at 32³: allocation scales with the payload", large, small)
	}
}
