package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fmmfam"
	"fmmfam/internal/matrix"
)

// maxBodyBytes caps a compute endpoint's request body: the frame payload
// cap plus generous header slack for a maximally-split batch. Bodies past
// it are refused with 413 before being buffered.
const maxBodyBytes = int64(8*MaxFrameElems) + int64(headerLen)*(maxBatchFrames+1) + 4

// maxBatchFrames caps the frame count of one /v1/batch request; the window
// amortization argument saturates long before this, and the cap keeps a
// hostile count prefix from sizing a huge allocation.
const maxBatchFrames = 4096

// retryAfterSeconds is the Retry-After hint sent with every 429: long
// enough for a window's worth of in-flight work to drain on any plausible
// machine, short enough that honoring it doesn't idle a client.
const retryAfterSeconds = 1

// Server is the wire front-end: an http.Handler serving the multiply,
// batch, async, and stats endpoints over a float64 + float32 multiplier
// pair built from one Config. It does not own a listener — hand it to an
// http.Server (or servetest.Start), shut that down first, then call Close
// to drain compute. See the package comment for the endpoint map.
type Server struct {
	params fmmfam.ServeParams
	mu64   *fmmfam.Multiplier
	mu32   *fmmfam.Multiplier32
	co64   *coalescer[float64] // nil when coalescing is disabled
	co32   *coalescer[float32]
	mux    *http.ServeMux

	// admit is the admission gate: a slot is held for the duration of every
	// compute request (for async, until its Future resolves), and an empty
	// channel means the next request is refused with 429 + Retry-After —
	// the async queue's backpressure semantics, with rejection in place of
	// blocking (a blocked handler would just hide the queue in the TCP
	// accept backlog).
	admit    chan struct{}
	admitted atomic.Uint64
	rejected atomic.Uint64

	completed atomic.Uint64
	errcount  atomic.Uint64
	hist      map[string]*histogram // fixed keys after construction; values are atomic

	closed   atomic.Bool
	watchers sync.WaitGroup // async future-watcher goroutines

	asyncs struct {
		sync.Mutex
		m    map[uint64]*pendingAsync
		next uint64
	}
}

// pendingAsync is one submitted-but-uncollected async result: the engine
// future and the encoder that frames its C once resolved.
type pendingAsync struct {
	f     *fmmfam.Future
	frame func() []byte
}

// New builds a Server from cfg: both engines (the same blocking, threads,
// and serving knobs at each precision), the per-dtype coalescers, and the
// admission gate, with the serve knobs' defaults filled by cfg.ServeParams.
// cfg.QueueDepth is floored to the admission depth so the wire layer's 429
// gate always trips before MulAddAsync's blocking backpressure — a wire
// client is never silently parked on the internal queue.
func New(cfg fmmfam.Config, arch fmmfam.Arch) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params, err := cfg.ServeParams()
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth < params.AdmissionDepth {
		cfg.QueueDepth = params.AdmissionDepth
	}
	s := &Server{
		params: params,
		mu64:   fmmfam.NewMultiplier(cfg, arch),
		mu32:   fmmfam.NewMultiplier32(cfg, arch),
		admit:  make(chan struct{}, params.AdmissionDepth),
		hist: map[string]*histogram{
			"multiply":      new(histogram),
			"batch":         new(histogram),
			"async-submit":  new(histogram),
			"async-collect": new(histogram),
			"stats":         new(histogram),
		},
	}
	if params.Coalesce() {
		s.co64 = newCoalescer[float64](s.mu64, params)
		s.co32 = newCoalescer[float32](s.mu32, params)
	}
	s.asyncs.m = make(map[uint64]*pendingAsync)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/multiply", s.handleMultiply)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/async", s.handleAsyncSubmit)
	s.mux.HandleFunc("GET /v1/async/{id}", s.handleAsyncCollect)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// Addr returns the resolved listen address (for the owner to listen on;
// the Server itself never opens a socket).
func (s *Server) Addr() string { return s.params.Addr }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the server's compute: the open coalescing windows flush (their
// waiters complete normally), async future watchers are waited out, and both
// engines' async queues drain through Multiplier.Close. Submissions racing
// or following Close fail with ErrServerClosed (HTTP 503) instead of
// hanging. Close does not touch the HTTP listener — the owner shuts its
// http.Server down first (completing in-flight handlers), then calls Close.
// Idempotent and safe for concurrent use.
func (s *Server) Close() error {
	if s.closed.CompareAndSwap(false, true) && s.co64 != nil {
		s.co64.close()
		s.co32.close()
	}
	s.watchers.Wait()
	return errors.Join(s.mu64.Close(), s.mu32.Close())
}

// writeError sends a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeStatus maps a frame-decode failure to its HTTP status.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.Is(err, ErrTooLarge) || errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// acquire takes an admission slot, or reports failure having sent the 429.
func (s *Server) acquire(w http.ResponseWriter) bool {
	select {
	case s.admit <- struct{}{}:
		s.admitted.Add(1)
		return true
	default:
		s.refuse(w, fmt.Errorf("serve: admission queue full (depth %d); retry after %ds", s.params.AdmissionDepth, retryAfterSeconds))
		return false
	}
}

// refuse counts a rejection and sends the 429 with its Retry-After hint.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeError(w, http.StatusTooManyRequests, err)
}

func (s *Server) release() { <-s.admit }

// finish records one compute request's outcome and latency.
func (s *Server) finish(endpoint string, start time.Time, err error) {
	s.hist[endpoint].observe(time.Since(start))
	if err != nil {
		s.errcount.Add(1)
	} else {
		s.completed.Add(1)
	}
}

// readBody reads a compute request's body under the size cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

// dispatch routes one decoded multiply to the engine: sub-threshold
// problems join the coalescing window (when enabled), everything else goes
// straight to MulAdd and picks up auto-sharding and intra-plan parallelism
// there. The C it returns is freshly allocated — the wire computes C = A·B,
// and clients fold the product into their accumulator locally.
func dispatch[E matrix.Element](mul *fmmfam.GenericMultiplier[E], co *coalescer[E], a, b matrix.Mat[E]) (matrix.Mat[E], error) {
	c := matrix.New[E](a.Rows, b.Cols)
	if co != nil && a.Rows <= coalesceSizeLimit && a.Cols <= coalesceSizeLimit && b.Cols <= coalesceSizeLimit {
		return c, co.submit(c, a, b)
	}
	return c, mul.MulAdd(c, a, b)
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrServerClosed)
		return
	}
	buf, err := readBody(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	h, a64, b64, a32, b32, err := DecodeRequest(buf)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	var frame []byte
	if h.Dtype == matrix.Float32 {
		var c matrix.Mat[float32]
		c, err = dispatch(s.mu32, s.co32, a32, b32)
		if err == nil {
			frame = AppendResult(buf[:0], c)
		}
	} else {
		var c matrix.Mat[float64]
		c, err = dispatch(s.mu64, s.co64, a64, b64)
		if err == nil {
			frame = AppendResult(buf[:0], c)
		}
	}
	s.finish("multiply", start, err)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrServerClosed) || errors.Is(err, fmmfam.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(frame)
}

// batchFrames splits a batch body (uint32 count + count request frames)
// into its per-frame byte slices, validating the total payload budget.
func batchFrames(buf []byte) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: batch body %d bytes, need a uint32 count", ErrTruncated, len(buf))
	}
	count := binary.LittleEndian.Uint32(buf)
	if count == 0 {
		return nil, nil
	}
	if count > maxBatchFrames {
		return nil, fmt.Errorf("%w: batch count %d, cap %d", ErrTooLarge, count, maxBatchFrames)
	}
	rest := buf[4:]
	frames := make([][]byte, 0, count)
	var totalElems int64
	for i := uint32(0); i < count; i++ {
		h, err := DecodeHeader(rest)
		if err != nil {
			return nil, fmt.Errorf("batch frame %d: %w", i, err)
		}
		totalElems += h.reqElems()
		if totalElems > MaxFrameElems {
			return nil, fmt.Errorf("%w: batch payload %d elements by frame %d, cap %d", ErrTooLarge, totalElems, i, MaxFrameElems)
		}
		fl := int64(headerLen) + h.reqElems()*int64(h.Dtype.Size())
		if int64(len(rest)) < fl {
			return nil, fmt.Errorf("batch frame %d: %w: %d bytes left, frame needs %d", i, ErrTruncated, len(rest), fl)
		}
		frames = append(frames, rest[:fl])
		rest = rest[fl:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after batch frame %d", ErrTrailing, len(rest), count-1)
	}
	return frames, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrServerClosed)
		return
	}
	buf, err := readBody(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	frames, err := batchFrames(buf)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	// Decode every frame before admission so a malformed batch never holds
	// a slot. Jobs may mix dtypes; each group dispatches through its
	// engine's batch pool, and the response frames keep request order.
	type slot struct {
		dt  matrix.Dtype
		c64 matrix.Mat[float64]
		c32 matrix.Mat[float32]
	}
	slots := make([]slot, len(frames))
	var jobs64 []fmmfam.BatchJob
	var jobs32 []fmmfam.BatchJob32
	for i, fb := range frames {
		h, a64, b64, a32, b32, err := DecodeRequest(fb)
		if err != nil {
			writeError(w, decodeStatus(err), fmt.Errorf("batch frame %d: %w", i, err))
			return
		}
		slots[i].dt = h.Dtype
		if h.Dtype == matrix.Float32 {
			slots[i].c32 = matrix.New[float32](h.M, h.N)
			jobs32 = append(jobs32, fmmfam.BatchJob32{C: slots[i].c32, A: a32, B: b32})
		} else {
			slots[i].c64 = matrix.New[float64](h.M, h.N)
			jobs64 = append(jobs64, fmmfam.BatchJob{C: slots[i].c64, A: a64, B: b64})
		}
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	if len(jobs64) > 0 {
		err = s.mu64.MulAddBatch(jobs64)
	}
	if err == nil && len(jobs32) > 0 {
		err = s.mu32.MulAddBatch(jobs32)
	}
	s.finish("batch", start, err)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]byte, 0, len(buf))
	for _, sl := range slots {
		if sl.dt == matrix.Float32 {
			out = AppendResult(out, sl.c32)
		} else {
			out = AppendResult(out, sl.c64)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(out)
}

// asyncPendingCap bounds submitted-but-uncollected async results so clients
// that never collect cannot grow server memory without bound; at the cap,
// submissions are refused with 429 like an admission failure, before any
// work is queued.
func (s *Server) asyncPendingCap() int { return 4 * s.params.AdmissionDepth }

// reserveAsync claims a place in the pending table and returns its id (ids
// start at 1), or 0 and the uncollected count when the table is at its cap.
// The place is a nil entry — collect reads it as unknown — until settleAsync.
func (s *Server) reserveAsync() (id uint64, held int) {
	s.asyncs.Lock()
	defer s.asyncs.Unlock()
	if held = len(s.asyncs.m); held >= s.asyncPendingCap() {
		return 0, held
	}
	s.asyncs.next++
	s.asyncs.m[s.asyncs.next] = nil
	return s.asyncs.next, held
}

// settleAsync ends a reservation: with the submitted result to hold, or with
// nil to give the place back.
func (s *Server) settleAsync(id uint64, p *pendingAsync) {
	s.asyncs.Lock()
	defer s.asyncs.Unlock()
	if p == nil {
		delete(s.asyncs.m, id)
		return
	}
	s.asyncs.m[id] = p
}

func (s *Server) handleAsyncSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrServerClosed)
		return
	}
	buf, err := readBody(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	h, a64, b64, a32, b32, err := DecodeRequest(buf)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	// Reserve the pending-table place first: once a client stops collecting,
	// later submissions are refused here, before they take an admission slot
	// or reach the engine.
	id, held := s.reserveAsync()
	if id == 0 {
		s.refuse(w, fmt.Errorf("serve: %d uncollected async results (cap %d); collect or retry after %ds", held, s.asyncPendingCap(), retryAfterSeconds))
		return
	}
	if !s.acquire(w) {
		s.settleAsync(id, nil)
		return
	}
	// The admission slot is held until the Future resolves, not until this
	// handler returns — async work in flight is still in-flight work.
	p := &pendingAsync{}
	if h.Dtype == matrix.Float32 {
		c := matrix.New[float32](h.M, h.N)
		p.f = s.mu32.MulAddAsync(c, a32, b32)
		p.frame = func() []byte { return AppendResult(nil, c) }
	} else {
		c := matrix.New[float64](h.M, h.N)
		p.f = s.mu64.MulAddAsync(c, a64, b64)
		p.frame = func() []byte { return AppendResult(nil, c) }
	}
	s.settleAsync(id, p)
	s.watchAsync(p.f)
	s.finish("async-submit", start, nil)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": strconv.FormatUint(id, 10)})
}

// watchAsync releases the submission's admission slot when its Future
// resolves. The watcher is counted so Close can wait every slot release out
// before draining the engines.
func (s *Server) watchAsync(f *fmmfam.Future) {
	s.watchers.Add(1)
	go func() { //fmm:go-ok: service-lifecycle watcher, bounded by AdmissionDepth and joined by Close — not compute fan-out
		defer s.watchers.Done()
		<-f.Done()
		s.release()
	}()
}

func (s *Server) handleAsyncCollect(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad async id %q", r.PathValue("id")))
		return
	}
	s.asyncs.Lock()
	p := s.asyncs.m[id]
	// Collect-once: the result leaves the pending table on lookup, so a
	// concurrent duplicate collect gets 404 rather than two readers racing
	// one frame. A nil entry is a submission still reserving its place.
	if p != nil {
		delete(s.asyncs.m, id)
	}
	s.asyncs.Unlock()
	if p == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown or already-collected async id %d", id))
		return
	}
	select {
	case <-p.f.Done():
	case <-r.Context().Done():
		// Client went away mid-wait; the result is already detached and is
		// dropped (collect-once), the engine work completes regardless.
		s.finish("async-collect", start, r.Context().Err())
		return
	}
	err = p.f.Wait()
	s.finish("async-collect", start, err)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, fmmfam.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(p.frame())
}

// Stats snapshots the server's counters, per-endpoint latency histograms and
// both engines' MultiplierStats — the body GET /v1/stats serves.
func (s *Server) Stats() Stats {
	st := Stats{
		Completed:    s.completed.Load(),
		Errors:       s.errcount.Load(),
		Endpoints:    make(map[string]HistogramSnapshot, len(s.hist)),
		Admission:    AdmissionStats{Depth: s.params.AdmissionDepth, Admitted: s.admitted.Load(), Rejected: s.rejected.Load(), InFlight: len(s.admit)},
		Multiplier:   s.mu64.Stats(),
		Multiplier32: s.mu32.Stats(),
		CPU:          fmmfam.HostCPU(),
		Kernels:      fmmfam.KernelStatuses(),
	}
	for name, h := range s.hist {
		st.Endpoints[name] = h.snapshot()
	}
	if s.co64 != nil {
		st.Coalesce64 = s.co64.snapshot()
		st.Coalesce32 = s.co32.snapshot()
	}
	s.asyncs.Lock()
	st.AsyncPending = len(s.asyncs.m)
	s.asyncs.Unlock()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st := s.Stats()
	s.hist["stats"].observe(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
