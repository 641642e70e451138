package serve

import (
	"cmp"
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
// it are refused with 413: on the declared length before anything is read,
// or at the cap while streaming a body that declared none.
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
	l64 lane[float64]
	l32 lane[float32]
	mux *http.ServeMux

	// admit is the admission gate: a slot is held for the duration of every
	// compute request (for async, until its Future resolves), and an empty
	// channel means the next request is refused with 429 + Retry-After —
	// the async queue's backpressure semantics, with rejection in place of
	// blocking (a blocked handler would just hide the queue in the TCP
	// accept backlog). Its capacity is the resolved Config.AdmissionDepth.
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

// matLender is where a lane's operand and result matrices come from and go
// back to: its multiplier's engine scratch list. The data path reaches the
// multiplier through these two methods so the ownership tests can count them.
type matLender[E matrix.Element] interface {
	RentMat(rows, cols int) matrix.Mat[E]
	ReturnMat(m matrix.Mat[E])
}

// lane is one precision's half of a Server: the engine, the coalescer in
// front of it (nil when coalescing is disabled) and the engine again as the
// store every matrix of a request is rented from. Who owns a rented matrix
// when is in the package comment; in short, whoever rented it returns it, on
// every path out, once the engine can no longer touch it.
type lane[E matrix.Element] struct {
	mul  *fmmfam.GenericMultiplier[E]
	co   *coalescer[E]
	mats matLender[E]
}

// newLane builds one precision's lane from a Config whose serve knobs New
// has resolved: a positive CoalesceWindow puts a coalescer in front.
func newLane[E matrix.Element](cfg fmmfam.Config, arch fmmfam.Arch) lane[E] {
	mul := fmmfam.NewGenericMultiplier[E](cfg, arch)
	ln := lane[E]{mul: mul, mats: mul}
	if cfg.CoalesceWindow > 0 {
		ln.co = newCoalescer(mul, cfg.CoalesceWindow, cfg.CoalesceMaxJobs)
	}
	return ln
}

// pendingAsync is one submitted-but-uncollected async result: the engine
// future and what to do with its C once resolved.
type pendingAsync struct {
	f *fmmfam.Future
	// reply streams C's result frame to w — nil when the product failed and
	// there is nothing to send — and returns C to the scratch list. Called at
	// most once, after f has resolved.
	reply func(w http.ResponseWriter)
}

// New builds a Server from cfg: both engines (the same blocking, threads,
// and serving knobs at each precision), the per-dtype coalescers, and the
// admission gate. cfg's serve knobs (CoalesceWindow, CoalesceMaxJobs,
// AdmissionDepth) take their defaults here, a zero knob meaning its
// fmmfam.Default* constant; Validate has range-checked them. cfg.QueueDepth
// is floored to the admission depth so the wire layer's 429 gate always trips
// before MulAddAsync's blocking backpressure — a wire client is never
// silently parked on the internal queue.
func New(cfg fmmfam.Config, arch fmmfam.Arch) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.CoalesceWindow = cmp.Or(cfg.CoalesceWindow, fmmfam.DefaultCoalesceWindow)
	cfg.CoalesceMaxJobs = cmp.Or(cfg.CoalesceMaxJobs, fmmfam.DefaultCoalesceMaxJobs)
	cfg.AdmissionDepth = cmp.Or(cfg.AdmissionDepth, fmmfam.DefaultAdmissionDepth)
	cfg.QueueDepth = max(cfg.QueueDepth, cfg.AdmissionDepth)
	s := &Server{
		l64:   newLane[float64](cfg, arch),
		l32:   newLane[float32](cfg, arch),
		admit: make(chan struct{}, cfg.AdmissionDepth),
		hist: map[string]*histogram{
			"multiply":      new(histogram),
			"batch":         new(histogram),
			"async-submit":  new(histogram),
			"async-collect": new(histogram),
			"stats":         new(histogram),
		},
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
	if s.closed.CompareAndSwap(false, true) && s.l64.co != nil {
		s.l64.co.close()
		s.l32.co.close()
	}
	s.watchers.Wait()
	return errors.Join(s.l64.mul.Close(), s.l32.mul.Close())
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
		s.refuse(w, fmt.Errorf("serve: admission queue full (depth %d); retry after %ds", cap(s.admit), retryAfterSeconds))
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

// openBody starts a compute request's body: a declared length past
// maxBodyBytes is refused unread, and an undeclared one is capped at it.
func openBody(w http.ResponseWriter, r *http.Request) (io.Reader, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, fmt.Errorf("%w: declared body of %d bytes, cap %d", ErrTooLarge, r.ContentLength, int64(maxBodyBytes))
	}
	return http.MaxBytesReader(w, r.Body, maxBodyBytes), nil
}

// readErr names a failed body read; a body that ends early is a truncated
// frame.
func readErr(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: body ends inside the %s", ErrTruncated, what)
	}
	return fmt.Errorf("serve: reading the %s: %w", what, err)
}

// readHeader reads the next request frame's header from body and validates
// it exactly as DecodeRequest does, so a frame that will be refused is
// refused on these 17 bytes: nothing is rented and no payload is read first.
func readHeader(body io.Reader) (Header, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return Header{}, readErr(err, "frame header")
	}
	h, err := DecodeHeader(hdr[:])
	if err != nil {
		return h, err
	}
	return h, h.checkRequest()
}

// beginSingle starts a one-frame request (/v1/multiply, /v1/async): the body
// opened, the frame's header read and validated and — when the request
// declared its length — held to the frame's. It reports failure having sent
// the error.
func (s *Server) beginSingle(w http.ResponseWriter, r *http.Request) (body io.Reader, h Header, ok bool) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrServerClosed)
		return nil, h, false
	}
	body, err := openBody(w, r)
	if err == nil {
		h, err = readHeader(body)
	}
	if want := h.reqBytes(); err == nil && r.ContentLength >= 0 && r.ContentLength-headerLen != want {
		err = h.lengthError(r.ContentLength-headerLen, want)
	}
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return nil, h, false
	}
	return body, h, true
}

// expectEOF checks that the body ends where its last frame did. A declared
// length was already held to the frames'; this is the same check for a body
// that declared none.
func expectEOF(body io.Reader) error {
	var one [1]byte
	_, err := io.ReadFull(body, one[:])
	switch {
	case err == nil:
		return fmt.Errorf("%w: body continues past its last frame", ErrTrailing)
	case errors.Is(err, io.EOF):
		return nil
	}
	return readErr(err, "end of the body")
}

// readOperands rents A and B for the validated header h and streams the
// frame's payload into them. On error nothing stays rented.
func readOperands[E matrix.Element](ln *lane[E], body io.Reader, h Header) (a, b matrix.Mat[E], err error) {
	a = ln.mats.RentMat(h.M, h.K)
	b = ln.mats.RentMat(h.K, h.N)
	if err = readElems(body, a); err == nil {
		err = readElems(body, b)
	}
	if err != nil {
		ln.mats.ReturnMat(a)
		ln.mats.ReturnMat(b)
		return matrix.Mat[E]{}, matrix.Mat[E]{}, readErr(err, "frame payload")
	}
	return a, b, nil
}

// readFrame is readOperands for a body's only frame: the body must end where
// the frame does.
func readFrame[E matrix.Element](ln *lane[E], body io.Reader, h Header) (a, b matrix.Mat[E], err error) {
	if a, b, err = readOperands(ln, body, h); err != nil {
		return a, b, err
	}
	if err = expectEOF(body); err != nil {
		ln.mats.ReturnMat(a)
		ln.mats.ReturnMat(b)
		return matrix.Mat[E]{}, matrix.Mat[E]{}, err
	}
	return a, b, nil
}

// rentResult rents the zeroed C of a·b: the wire computes C = A·B through
// the engine's C += A·B, and clients fold the product into their accumulator
// locally.
func rentResult[E matrix.Element](ln *lane[E], a, b matrix.Mat[E]) matrix.Mat[E] {
	c := ln.mats.RentMat(a.Rows, b.Cols)
	c.Zero()
	return c
}

// resultLen is the length of c's result frame.
func resultLen[E matrix.Element](c matrix.Mat[E]) int64 {
	return headerLen + int64(c.Rows)*int64(c.Cols)*int64(matrix.DtypeOf[E]().Size())
}

// startResults sends the header of a 200 response carrying n bytes of result
// frames.
func startResults(w http.ResponseWriter, n int64) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
}

// writeResult streams c's result frame to w: the header, then c's storage. A
// write error means the client went away; there is no one left to tell.
func writeResult[E matrix.Element](w io.Writer, c matrix.Mat[E]) {
	var hdr [headerLen]byte
	putHeader(&hdr, matrix.DtypeOf[E](), c.Rows, c.Cols, 0)
	if _, err := w.Write(hdr[:]); err == nil {
		_ = writeElems(w, c)
	}
}

// computeStatus maps an engine failure to its HTTP status.
func computeStatus(err error) int {
	if errors.Is(err, ErrServerClosed) || errors.Is(err, fmmfam.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// dispatch routes one multiply to the engine: problems within
// coalesceSizeLimit join the coalescing window (when enabled), everything
// else goes straight to MulAdd, which cuts it into width-1 tiles across the
// pool where they fit and runs it whole at width 1 where not. Either way it
// returns after the product has run.
func dispatch[E matrix.Element](ln *lane[E], c, a, b matrix.Mat[E]) error {
	if ln.co != nil && a.Rows <= coalesceSizeLimit && a.Cols <= coalesceSizeLimit && b.Cols <= coalesceSizeLimit {
		return ln.co.submit(c, a, b)
	}
	return ln.mul.MulAdd(c, a, b)
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, h, ok := s.beginSingle(w, r)
	if !ok {
		return
	}
	if h.Dtype == matrix.Float32 {
		multiplyOn(s, &s.l32, w, body, h, start)
	} else {
		multiplyOn(s, &s.l64, w, body, h, start)
	}
}

// multiplyOn is /v1/multiply past the header, on the header's lane: payload
// into rented operands, admission, product, result out of the rented C.
func multiplyOn[E matrix.Element](s *Server, ln *lane[E], w http.ResponseWriter, body io.Reader, h Header, start time.Time) {
	a, b, err := readFrame(ln, body, h)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	defer ln.mats.ReturnMat(a)
	defer ln.mats.ReturnMat(b)
	if !s.acquire(w) {
		return
	}
	defer s.release()
	c := rentResult(ln, a, b)
	defer ln.mats.ReturnMat(c)
	err = dispatch(ln, c, a, b)
	s.finish("multiply", start, err)
	if err != nil {
		writeError(w, computeStatus(err), err)
		return
	}
	startResults(w, resultLen(c))
	writeResult(w, c)
}

// batch is one /v1/batch request in the making: its jobs per engine, and the
// dtype of each frame in request order — enough to walk the results back out
// in that order.
type batch struct {
	order  []matrix.Dtype
	jobs64 []fmmfam.BatchJob
	jobs32 []fmmfam.BatchJob32
}

// free returns every matrix the batch rented.
func (bt *batch) free(s *Server) {
	returnJobs(&s.l64, bt.jobs64)
	returnJobs(&s.l32, bt.jobs32)
}

func returnJobs[E matrix.Element](ln *lane[E], jobs []fmmfam.GenericBatchJob[E]) {
	for _, j := range jobs {
		ln.mats.ReturnMat(j.A)
		ln.mats.ReturnMat(j.B)
		if j.C.Data != nil {
			ln.mats.ReturnMat(j.C)
		}
	}
}

// readBatch reads a batch body (uint32 count + count request frames) into
// bt, frame by frame: header, checks, then payload into rented operands. A
// declared length is held to the frames' as their headers arrive — a frame
// that would run past it, or a last frame that stops short of it, is refused
// before its payload is read — and the batch's budgets are enforced the same
// way: its payloads together, and the results it names together (every C is
// rented at once when the batch runs), are each held to one frame's cap,
// MaxFrameElems. On error the caller frees what bt holds so far.
func (s *Server) readBatch(body io.Reader, declared int64, bt *batch) error {
	var cnt [4]byte
	if _, err := io.ReadFull(body, cnt[:]); err != nil {
		return readErr(err, "uint32 batch count")
	}
	count := int(binary.LittleEndian.Uint32(cnt[:]))
	if count > maxBatchFrames {
		return fmt.Errorf("%w: batch count %d, cap %d", ErrTooLarge, count, maxBatchFrames)
	}
	bt.order = make([]matrix.Dtype, 0, count)
	left := declared - int64(len(cnt)) // declared bytes not yet accounted for
	var totalElems, totalRes int64
	for i := 0; i < count; i++ {
		h, err := readHeader(body)
		if err != nil {
			return fmt.Errorf("batch frame %d: %w", i, err)
		}
		if totalElems += h.reqElems(); totalElems > MaxFrameElems {
			return fmt.Errorf("%w: batch payload %d elements by frame %d, cap %d", ErrTooLarge, totalElems, i, MaxFrameElems)
		}
		if totalRes += h.resElems(); totalRes > MaxFrameElems {
			return fmt.Errorf("%w: batch results %d elements by frame %d, cap %d", ErrTooLarge, totalRes, i, MaxFrameElems)
		}
		if declared >= 0 {
			// The frames still to come are a header each at the least.
			later := int64(count-1-i) * headerLen
			if have, want := left-headerLen-later, h.reqBytes(); have < want || (later == 0 && have > want) {
				return fmt.Errorf("batch frame %d: %w", i, h.lengthError(have, want))
			}
			left -= headerLen + h.reqBytes()
		}
		if h.Dtype == matrix.Float32 {
			bt.jobs32, err = appendJob(&s.l32, bt.jobs32, body, h)
		} else {
			bt.jobs64, err = appendJob(&s.l64, bt.jobs64, body, h)
		}
		if err != nil {
			return fmt.Errorf("batch frame %d: %w", i, err)
		}
		bt.order = append(bt.order, h.Dtype)
	}
	return expectEOF(body)
}

// appendJob reads one frame's operands and appends its job, C still unrented.
func appendJob[E matrix.Element](ln *lane[E], jobs []fmmfam.GenericBatchJob[E], body io.Reader, h Header) ([]fmmfam.GenericBatchJob[E], error) {
	a, b, err := readOperands(ln, body, h)
	if err != nil {
		return jobs, err
	}
	return append(jobs, fmmfam.GenericBatchJob[E]{A: a, B: b}), nil
}

// runJobs rents every job's C and runs the jobs as one MulAddBatch.
func runJobs[E matrix.Element](ln *lane[E], jobs []fmmfam.GenericBatchJob[E]) error {
	if len(jobs) == 0 {
		return nil
	}
	for i := range jobs {
		jobs[i].C = rentResult(ln, jobs[i].A, jobs[i].B)
	}
	return ln.mul.MulAddBatch(jobs)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrServerClosed)
		return
	}
	// Every frame is read and checked before admission so a malformed batch
	// never holds a slot. Jobs may mix dtypes; each group dispatches through
	// its engine's batch pool, and the response frames keep request order.
	var bt batch
	defer bt.free(s)
	body, err := openBody(w, r)
	if err == nil {
		err = s.readBatch(body, r.ContentLength, &bt)
	}
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	if err = runJobs(&s.l64, bt.jobs64); err == nil {
		err = runJobs(&s.l32, bt.jobs32)
	}
	s.finish("batch", start, err)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	var n int64
	for _, j := range bt.jobs64 {
		n += resultLen(j.C)
	}
	for _, j := range bt.jobs32 {
		n += resultLen(j.C)
	}
	startResults(w, n)
	i64, i32 := 0, 0
	for _, dt := range bt.order {
		if dt == matrix.Float32 {
			writeResult(w, bt.jobs32[i32].C)
			i32++
		} else {
			writeResult(w, bt.jobs64[i64].C)
			i64++
		}
	}
}

// asyncPendingCap bounds submitted-but-uncollected async results so clients
// that never collect cannot grow server memory without bound; at the cap,
// submissions are refused with 429 like an admission failure, before any
// work is queued.
func (s *Server) asyncPendingCap() int { return 4 * cap(s.admit) }

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
	body, h, ok := s.beginSingle(w, r)
	if !ok {
		return
	}
	if h.Dtype == matrix.Float32 {
		submitOn(s, &s.l32, w, body, h, start)
	} else {
		submitOn(s, &s.l64, w, body, h, start)
	}
}

// submitOn is /v1/async past the header, on the header's lane.
func submitOn[E matrix.Element](s *Server, ln *lane[E], w http.ResponseWriter, body io.Reader, h Header, start time.Time) {
	a, b, err := readFrame(ln, body, h)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	// Reserve the pending-table place first: once a client stops collecting,
	// later submissions are refused here, before they take an admission slot
	// or reach the engine.
	id, held := s.reserveAsync()
	if id == 0 {
		ln.mats.ReturnMat(a)
		ln.mats.ReturnMat(b)
		s.refuse(w, fmt.Errorf("serve: %d uncollected async results (cap %d); collect or retry after %ds", held, s.asyncPendingCap(), retryAfterSeconds))
		return
	}
	if !s.acquire(w) {
		s.settleAsync(id, nil)
		ln.mats.ReturnMat(a)
		ln.mats.ReturnMat(b)
		return
	}
	// The admission slot is held until the Future resolves, not until this
	// handler returns — async work in flight is still in-flight work — and so
	// are the operands. C stays with the pending entry until it is collected.
	c := rentResult(ln, a, b)
	p := &pendingAsync{
		f: ln.mul.MulAddAsync(c, a, b),
		reply: func(w http.ResponseWriter) {
			if w != nil {
				startResults(w, resultLen(c))
				writeResult(w, c)
			}
			ln.mats.ReturnMat(c)
		},
	}
	s.settleAsync(id, p)
	s.watchAsync(p.f, func() {
		ln.mats.ReturnMat(a)
		ln.mats.ReturnMat(b)
	})
	s.finish("async-submit", start, nil)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": strconv.FormatUint(id, 10)})
}

// watchAsync returns the submission's operands (done) and releases its
// admission slot when its Future resolves. The watcher is counted so Close
// can wait every slot release out before draining the engines.
func (s *Server) watchAsync(f *fmmfam.Future, done func()) {
	s.watchers.Add(1)
	go func() { //fmm:go-ok: service-lifecycle watcher, bounded by AdmissionDepth and joined by Close — not compute fan-out
		defer s.watchers.Done()
		<-f.Done()
		done()
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
		// dropped (collect-once), the engine work completes regardless — and
		// may still be writing C, which is therefore left to the collector
		// rather than returned.
		s.finish("async-collect", start, r.Context().Err())
		return
	}
	err = p.f.Wait()
	s.finish("async-collect", start, err)
	if err != nil {
		p.reply(nil)
		writeError(w, computeStatus(err), err)
		return
	}
	p.reply(w)
}

// Stats snapshots the server's counters, per-endpoint latency histograms and
// both engines' MultiplierStats — the body GET /v1/stats serves.
func (s *Server) Stats() Stats {
	st := Stats{
		Completed:    s.completed.Load(),
		Errors:       s.errcount.Load(),
		Endpoints:    make(map[string]HistogramSnapshot, len(s.hist)),
		Admission:    AdmissionStats{Depth: cap(s.admit), Admitted: s.admitted.Load(), Rejected: s.rejected.Load(), InFlight: len(s.admit)},
		Multiplier:   s.l64.mul.Stats(),
		Multiplier32: s.l32.mul.Stats(),
		CPU:          fmmfam.HostCPU(),
		Kernels:      fmmfam.KernelStatuses(),
	}
	for name, h := range s.hist {
		st.Endpoints[name] = h.snapshot()
	}
	if s.l64.co != nil {
		st.Coalesce64 = s.l64.co.snapshot()
		st.Coalesce32 = s.l32.co.snapshot()
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
