package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"time"

	"fmmfam"
	"fmmfam/internal/matrix"
	"fmmfam/serve"
	"fmmfam/serve/servetest"
)

// handlerPass sends every small-class single request of a client's pool
// straight into Server.ServeHTTP with an in-memory recorder — no socket —
// one at a time, and returns each call's microseconds.
func handlerPass(s *serve.Server, cl *wireClient) []float64 {
	var us []float64
	for _, rq := range cl.pool {
		if rq.class != classSmall {
			continue
		}
		body := appendRequest(nil, rq)
		req := httptest.NewRequest(http.MethodPost, rq.path(), bytes.NewReader(body))
		t0 := time.Now()
		s.ServeHTTP(httptest.NewRecorder(), req)
		us = append(us, time.Since(t0).Seconds()*1e6)
	}
	return us
}

// serveProbes fills the serve.* and wire.bytes_per_req numbers. Traffic
// numbers come from rounds already driven against w (closed loop, T
// clients); the handler, transport and coalescing numbers come from
// single-request passes over client 0's small-class requests.
func serveProbes(vals map[string]float64, w *wireMix, rounds []roundResult) error {
	st, err := w.stats() // before the single-request passes dilute the counters
	if err != nil {
		return err
	}
	var all, small, rates []float64
	var alloc, ops float64
	for _, r := range rounds {
		all = append(all, r.allMS...)
		small = append(small, r.smallMS...)
		rates = append(rates, r.flops/r.opSec/1e9)
		alloc += float64(r.alloc)
		ops += float64(r.ops - r.failed)
	}
	vals["serve.client_p50_small_ms"] = median(small)
	vals["serve.client_p99_small_ms"] = percentile(small, 99)
	vals["serve.client_p99_all_ms"] = percentile(all, 99)
	vals["serve.eff_gflops_p50"] = median(rates)
	vals["serve.alloc_bytes_per_req"] = alloc / ops
	windows := float64(st.Coalesce64.Batches + st.Coalesce32.Batches)
	vals["serve.jobs_per_window"] = float64(st.Coalesce64.Jobs+st.Coalesce32.Jobs) / windows
	vals["serve.timer_flush_share"] = float64(st.Coalesce64.TimerFlushes+st.Coalesce32.TimerFlushes) / windows
	vals["serve.rejected_share"] = float64(st.Admission.Rejected) / float64(st.Admission.Admitted+st.Admission.Rejected)
	vals["serve.server_p50_ms"] = st.Endpoints["multiply"].Quantile(0.5).Seconds() * 1e3
	vals["serve.server_p99_ms"] = st.Endpoints["multiply"].Quantile(0.99).Seconds() * 1e3

	var reqBytes, n float64
	for _, cl := range w.clients {
		for _, rq := range cl.pool {
			reqBytes += float64(len(appendRequest(nil, rq)))
			n++
		}
	}
	vals["wire.bytes_per_req"] = reqBytes / n

	cl := w.clients[0]
	handler := median(handlerPass(w.h.Server, cl))
	vals["serve.handler_p50_us"] = handler

	var loop, decode, encode, direct []float64
	mu64 := fmmfam.NewMultiplier(w.cfg, fmmfam.PaperArch())
	mu32 := fmmfam.NewMultiplier32(w.cfg, fmmfam.PaperArch())
	defer mu64.Close()
	defer mu32.Close()
	for _, rq := range cl.pool {
		if rq.class != classSmall {
			continue
		}
		body := appendRequest(nil, rq)
		us := func(f func()) float64 { return median(timeReps(3, 0, f)) * 1e6 }
		loop = append(loop, us(func() { cl.post(w.h.URL+rq.path(), body) }))
		decode = append(decode, us(func() { serve.DecodeRequest(body) }))
		f := rq.frames[0]
		if f.dt == matrix.Float32 {
			p := cl.small32[f.idx]
			c := matrix.New[float32](p.a.Rows, p.b.Cols)
			direct = append(direct, us(func() { mu32.MulAddBatch([]fmmfam.BatchJob32{{C: c, A: p.a, B: p.b}}) }))
			encode = append(encode, us(func() { serve.AppendResult(nil, c) }))
		} else {
			p := cl.small64[f.idx]
			c := matrix.New[float64](p.a.Rows, p.b.Cols)
			direct = append(direct, us(func() { mu64.MulAddBatch([]fmmfam.BatchJob{{C: c, A: p.a, B: p.b}}) }))
			encode = append(encode, us(func() { serve.AppendResult(nil, c) }))
		}
	}
	vals["serve.transport_p50_us"] = median(loop) - handler
	vals["serve.self_p50_us"] = handler - median(decode) - median(encode) - median(direct)

	// A second harness with coalescing off: what is left of the handler's
	// median is the time the default window makes a lone request wait.
	off := w.cfg
	off.CoalesceWindow = -1
	h2, err := servetest.Start(off, fmmfam.PaperArch())
	if err != nil {
		return err
	}
	handlerPass(h2.Server, cl) // plans
	vals["serve.coalesce_wait_us"] = handler - median(handlerPass(h2.Server, cl))
	return h2.Close()
}
