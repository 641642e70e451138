package main

import "fmt"

// metricDecl declares one metric: the name later issues refer to, its unit,
// which direction is better, and — for end-to-end metrics — the share of the
// parent's median by which it may worsen before a change counts as a
// regression. BENCHMARK.json repeats these tables for the driver; a test
// keeps the two identical.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is an absolute difference, in the metric's unit, below which a
	// worsening never counts (-check and -compare only; the driver's file has
	// no place for it).
	Floor float64 `json:"-"`
}

// endToEnd is what a user of the stack sees, measured with tracing off:
// the metrics of the driver's result line. Every workload reports every one
// of them, and each has to repeat on every workload on a shared host (README
// "Why these estimators" has the spreads the bounds were set from). The
// issue's other three end-to-end numbers cannot ride in that line — every
// workload must print every metric of it, none may be 0 — so they are
// carried beside it: wireLatency below, and failed_share as the
// failed/attempted pair of every result line.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.25},
	{Name: "eff_gflops", Unit: "GFLOP/s", Better: "higher", Bound: 0.20},
	{Name: "speedup_vs_gemm", Unit: "ratio", Better: "higher", Bound: 0.10},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.03},
}

// wireLatency is the client-side latency of wire_mix's small-class single
// requests, measured in the untraced pass. Only wire_mix has it; its run
// prints it in the first output line, the report lists it with the
// end-to-end metrics, and -check and -compare gate it like them.
var wireLatency = []metricDecl{
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10},
}

// layers are this repo's packages, outermost first; every one gets a
// <layer>.self_share from the traced replay.
var layers = []string{"serve", "wire", "multiplier", "model", "shard", "sched", "fmmexec", "gemm", "kernel"}

// perLayer is measured by the traced run (-trace 1) from calls into each
// layer's exported functions. No bounds: these explain a change, they do
// not gate it.
var perLayer = func() []metricDecl {
	m := []metricDecl{
		{Name: "kernel.micro_gflops_f64", Unit: "GFLOP/s", Better: "higher"},
		{Name: "kernel.micro_gflops_f32", Unit: "GFLOP/s", Better: "higher"},
		{Name: "kernel.pack_a_gbs_1term", Unit: "GB/s", Better: "higher"},
		{Name: "kernel.pack_a_gbs_3term", Unit: "GB/s", Better: "higher"},
		{Name: "kernel.pack_b_gbs_1term", Unit: "GB/s", Better: "higher"},
		{Name: "kernel.pack_b_gbs_3term", Unit: "GB/s", Better: "higher"},
		{Name: "kernel.scatter_gbs", Unit: "GB/s", Better: "higher"},

		{Name: "gemm.eff_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "gemm.frac_of_micro_peak", Unit: "ratio", Better: "higher"},
		{Name: "gemm.fused_overhead", Unit: "ratio", Better: "lower"},
		{Name: "gemm.ops_per_byte_computed", Unit: "flop/B", Better: "higher"},
		{Name: "gemm.alloc_bytes_per_op", Unit: "B", Better: "lower"},

		{Name: "fmmexec.plan_eff_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "fmmexec.abc_eff_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "fmmexec.ab_eff_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "fmmexec.naive_eff_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "fmmexec.rel_err_max", Unit: "ratio", Better: "lower"},
		{Name: "fmmexec.alloc_bytes_per_op", Unit: "B", Better: "lower"},

		{Name: "model.select_us", Unit: "us", Better: "lower"},
		{Name: "model.pred_over_meas", Unit: "ratio", Better: "higher"},
		{Name: "model.pred_over_meas_calibrated", Unit: "ratio", Better: "higher"},
		{Name: "model.selection_regret", Unit: "ratio", Better: "lower"},

		{Name: "multiplier.dispatch_overhead_us", Unit: "us", Better: "lower"},
		{Name: "multiplier.plan_lookup_ns", Unit: "ns", Better: "lower"},
		{Name: "multiplier.plan_build_ms", Unit: "ms", Better: "lower"},
		{Name: "multiplier.cached_plans", Unit: "count", Better: "lower"},
		{Name: "multiplier.batch_jobs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "multiplier.async_roundtrip_us", Unit: "us", Better: "lower"},
		{Name: "multiplier.parallel_efficiency", Unit: "ratio", Better: "higher"},
		{Name: "multiplier.eff_gflops_p50", Unit: "GFLOP/s", Better: "higher"},
		{Name: "multiplier.op_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "multiplier.op_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "multiplier.peak_rss_mb", Unit: "MB", Better: "lower"},

		{Name: "shard.split_us", Unit: "us", Better: "lower"},
		{Name: "shard.tiles", Unit: "count", Better: "higher"},
		{Name: "shard.sharded_over_unsharded", Unit: "ratio", Better: "lower"},

		{Name: "sched.run_overhead_us_per_job", Unit: "us", Better: "lower"},
		{Name: "sched.pool_overhead_us_per_job", Unit: "us", Better: "lower"},

		{Name: "wire.encode_req_gbs", Unit: "GB/s", Better: "higher"},
		{Name: "wire.decode_req_gbs", Unit: "GB/s", Better: "higher"},
		{Name: "wire.encode_res_gbs", Unit: "GB/s", Better: "higher"},
		{Name: "wire.decode_res_gbs", Unit: "GB/s", Better: "higher"},
		{Name: "wire.bytes_per_req", Unit: "B", Better: "lower"},

		{Name: "serve.handler_p50_us", Unit: "us", Better: "lower"},
		{Name: "serve.transport_p50_us", Unit: "us", Better: "lower"},
		{Name: "serve.self_p50_us", Unit: "us", Better: "lower"},
		{Name: "serve.coalesce_wait_us", Unit: "us", Better: "lower"},
		{Name: "serve.jobs_per_window", Unit: "count", Better: "higher"},
		{Name: "serve.timer_flush_share", Unit: "ratio", Better: "lower"},
		{Name: "serve.rejected_share", Unit: "ratio", Better: "lower"},
		{Name: "serve.server_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.server_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.client_p50_small_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.client_p99_small_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.client_p99_all_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.eff_gflops_p50", Unit: "GFLOP/s", Better: "higher"},
		{Name: "serve.alloc_bytes_per_req", Unit: "B", Better: "lower"},
	}
	for _, l := range layers {
		m = append(m, metricDecl{Name: l + ".self_share", Unit: "ratio", Better: "lower"})
	}
	return append(m,
		metricDecl{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
		// The frozen reference's rate per thread (hostref.go); 0 without AVX2.
		metricDecl{Name: "host.ref_gflops", Unit: "GFLOP/s", Better: "higher"},
	)
}()

// measured is one metric value as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run, exactly the keys the
// driver's contract names.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// fill turns a name→value map into the printed form, attaching the declared
// units and refusing to print a metric that was not declared or to omit one
// that was.
func fill(decls []metricDecl, vals map[string]float64) (map[string]measured, error) {
	out := make(map[string]measured, len(decls))
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was declared but not measured", d.Name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not a finite number", d.Name)
		}
		out[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(decls) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s was measured but not declared", name)
			}
		}
	}
	return out, nil
}
