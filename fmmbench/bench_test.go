package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workloads.go")

// benchmarkJSON is the file the driver reads, with exactly its keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []endToEndDecl `json:"end_to_end"`
	PerLayer   []perLayerDecl `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func declared() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "fmmbench/run.sh"},
		Paths:      []string{"fmmbench"},
		RunSeconds: 16,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadDecl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, endToEndDecl{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, perLayerDecl{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSON: every metric and workload the program prints is
// declared in BENCHMARK.json and vice versa, within the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := declared()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(data))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables (go test -run TestBenchmarkJSON -update rewrites it)\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, need 2 to 8", n)
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, need 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, need 1 to 128", n)
	}
	for _, d := range append(append([]metricDecl(nil), gated...), perLayer...) {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", d)
	}
}

// TestSeedDeterminism: the same seed generates the same job list, another
// seed another one.
func TestSeedDeterminism(t *testing.T) {
	env := envFor(1)
	for _, w := range workloads {
		h := func(seed int64) uint64 {
			b := w.build(seed, env)
			defer b.close()
			return jobListHash(b.shapes())
		}
		a, b, c := h(7), h(7), h(8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x and then to %x", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same job list (%x)", w.Name, a)
		}
	}
}

// TestGridDims: the fixed shape sample stays inside its range and covers it.
func TestGridDims(t *testing.T) {
	lo, hi := math.MaxInt, 0
	for i := 0; i < batchJobs; i++ {
		m, k, n := gridDims(i, batchLo, batchHi)
		for _, d := range []int{m, k, n} {
			if d < batchLo || d > batchHi {
				t.Fatalf("point %d: dimension %d outside [%d,%d]", i, d, batchLo, batchHi)
			}
			lo, hi = min(lo, d), max(hi, d)
		}
	}
	if lo > batchLo+4 || hi < batchHi-4 {
		t.Errorf("256 points span only [%d,%d] of [%d,%d]", lo, hi, batchLo, batchHi)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {99, 4.96},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got == got {
		t.Errorf("percentile of nothing = %g, want NaN", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestFastest(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		n    int
		want float64
	}{
		{[]float64{3}, 5, 3},
		{[]float64{1, 9, 5}, 5, 5},                        // fewer than n: all of them
		{[]float64{8, 1, 2, 3, 4, 5, 6, 7}, 2, 7.5},       // unsorted
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0, 10}, // at least one
	} {
		if got := fastest(tc.xs, tc.n); got != tc.want {
			t.Errorf("fastest(%v, %d) = %g, want %g", tc.xs, tc.n, got, tc.want)
		}
	}
	if got := fastest(nil, 5); got == got {
		t.Errorf("fastest of nothing = %g, want NaN", got)
	}
	// The fast quartile: round(len/4) of them, at least one.
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 9, 5}, 9},
		{[]float64{8, 1, 2, 3, 4, 5, 6, 7}, 7.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 9}, // round(2.5) = 3 of 10
	} {
		if got := fastQuartile(tc.xs); got != tc.want {
			t.Errorf("fastQuartile(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestWorsening(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 90, "higher", 0.10},
		{100, 110, "higher", -0.10},
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
	} {
		if got := worsening(tc.a, tc.b, tc.better); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("worsening(%g, %g, %s) = %g, want %g", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}

// TestSelfShares: a layer's self time is its span minus what its children
// cover, a scaled child covers Duration·Scale, and rounds without a replay
// are left out.
func TestSelfShares(t *testing.T) {
	sp := func(id, parent int, name string, start, end int64, scale float64, replay bool) span {
		return span{ID: id, Parent: parent, Round: 0, Name: name, StartNS: start, EndNS: end, Scale: scale, Replay: replay}
	}
	spans := []span{
		sp(0, -1, "serve.request", 0, 100, 1, false),
		sp(1, 0, "wire.AppendRequest", 0, 10, 1, false),
		sp(2, 0, "serve.roundtrip", 10, 90, 1, false),
		sp(3, 2, "multiplier.MulAdd", 200, 260, 1, true), // replayed later, 60 long
		sp(4, 3, "gemm.Context.FusedMulAdd", 300, 305, 7, true),
		sp(5, 4, "kernel.Micro", 400, 401, 4, true),
		sp(6, -1, "serve.request", 500, 1500, 1, false), // never taken apart: not counted
	}
	got := selfShares(spans)
	want := map[string]float64{
		"serve":      (10 + 20) / 100.0, // root 100−10−80, round trip 80−60
		"wire":       10 / 100.0,
		"multiplier": (60 - 7*5) / 100.0,
		"gemm":       7 * (5 - 4*1) / 100.0,
		"kernel":     7 * 4 * 1 / 100.0,
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	total := 0.0
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("%s.self_share = %g, want %g", l, got[l], w)
		}
		total += got[l]
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %g; nothing was floored, so they should sum to 1", total)
	}

	// Replayed children that cover more than their parent measured leave it
	// no self time and share its duration in proportion, at every depth: the
	// layers never sum to more than the root.
	over := []span{
		sp(0, -1, "multiplier.MulAdd", 0, 10, 1, false),
		sp(1, 0, "shard.Split", 20, 23, 1, true),              // 3
		sp(2, 0, "fmmexec.Plan.MulAdd", 30, 42, 1, true),      // 12: 15 cover 10
		sp(3, 2, "gemm.Context.FusedMulAdd", 50, 52, 7, true), // 14 cover 12
		sp(4, 3, "kernel.Micro", 60, 61, 1, true),
	}
	got = selfShares(over)
	fmm := (10.0 / 15) * (12.0 / 14) // what one unit of FusedMulAdd time weighs
	want = map[string]float64{
		"multiplier": 0,
		"shard":      3 * (10.0 / 15) / 10,
		"fmmexec":    0,
		"gemm":       7 * fmm * (2 - 1) / 10,
		"kernel":     7 * fmm * 1 / 10,
	}
	total = 0
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("overcovered: %s.self_share = %g, want %g", l, got[l], w)
		}
		total += got[l]
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("overcovered: shares sum to %g, want 1", total)
	}
}

func TestFillRefusesUndeclaredAndMissing(t *testing.T) {
	decls := []metricDecl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if _, err := fill(decls, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := fill(decls, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if _, err := fill(decls, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("a NaN was accepted")
	}
	got, err := fill(decls, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["b"] != (measured{2, "ms"}) {
		t.Errorf("fill = %v, %v", got, err)
	}
}

func TestCompareRefusesDifferentKernelOrT(t *testing.T) {
	mk := func(kernel string, T int) report {
		e2e := make(map[string]measured)
		for _, d := range endToEnd {
			e2e[d.Name] = measured{1, d.Unit}
		}
		return report{Env: hostEnv{T: T}, Workloads: []workloadReport{{Name: "rankk", System: sysInfo{Kernel: kernel}, Attempted: 1, EndToEnd: e2e}}}
	}
	var sink bytes.Buffer
	if _, err := compareReports(&sink, mk("avx2", 2), mk("go4x4", 2), false); err == nil {
		t.Error("reports from different kernels were compared")
	}
	if _, err := compareReports(&sink, mk("avx2", 2), mk("avx2", 4), false); err == nil {
		t.Error("reports with different T were compared")
	}
	if bad, err := compareReports(&sink, mk("avx2", 2), mk("avx2", 2), true); err != nil || bad != 0 {
		t.Errorf("identical reports: %d bad, %v", bad, err)
	}
	// One regression at a time against the same baseline.
	for _, tc := range []struct {
		what string
		edit func(w *workloadReport)
		bad  int
	}{
		{"a 30 % throughput drop", func(w *workloadReport) { w.EndToEnd["eff_gflops"] = measured{0.7, "GFLOP/s"} }, 1},
		{"a 30 % throughput gain", func(w *workloadReport) { w.EndToEnd["eff_gflops"] = measured{1.3, "GFLOP/s"} }, 0},
		{"set-up 50 % slower, 0.5 s", func(w *workloadReport) { w.EndToEnd["setup_s"] = measured{1.5, "s"} }, 1},
		{"set-up 24 % slower, 0.24 s", func(w *workloadReport) { w.EndToEnd["setup_s"] = measured{1.24, "s"} }, 0},
		{"one failed op", func(w *workloadReport) { w.Failed, w.FailedShare = 1, 1 }, 1},
		{"p99 latency 20 % up", func(w *workloadReport) { w.EndToEnd["lat_p99_ms"] = measured{1.2, "ms"} }, 1},
	} {
		base, changed := mk("avx2", 2), mk("avx2", 2)
		base.Workloads[0].EndToEnd["lat_p99_ms"] = measured{1, "ms"}
		tc.edit(&changed.Workloads[0])
		if bad, _ := compareReports(&sink, base, changed, false); bad != tc.bad {
			t.Errorf("%s counted as %d regressions, want %d", tc.what, bad, tc.bad)
		}
	}
	// Set-up under the absolute floor never counts, whatever the ratio.
	quick, slower := mk("avx2", 2), mk("avx2", 2)
	quick.Workloads[0].EndToEnd["setup_s"] = measured{0.07, "s"}
	slower.Workloads[0].EndToEnd["setup_s"] = measured{0.14, "s"}
	if bad, _ := compareReports(&sink, quick, slower, true); bad != 0 {
		t.Errorf("set-up 0.07 s → 0.14 s counted as %d regressions; it is under the 0.25 s floor", bad)
	}
}

// TestSmoke builds the program and runs every workload for 300 ms as the
// driver would, checking the result line against the declared metrics;
// three workloads are also run traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fmmbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	runOnce := func(t *testing.T, w string, trace string, decls []metricDecl) {
		cmd := exec.Command(bin, "--workload", w, "--seed", "3", "--seconds", "0.3", "--trace", trace, "-out-dir", dir)
		cmd.Env = append(os.Environ(), "FMMFAM_KERNEL=no-such-kernel") // must be scrubbed, not obeyed
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v\n%s", err, stderr.Bytes())
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(decls) {
			t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(decls))
		}
		for _, d := range decls {
			m, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("metric %s was not printed", d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("metric %s printed in %q, declared in %q", d.Name, m.Unit, d.Unit)
			}
		}
		if trace == "0" {
			for _, d := range endToEnd {
				if !(res.Metrics[d.Name].Value > 0) {
					t.Errorf("end-to-end metric %s = %g; it must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			var info runInfo
			if err := json.Unmarshal(lines[0], &info); err != nil {
				t.Fatalf("first line %q: %v", lines[0], err)
			}
			for _, d := range wireLatency {
				if m, ok := info.Latency[d.Name]; ok != (w == "wire_mix") || (ok && !(m.Value > 0)) {
					t.Errorf("%s: latency %s = %v (printed: %v)", w, d.Name, m, ok)
				}
			}
			return
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w+".json")); err != nil {
			t.Errorf("no trace file: %v", err)
		}
		shares := 0.0
		for _, l := range layers {
			shares += res.Metrics[l+".self_share"].Value
		}
		if shares <= 0 || shares > 1+1e-9 {
			t.Errorf("the layers' self shares sum to %g of the root", shares)
		}
		// MulAdd cannot be much faster than the plan it dispatches to; a
		// large negative overhead means two different paths were compared.
		wl, _ := workloadByName(w)
		b := wl.build(3, envFor(0.3))
		pr := b.probe()
		b.close()
		planUS := 2 * float64(pr.m) * float64(pr.k) * float64(pr.n) / res.Metrics["fmmexec.plan_eff_gflops"].Value / 1e3
		if over := res.Metrics["multiplier.dispatch_overhead_us"].Value; over < -0.3*planUS {
			t.Errorf("multiplier.dispatch_overhead_us = %g against a plan time of %g us", over, planUS)
		}
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) { runOnce(t, w.Name, "0", endToEnd) })
	}
	// Traced: the two cheapest workloads and the cheapest one that shards.
	for _, w := range []string{"small_batch", "wire_mix", "kdom_shard"} {
		t.Run(w+"/traced", func(t *testing.T) { runOnce(t, w, "1", perLayer) })
	}
}
