// Command fmmbench is the repository's one benchmark: six seeded workloads
// over the whole stack, six bounded end-to-end metrics plus the
// failed/attempted count, and per-layer numbers from a traced replay. See
// README.md in this directory for the definitions; BENCHMARK.json at the
// repository root declares the same workloads and metrics to the driver.
//
//	fmmbench -workload NAME -seed N -seconds S -trace 0|1   one run, one JSON result line
//	fmmbench [-seed N] [-seconds S] [-o report.json]        every workload, untraced then traced
//	fmmbench -check                                         the untraced set twice, compared by the bounds
//	fmmbench -compare a.json b.json                         two reports, compared by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fmmfam"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings shared by every mode.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	setupProbe bool
	check      bool
	compare    bool
	out        string
	outDir     string
}

func run(args []string, stdout, stderr io.Writer) int {
	// Every FMMFAM_* variable silently overrides kernel, traversal, autotune
	// or coalescing; none may leak in from the caller's shell. Children
	// inherit the cleaned environment.
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "FMMFAM_") {
			os.Unsetenv(name)
		}
	}
	var o options
	fs := flag.NewFlagSet("fmmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print one JSON result line (default: all of them)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the inputs")
	fs.Float64Var(&o.seconds, "seconds", 16, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced replay, per-layer metrics")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "internal: cold-start the workload once and print the seconds")
	fs.BoolVar(&o.check, "check", false, "run the untraced set twice (second pass in reverse order) and compare by the bounds")
	fs.BoolVar(&o.compare, "compare", false, "compare two report files by the bounds: -compare a.json b.json")
	fs.StringVar(&o.out, "o", "", "where the all-workloads report goes (default <out-dir>/report.json)")
	fs.StringVar(&o.outDir, "out-dir", "fmmbench/out", "directory for trace files and the default report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "fmmbench: -compare needs two report files")
			return 2
		}
		err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case o.check:
		err = check(o, stdout, stderr)
	case o.workload == "":
		err = runAll(o, stdout, stderr)
	default:
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "fmmbench: unknown workload %q\n", o.workload)
			return 2
		}
		if o.setupProbe {
			err = setupProbe(w, o, stdout)
		} else {
			err = runOne(w, o, stdout, stderr)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "fmmbench:", err)
		return 1
	}
	return 0
}

// hostEnv is the run-wide part of the env block. Results are comparable
// only between runs with the same kernel and T.
type hostEnv struct {
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	T          int            `json:"T"`
	GoVersion  string         `json:"go_version"`
	CPU        fmmfam.CPUInfo `json:"host_cpu"`
	Kernels    []string       `json:"kernels"`
}

func newHostEnv(env benchEnv) hostEnv {
	return hostEnv{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), T: env.T,
		GoVersion: runtime.Version(), CPU: fmmfam.HostCPU(), Kernels: fmmfam.Kernels(),
	}
}

// runInfo is the first stdout line of a single-workload run: what ran.
type runInfo struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	JobHash  string  `json:"job_list_hash"`
	Rounds   int     `json:"rounds"`
	// The per-round samples behind eff_gflops and speedup_vs_gemm, for
	// anyone re-validating the estimators on other hardware: the op's raw
	// rate and time, the paired GEMM baseline's time, and the host's speed
	// before and after each op (two samples a round).
	RoundGflops  []float64 `json:"round_gflops,omitempty"`
	RoundOpSec   []float64 `json:"round_op_s,omitempty"`
	RoundGemmSec []float64 `json:"round_gemm_s,omitempty"`
	RoundHost    []float64 `json:"round_host_speed,omitempty"`
	// The cold starts behind setup_s: raw seconds and the host's speed.
	SetupSec  []float64 `json:"setup_raw_s,omitempty"`
	SetupHost []float64 `json:"setup_host_speed,omitempty"`
	// wire_mix, untraced: lat_p50_ms and lat_p99_ms (metrics.go, wireLatency).
	Latency map[string]measured `json:"latency,omitempty"`
	Host    hostEnv             `json:"host"`
	System  sysInfo             `json:"system"`
}

// envFor fixes the run's shared settings. A wire_mix round sends traffic for
// a twenty-fifth of the run (at least 100 ms, at most the issue's one
// second): with the host reference, the paired baseline and verification a
// round takes about a fifth longer than that, so a run has at least twenty
// rounds behind its estimates.
func envFor(seconds float64) benchEnv {
	env := newBenchEnv()
	env.Round = time.Duration(seconds / 25 * float64(time.Second))
	env.Round = max(100*time.Millisecond, min(time.Second, env.Round))
	return env
}

// coldStart times one construction of the system under test plus the first
// op of every shape class, and the host's speed around it: one setup_s
// sample is the seconds at nominal host speed. Input generation happened
// before it and verification happens after it.
func coldStart(b bench, threads int) (sec, host float64, err error) {
	h0 := hostSpeed(threads)
	t0 := time.Now()
	err = b.coldStart()
	sec = time.Since(t0).Seconds()
	return sec, (h0 + hostSpeed(threads)) / 2, err
}

// setupProbe is the child half of setup_s: a fresh process, so that lazy
// process-wide state (the candidate family, the package-level multiplier,
// any future calibration cache) is cold every time. It prints the raw
// seconds and the host's speed.
func setupProbe(w workload, o options, stdout io.Writer) error {
	env := envFor(o.seconds)
	b := w.build(o.seed, env)
	defer b.close()
	sec, host, err := coldStart(b, env.T)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, sec, host)
	return nil
}

// self runs this binary again with args and returns its standard output.
func self(stderr io.Writer, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	return cmd.Output()
}

const (
	// A run makes rounds for --seconds and at least this many of them: the
	// fast quartile of an untraced run is then the mean of five rounds or
	// more, and the traced replay has four traced rounds to take apart.
	minRounds       = 20
	fastRounds      = minRounds / 4
	minTracedRounds = 8
	minBurstRounds  = 3 // the serve burst of an engine workload's traced run
	// setupSamples is how many cold starts, each in a fresh process, are
	// behind one setup_s: the run's own and four children's.
	setupSamples = 5
)

func runOne(w workload, o options, stdout, stderr io.Writer) error {
	env := envFor(o.seconds)
	b := w.build(o.seed, env)
	defer b.close()
	info := runInfo{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		JobHash: fmt.Sprintf("%016x", jobListHash(b.shapes())), Host: newHostEnv(env),
	}

	// setup_s: cold starts in fresh processes, then this process's own.
	if o.trace == 0 {
		for i := 1; i < setupSamples; i++ {
			out, err := self(stderr, "-setup-probe", "-workload", w.Name,
				"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
			if err != nil {
				return fmt.Errorf("setup probe: %w", err)
			}
			var sec, host float64
			if _, err := fmt.Sscan(string(out), &sec, &host); err != nil {
				return fmt.Errorf("setup probe printed %q", out)
			}
			info.SetupSec = append(info.SetupSec, sec)
			info.SetupHost = append(info.SetupHost, host)
		}
	}
	sec, host, err := coldStart(b, env.T)
	if err != nil {
		return fmt.Errorf("cold start: %w", err)
	}
	info.SetupSec = append(info.SetupSec, sec)
	info.SetupHost = append(info.SetupHost, host)
	if err := b.prepare(); err != nil {
		return err
	}
	info.System = b.describe()

	var res result
	var vals map[string]float64
	if o.trace == 0 {
		rounds := measure(b, nil, o.seconds, minRounds)
		info.Rounds = len(rounds)
		info.RoundGflops = rates(rounds)
		for _, r := range rounds {
			info.RoundOpSec = append(info.RoundOpSec, r.opSec)
			info.RoundGemmSec = append(info.RoundGemmSec, r.gemmSec)
			info.RoundHost = append(info.RoundHost, r.host[:]...)
		}
		vals = endToEndValues(rounds, info.SetupSec, info.SetupHost)
		res = tally(rounds)
		res.Metrics, err = fill(endToEnd, vals)
		// wire_mix's latency: milliseconds at nominal host speed, like the
		// rates (the p99 of ten runs spread 11 % raw and 5 % so).
		var small, host []float64
		for _, r := range rounds {
			small = append(small, r.smallMS...)
			host = append(host, r.host[:]...)
		}
		if len(small) > 0 && err == nil {
			info.Latency, err = fill(wireLatency, map[string]float64{
				"lat_p50_ms": median(small) * fastQuartile(host),
				"lat_p99_ms": percentile(small, 99) * fastQuartile(host),
			})
		}
	} else {
		var rounds []roundResult
		vals, rounds, err = tracedRun(w, b, o, env, stderr)
		if err != nil {
			return err
		}
		info.Rounds = len(rounds)
		res = tally(rounds)
		res.Metrics, err = fill(perLayer, vals)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetEscapeHTML(false) // plan names are written <2,2,2>
	if err := enc.Encode(info); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", w.Name, res.Failed, res.Attempted)
	}
	return nil
}

// tracedRound says which rounds of a traced run are traced (and then taken
// apart): every other one, so the run also has untraced rounds to take the
// tracing overhead against.
func tracedRound(id int) bool { return id%2 == 1 }

// measure runs rounds for the given time, and at least atLeast of them; with
// a tracer, the tracedRound ones are traced.
func measure(b bench, tr *tracer, seconds float64, atLeast int) []roundResult {
	var rounds []roundResult
	start := time.Now()
	for len(rounds) < atLeast || time.Since(start).Seconds() < seconds {
		id := len(rounds)
		if tr == nil || !tracedRound(id) {
			rounds = append(rounds, b.round(nil, id))
			continue
		}
		rounds = append(rounds, b.round(tr, id))
		// Taking a round apart leaves garbage behind; collect it now so the
		// next, untraced round does not pay for it.
		runtime.GC()
	}
	return rounds
}

func tally(rounds []roundResult) result {
	var res result
	for _, r := range rounds {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// rates is each round's effective GFLOP/s: classical flops of the verified
// products over the op's wall time.
func rates(rounds []roundResult) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r.flops/r.opSec/1e9)
	}
	return out
}

// endToEndValues reduces the rounds to the end-to-end metrics. On a shared
// host a median of absolute times drifts by tens of per cent with the
// neighbours; what repeats is the fastest rounds of something over the
// fastest of something else that alternated with it through the same run
// (README, "Why these estimators"). So throughput is the op's rate over the
// host's speed — GFLOP/s at nominal host speed — and the GEMM comparison is
// the op's rate over the baseline's. The op and the baseline are taken at
// their fastRounds fastest rounds, the fast quartile of the twenty rounds
// every run makes: a workload that makes a hundred has that many more chances
// of five undisturbed ones. The host reference samples 7 ms at a time, so
// its few fastest samples read nominal on the busiest host; its fast quartile
// still tells a busy hour from a quiet one. Set-up time is likewise in
// seconds at nominal host speed. Allocation is the median of the per-round
// figures, which the runtime's own occasional allocations cannot move.
func endToEndValues(rounds []roundResult, setupSec, setupHost []float64) map[string]float64 {
	var setup, host, gemm, alloc []float64
	for i, sec := range setupSec {
		setup = append(setup, sec*setupHost[i])
	}
	for _, r := range rounds {
		host = append(host, r.host[:]...)
		gemm = append(gemm, r.flops/r.gemmSec/1e9)
		if done := r.ops - r.failed; done > 0 {
			alloc = append(alloc, float64(r.alloc)/float64(done)/1e6)
		}
	}
	op := fastest(rates(rounds), fastRounds)
	return map[string]float64{
		"setup_s":         median(setup),
		"eff_gflops":      op / fastQuartile(host),
		"speedup_vs_gemm": op / fastest(gemm, fastRounds),
		"alloc_mb_per_op": median(alloc),
	}
}

// tracedRun is -trace 1: rounds with every other one traced and taken
// apart, then the layer probes. It returns the per-layer values and writes
// the trace file.
func tracedRun(w workload, b bench, o options, env benchEnv, stderr io.Writer) (map[string]float64, []roundResult, error) {
	tr := newTracer()
	rounds := measure(b, tr, 0.4*o.seconds, minTracedRounds)

	vals := make(map[string]float64)
	shares := selfShares(tr.spans)
	for _, l := range layers {
		vals[l+".self_share"] = shares[l]
	}
	var on, off, ops []float64
	for i, r := range rates(rounds) {
		if tracedRound(i) {
			on = append(on, r)
		} else {
			off = append(off, r)
		}
		ops = append(ops, rounds[i].allMS...)
	}
	vals["trace.overhead_share"] = 1 - median(on)/median(off)
	vals["multiplier.eff_gflops_p50"] = median(rates(rounds))
	vals["multiplier.op_p50_ms"] = percentile(ops, 50)
	vals["multiplier.op_p90_ms"] = percentile(ops, 90)
	vals["multiplier.cached_plans"] = float64(b.cachedPlans())
	var ref []float64
	for i := 0; i < 9; i++ {
		ref = append(ref, hostRefGflops(env.T))
	}
	vals["host.ref_gflops"] = median(ref)

	rng := rand.New(rand.NewSource(o.seed))
	pr := b.probe()
	kernelProbes(vals, rng, pr.kernel)
	schedProbes(vals, env.T)
	wireProbes(vals, rng)
	if err := shapeProbes(vals, rng, pr, time.Duration(0.03*o.seconds*float64(time.Second))); err != nil {
		return nil, nil, err
	}
	if err := fixedMultiplierProbes(vals, rng, env, pr.threads); err != nil {
		return nil, nil, err
	}

	// The serve layer: wire_mix reports its own traffic; the engine
	// workloads drive a short burst of the same mix so every traced run
	// carries the serve numbers of the commit it measured.
	if wm, ok := b.(*wireMix); ok {
		if err := serveProbes(vals, wm, rounds); err != nil {
			return nil, nil, err
		}
	} else {
		wm := newWireMix(o.seed, env)
		defer wm.close()
		if err := wm.coldStart(); err != nil {
			return nil, nil, err
		}
		if err := wm.prepare(); err != nil {
			return nil, nil, err
		}
		burst := measure(wm, nil, 0.05*o.seconds, minBurstRounds)
		if t := tally(burst); !t.Correct {
			return nil, nil, fmt.Errorf("serve probe: %d of %d wire requests failed", t.Failed, t.Attempted)
		}
		if err := serveProbes(vals, wm, burst); err != nil {
			return nil, nil, err
		}
	}
	vals["multiplier.peak_rss_mb"] = peakRSSMB()

	path, err := tr.write(o.outDir, w.Name, o.seed)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "fmmbench: %s: %d spans in %s\n", w.Name, len(tr.spans), path)
	return vals, rounds, nil
}
