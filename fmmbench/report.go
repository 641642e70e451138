package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// workloadReport is one workload's rows of the all-workloads report.
type workloadReport struct {
	Name        string              `json:"name"`
	JobHash     string              `json:"job_list_hash"`
	System      sysInfo             `json:"system"`
	Rounds      int                 `json:"rounds"`
	Attempted   int                 `json:"attempted"`
	Failed      int                 `json:"failed"`
	FailedShare float64             `json:"failed_share"`
	EndToEnd    map[string]measured `json:"end_to_end"`
	PerLayer    map[string]measured `json:"per_layer,omitempty"`
}

// report is what the all-workloads mode writes (fmmbench/results/BENCH_*.json
// are such files).
type report struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Env       hostEnv          `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

// child runs one workload in a process of its own — as the driver does, and
// so that peak RSS and heap state belong to that workload alone — and
// parses its two stdout lines.
func child(w workload, o options, trace int, stderr io.Writer) (runInfo, result, error) {
	out, err := self(stderr, "-workload", w.Name, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-out-dir", o.outDir)
	var info runInfo
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) >= 2 {
		if jerr := json.Unmarshal(lines[0], &info); jerr != nil {
			return info, res, jerr
		}
		if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
			return info, res, jerr
		}
	}
	if err != nil {
		return info, res, fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
	}
	return info, res, nil
}

// pass runs every workload untraced, in the given order, and with traced
// set follows each by its traced replay.
func pass(o options, order []workload, traced bool, stderr io.Writer) (report, error) {
	rep := report{Seed: o.seed, Seconds: o.seconds}
	for _, w := range order {
		fmt.Fprintf(stderr, "fmmbench: %s\n", w.Name)
		info, res, err := child(w, o, 0, stderr)
		if err != nil {
			return rep, err
		}
		rep.Env = info.Host
		wr := workloadReport{
			Name: w.Name, JobHash: info.JobHash, System: info.System, Rounds: info.Rounds,
			Attempted: res.Attempted, Failed: res.Failed,
			FailedShare: float64(res.Failed) / float64(res.Attempted), EndToEnd: res.Metrics,
		}
		for name, m := range info.Latency {
			wr.EndToEnd[name] = m
		}
		if traced {
			_, tres, err := child(w, o, 1, stderr)
			if err != nil {
				return rep, err
			}
			wr.PerLayer = tres.Metrics
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func (r report) workload(name string) (workloadReport, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadReport{}, false
}

func runAll(o options, stdout, stderr io.Writer) error {
	rep, err := pass(o, workloads, true, stderr)
	if err != nil {
		return err
	}
	rep.print(stdout)
	path := o.out
	if path == "" {
		path = filepath.Join(o.outDir, "report.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	enc.SetEscapeHTML(false) // plan names are written <2,2,2>
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fmmbench: report in %s\n", path)
	return os.WriteFile(path, data.Bytes(), 0o644)
}

// print writes every metric by name with its unit.
func (r report) print(w io.Writer) {
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "env %s seed %d seconds %g\n", env, r.Seed, r.Seconds)
	for _, wl := range r.Workloads {
		sys := wl.System
		fmt.Fprintf(w, "\n%s: kernel %s, %d threads, plan %s, traversal %s, sharded: %s\n",
			wl.Name, sys.Kernel, sys.Threads, sys.Plan, sys.Traversal, sys.Sharded)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "  failed_share\t%g\tfraction\t(%d of %d, %d rounds)\n", wl.FailedShare, wl.Failed, wl.Attempted, wl.Rounds)
		for _, d := range gated {
			if m, ok := wl.EndToEnd[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", d.Name, m.Value, d.Unit)
			}
		}
		for _, d := range perLayer {
			if m, ok := wl.PerLayer[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", d.Name, m.Value, d.Unit)
			}
		}
		tw.Flush()
	}
}

// gated is what -check and -compare hold a report to: the driver's
// end-to-end metrics on every workload and the wire latency on wire_mix.
var gated = append(append([]metricDecl(nil), endToEnd...), wireLatency...)

// compareReports prints failed_share and every end-to-end metric of b
// against a and returns how many are worse than their bound allows. With
// eitherWay a metric that moved by more than its bound in the good direction
// counts too: two runs of the same code have no good direction.
func compareReports(w io.Writer, a, b report, eitherWay bool) (int, error) {
	if a.Env.T != b.Env.T {
		return 0, fmt.Errorf("runs are not comparable: T = %d against %d", a.Env.T, b.Env.T)
	}
	if a.Env.CPU.AVX2 != b.Env.CPU.AVX2 {
		return 0, fmt.Errorf("runs are not comparable: only one of them had the AVX2 host reference")
	}
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tworse by\tbound\t\t")
	row := func(wl, metric string, va, vb float64, worse, bound string, fail bool) {
		verdict := "ok"
		if fail {
			verdict = "FAIL"
			bad++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%s\t%s\t%s\t\n", wl, metric, va, vb, worse, bound, verdict)
	}
	for _, wa := range a.Workloads {
		wb, ok := b.workload(wa.Name)
		if !ok {
			continue
		}
		if wa.System.Kernel != wb.System.Kernel {
			return 0, fmt.Errorf("runs are not comparable: %s ran on kernel %q against %q", wa.Name, wa.System.Kernel, wb.System.Kernel)
		}
		// failed_share has an absolute bound of 0: any rise fails.
		row(wa.Name, "failed_share", wa.FailedShare, wb.FailedShare, "", "0", wb.FailedShare > wa.FailedShare)
		for _, d := range gated {
			ma, inA := wa.EndToEnd[d.Name]
			mb, inB := wb.EndToEnd[d.Name]
			if !inA || !inB {
				continue
			}
			worse := worsening(ma.Value, mb.Value, d.Better)
			fail := worse > d.Bound || (eitherWay && math.Abs(worse) > d.Bound)
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if d.Floor > 0 {
				fail = fail && math.Abs(mb.Value-ma.Value) > d.Floor
				bound = fmt.Sprintf("max(%.0f%%, %g %s)", 100*d.Bound, d.Floor, d.Unit)
			}
			row(wa.Name, d.Name, ma.Value, mb.Value, fmt.Sprintf("%+.1f%%", 100*worse), bound, fail)
		}
	}
	tw.Flush()
	return bad, nil
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r)
}

func compareFiles(stdout io.Writer, pa, pb string) error {
	a, err := readReport(pa)
	if err != nil {
		return err
	}
	b, err := readReport(pb)
	if err != nil {
		return err
	}
	bad, err := compareReports(stdout, a, b, false)
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse in %s than their bounds allow", bad, pb)
	}
	return nil
}

// check is the benchmark's own acceptance test: the untraced set twice in
// one invocation, the second pass in reverse workload order, failing if any
// end-to-end metric differs between the passes by more than its bound.
func check(o options, stdout, stderr io.Writer) error {
	first, err := pass(o, workloads, false, stderr)
	if err != nil {
		return err
	}
	reversed := make([]workload, len(workloads))
	for i, w := range workloads {
		reversed[len(workloads)-1-i] = w
	}
	second, err := pass(o, reversed, false, stderr)
	if err != nil {
		return err
	}
	bad, err := compareReports(stdout, first, second, true)
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("check: %d end-to-end metrics differ between two passes of the same code by more than their bound", bad)
	}
	return nil
}
