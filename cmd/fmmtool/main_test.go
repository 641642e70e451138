package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run executes the fmmtool sources via `go run` from the module root.
func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	cmd := exec.Command("go", append([]string{"run", "./cmd/fmmtool"}, args...)...)
	cmd.Dir = root
	b, err := cmd.CombinedOutput()
	return string(b), err
}

func TestCLIList(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out, err := run(t, "list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"<2,2,2>", "<6,3,3>", "Strassen [11]", "Smirnov [12]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIVerifyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out, err := run(t, "verify", "-shape", "2,2,2")
	if err != nil || !strings.Contains(out, "ok") {
		t.Fatalf("verify failed: %v\n%s", err, out)
	}
}

func TestCLIModel(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out, err := run(t, "model", "-m", "14400", "-k", "480", "-n", "14400", "-top", "3")
	if err != nil || !strings.Contains(out, "ABC") {
		t.Fatalf("model failed: %v\n%s", err, out)
	}
	// Below the break-even plain GEMM is the first row of the ranking, under
	// the unchanged header line.
	out, err = run(t, "model", "-m", "100", "-k", "100", "-n", "100", "-top", "2")
	if err != nil || !strings.Contains(out, "GEMM predicted") || !strings.Contains(out, "\n1\tgemm\t") || !strings.Contains(out, "\n2\t<2,2,2> ABC\t") {
		t.Fatalf("model at 100³: %v\n%s", err, out)
	}
}

// TestCLIExplain: one product explained on each backend, priced at the
// blocking the engine runs (DefaultConfig's). The reference kernel, by name,
// shards default_square's 1024³ into two tiles: its K-whole grid at
// MC and its K-slab grid at the break-even are both 1×2×1 and tie, so K-whole
// is served, and each tile runs the product's two-level plan. The fastest
// assembly backend the host registered (avx512, else avx2) is what an empty
// -kernel resolves to, and abstains: GEMM serves the product, in two width-1
// GEMM tiles at MC, since no K-slab grid fits at its break-even. avx2's 2048³
// splits the same way, and its tiles run the product's <2,2,2> ABC. The
// K-dominant 256×16384×256 is served its K slabs, which the model prices
// below the 1×2×1 K-whole grid; at four threads 1024×600×600 is cut 2×2×1 at
// MC; 160³ has no room for two tiles and is below the threshold; one thread
// builds no grid.
func TestCLIExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	// served checks the output line about one candidate grid: it starts with
	// want, and ends in ", served" exactly when served.
	served := func(out, name, want string, served bool) bool {
		for _, l := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(l, "grid "+name+"\t"); ok {
				return strings.HasPrefix(rest, want) && strings.HasSuffix(rest, ", served") == served
			}
		}
		return false
	}
	out, err := run(t, "explain", "1024", "1024", "1024", "-kernel", "go4x4", "-threads", "2")
	for _, want := range []string{
		"kernel\tgo4x4 (named)",
		"priced for go4x4/float64: tau_a=", "MC=96 KC=256 NC=2048; FMM break-even 148³",
		"threshold\t1024: tiles ≥ MC=96; K slabs ≥ break-even 148 at or above the threshold; the cheaper grid wins\n",
		"sharding\t1×2×1 grid", "tiles of up to 1024×1024×512, each running the product's plan at width 1",
		"serves\t<2,2,2>+<2,2,2> ABC",
		"ranking\t1024×1024×1024,",
		"rank\timpl\tTa_s\tTm_s\tpredicted_s\teff_GFLOPS",
		"\n1\t<2,2,2>+<2,2,2> ABC\t", "\n3\t",
	} {
		if err != nil || !strings.Contains(out, want) {
			t.Fatalf("explain on go4x4: %v, output lacks %q:\n%s", err, want, out)
		}
	}
	if !served(out, "K whole", "1×2×1 at ≥ 96: modelled makespan ", true) || !served(out, "K slabs", "1×2×1 at ≥ 148: modelled makespan ", false) {
		t.Fatalf("explain on go4x4: want both grids 1×2×1, K whole served:\n%s", out)
	}
	if strings.Contains(out, "\n4\t") {
		t.Fatalf("explain printed more than the top 3:\n%s", out)
	}

	out, err = run(t, "explain", "-threads", "2", "-dtype", "f32", "1024", "1024", "1024")
	if err != nil {
		t.Fatalf("explain with no -kernel: %v\n%s", err, out)
	}
	// The child is built without this test's tags, so its own first line of
	// evidence — not this process's CPU probe — says which backend it has.
	var order, breakEven string
	switch {
	case strings.Contains(out, "kernel\tavx512 "):
		order, breakEven = "avx512 > avx2 > go4x4", "3524"
	case strings.Contains(out, "kernel\tavx2 "):
		order, breakEven = "avx2 > go4x4", "1793"
	default:
		if !strings.Contains(out, "kernel\tgo4x4 (fastest registered: go4x4)") || !strings.Contains(out, "float32") {
			t.Fatalf("explain without an assembly backend:\n%s", out)
		}
		return
	}
	kern, _, _ := strings.Cut(order, " ")
	for _, want := range []string{
		"kernel\t" + kern + " (fastest registered: " + order + ")",
		"priced for " + kern + "/float32", "FMM break-even " + breakEven + "³",
		"grid K slabs\tnone: no room for two tiles ≥ " + breakEven + "\n",
		"sharding\t1×2×1 grid", "tiles of up to 1024×1024×512",
		"serves\tgemm\n", "\n1\tgemm\t",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain on %s: output lacks %q:\n%s", kern, want, out)
		}
	}
	if !served(out, "K whole", "1×2×1 at ≥ 96: ", true) {
		t.Fatalf("explain on %s: want the K-whole 1×2×1 grid served:\n%s", kern, out)
	}

	out, err = run(t, "explain", "-threads", "2", "-kernel", "avx2", "2048", "2048", "2048")
	for _, want := range []string{
		"grid K slabs\tnone: no room for two tiles ≥ 1793\n",
		"sharding\t1×2×1 grid", "tiles of up to 2048×2048×1024",
		"serves\t<2,2,2> ABC\n", "\n1\t<2,2,2> ABC\t",
	} {
		if err != nil || !strings.Contains(out, want) {
			t.Fatalf("explain 2048³ on avx2: %v, output lacks %q:\n%s", err, want, out)
		}
	}
	if !served(out, "K whole", "1×2×1 at ≥ 96: ", true) {
		t.Fatalf("explain 2048³ on avx2: want the K-whole 1×2×1 grid served:\n%s", out)
	}

	for _, tc := range []struct {
		args          []string
		want          []string
		whole, slabs  string // each grid line's start; "" = not checked
		servedIsWhole bool
	}{
		{[]string{"-threads", "2", "256", "16384", "256"}, []string{"sharding\t1×1×2 grid"},
			"1×2×1 at ≥ 96: ", "1×1×2 at ≥ " + breakEven + ": ", false},
		{[]string{"-threads", "4", "1024", "600", "600"}, []string{
			"threshold\t1024: tiles ≥ MC=96; K slabs ≥ break-even " + breakEven + " at or above the threshold; the cheaper grid wins",
			"grid K slabs\tnone: no room for two tiles ≥ " + breakEven + "\n",
			"sharding\t2×2×1 grid",
		}, "2×2×1 at ≥ 96: ", "", true},
		{[]string{"-threads", "2", "160", "160", "160"}, []string{
			"grid K whole\tnone: no room for two tiles ≥ 96\n",
			"grid K slabs\tnot built: every dimension is below the threshold\n",
			"sharding\tno: one width-1 plan",
		}, "", "", false},
		{[]string{"-threads", "1", "1024", "1024", "1024"}, []string{
			"grids\tnone: the product is never considered for sharding",
			"sharding\tno: one width-1 plan",
		}, "", "", false},
	} {
		out, err = run(t, append([]string{"explain", "-dtype", "f32", "-kernel", kern}, tc.args...)...)
		for _, want := range append(tc.want, "serves\tgemm\n") {
			if err != nil || !strings.Contains(out, want) {
				t.Fatalf("explain %v on %s: %v, output lacks %q:\n%s", tc.args, kern, err, want, out)
			}
		}
		if tc.whole != "" && !served(out, "K whole", tc.whole, tc.servedIsWhole) ||
			tc.slabs != "" && !served(out, "K slabs", tc.slabs, !tc.servedIsWhole) {
			t.Fatalf("explain %v on %s: want K whole %q and K slabs %q, K whole served %v:\n%s", tc.args, kern, tc.whole, tc.slabs, tc.servedIsWhole, out)
		}
	}
}

func TestCLIGenParses(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out, err := run(t, "gen", "-levels", "2,2,2", "-variant", "AB", "-pkg", "p", "-func", "F")
	if err != nil || !strings.Contains(out, "func F(ctx *gemm.Context") {
		t.Fatalf("gen failed: %v\n%s", err, out)
	}
}

func TestCLIExportImportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	f := filepath.Join(t.TempDir(), "a.fmm")
	if out, err := run(t, "export", "-shape", "2,3,2", "-o", f); err != nil {
		t.Fatalf("export: %v\n%s", err, out)
	}
	out, err := run(t, "import", f)
	if err != nil || !strings.Contains(out, "Brent-verified exact") {
		t.Fatalf("import: %v\n%s", err, out)
	}
	_ = os.Remove(f)
}

func TestCLIMorton(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out, err := run(t, "morton", "-levels", "2")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.HasPrefix(strings.TrimSpace(out), "0\t1\t4\t5") {
		t.Fatalf("unexpected morton table:\n%s", out)
	}
}

func TestCLIUnknownCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	if _, err := run(t, "bogus"); err == nil {
		t.Fatal("unknown command should exit non-zero")
	}
}
