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

// TestCLIExplain: one product explained on each backend. The reference kernel,
// by name, shards default_square's 1024³ into two tiles and serves each a
// two-level plan; the fastest assembly backend the host registered (avx512,
// else avx2) is what an empty -kernel resolves to, and abstains: one
// unsharded GEMM.
func TestCLIExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out, err := run(t, "explain", "1024", "1024", "1024", "-kernel", "go4x4", "-threads", "2")
	for _, want := range []string{
		"kernel\tgo4x4 (named)",
		"priced for go4x4/float64: tau_a=", "FMM break-even 148³",
		"sharding\t1×2×1 grid", "tiles of up to 1024×1024×512",
		"serves\t<2,2,2>+<2,2,2> ABC",
		"rank\timpl\tTa_s\tTm_s\tpredicted_s\teff_GFLOPS",
		"\n1\t<2,2,2>+<2,2,2> ABC\t", "\n3\t",
	} {
		if err != nil || !strings.Contains(out, want) {
			t.Fatalf("explain on go4x4: %v, output lacks %q:\n%s", err, want, out)
		}
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
		order, breakEven = "avx512 > avx2 > go4x4", "3841"
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
		"sharding\tno (", "one width-2 plan",
		"serves\tgemm\n", "\n1\tgemm\t",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain on %s: output lacks %q:\n%s", kern, want, out)
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
