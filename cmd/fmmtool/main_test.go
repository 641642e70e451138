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
