package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fmmfam"
)

// runExpEnv runs the command from the module root with FMMFAM_KERNEL set to
// kernel ("" leaves the test's own environment alone) and returns its
// combined output and exit error.
func runExpEnv(t *testing.T, kernel string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/experiments"}, args...)...)
	cmd.Dir = filepath.Dir(strings.TrimSpace(string(out)))
	if kernel != "" {
		cmd.Env = append(os.Environ(), "FMMFAM_KERNEL="+kernel)
	}
	b, err := cmd.CombinedOutput()
	return string(b), err
}

func runExp(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runExpEnv(t, "", args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	return out
}

func TestFig3MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out := runExp(t, "-exp", "fig3", "-modelonly")
	if !strings.Contains(out, " 0\t 1\t 4\t 5\t16\t17\t20\t21") {
		t.Fatalf("figure 3 row 0 missing:\n%s", out)
	}
	if !strings.Contains(out, "42\t43\t46\t47\t58\t59\t62\t63") {
		t.Fatalf("figure 3 row 7 missing:\n%s", out)
	}
}

func TestFig2ModelOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out := runExp(t, "-exp", "fig2", "-modelonly")
	if !strings.Contains(out, "<2,2,2>\t8\t7\t7\t14.3\t14.3") {
		t.Fatalf("figure 2 Strassen row missing:\n%s", out)
	}
	// Model-only practical columns must be positive for <2,2,2> at paper scale.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "<2,2,2>\t") {
			fields := strings.Split(line, "\t")
			if len(fields) != 8 {
				t.Fatalf("bad row %q", line)
			}
			if strings.HasPrefix(fields[6], "-") || strings.HasPrefix(fields[7], "-") {
				t.Fatalf("modeled paper-scale Strassen speedup negative: %q", line)
			}
		}
	}
}

func TestFig6ModelOnlyEmitsAllShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	out := runExp(t, "-exp", "fig6", "-modelonly")
	for _, shape := range []string{"<2,2,2>", "<3,6,3>", "<6,3,3>"} {
		if !strings.Contains(out, "ABC\t"+shape) || !strings.Contains(out, "Naive\t"+shape) {
			t.Fatalf("modeled fig6 missing %s:\n%.400s", shape, out)
		}
	}
}

// modelOnlySHA256 is the digest of `experiments -exp all -modelonly` at the
// commit before the figure generator learned to take its backend from
// FMMFAM_KERNEL: the modeled series are priced at the paper's machine
// constants and must not move with the kernel, or with that change.
const modelOnlySHA256 = "933d6e77bdf45985e0cdb2a3044b699a88902fff18d1135b642e3e4c120814d5"

func TestModelOnlyIgnoresKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	for _, kernel := range fmmfam.Kernels() {
		out, err := runExpEnv(t, kernel, "-exp", "all", "-modelonly")
		if err != nil {
			t.Fatalf("FMMFAM_KERNEL=%s: %v\n%.400s", kernel, err, out)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != modelOnlySHA256 {
			t.Errorf("FMMFAM_KERNEL=%s: -modelonly output digest %s, want %s", kernel, got, modelOnlySHA256)
		}
	}
}

// TestKernelFromEnv: the measured curves run on the backend FMMFAM_KERNEL
// names and the calibration header says so; a name that resolves to nothing
// is an error in either mode, not a quiet run on the default kernel.
func TestKernelFromEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the toolchain")
	}
	kernel := "go4x4"
	if slices.Contains(fmmfam.Kernels(), "avx2") {
		kernel = "avx2"
	}
	out, err := runExpEnv(t, kernel, "-exp", "fig3")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.HasPrefix(out, "# calibrated: kernel="+kernel+", tauA=") {
		t.Errorf("FMMFAM_KERNEL=%s: calibration header does not name the kernel:\n%.200s", kernel, out)
	}
	for _, args := range [][]string{{"-exp", "fig3"}, {"-exp", "fig3", "-modelonly"}} {
		out, err := runExpEnv(t, "no-such-kernel", args...)
		if err == nil || !strings.Contains(out, "no-such-kernel") {
			t.Errorf("FMMFAM_KERNEL=no-such-kernel %v: err %v, want a non-zero exit naming the kernel:\n%.200s", args, err, out)
		}
	}
}
