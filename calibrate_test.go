package fmmfam

import (
	"testing"

	"fmmfam/internal/matrix"
)

// TestCalibrateOptIn: Config.Calibrate replaces the provided Arch with
// measured constants — recorded against the (kernel, dtype) pair in use —
// and the process-wide cache hands every later multiplier of the same pair
// the identical measurement instead of re-probing.
func TestCalibrateOptIn(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probes take ~100ms per (kernel, dtype) pair")
	}
	cfg := DefaultConfig()
	cfg.Kernel = "go4x4" // the pair the assertions below name; empty is the host's fastest
	cfg.Calibrate = true
	paper := PaperArch()

	mu := NewMultiplier(cfg, paper)
	if mu.cfgErr != nil {
		t.Fatal(mu.cfgErr)
	}
	got := mu.arch
	if got.Kernel != "go4x4" || got.Dtype != matrix.Float64 {
		t.Fatalf("calibrated arch should record (go4x4, float64), got (%q, %s)", got.Kernel, got.Dtype)
	}
	if got.TauA <= 0 || got.TauB <= 0 {
		t.Fatalf("calibrated constants must be positive: %+v", got)
	}
	if got.TauA == paper.TauA && got.TauB == paper.TauB {
		t.Fatal("calibration left the paper's Ivy Bridge constants untouched")
	}

	// Same (kernel, dtype) pair → the cached measurement verbatim.
	mu2 := NewMultiplier(cfg, PaperArch())
	if mu2.arch != got {
		t.Fatalf("second construction re-measured: %+v vs cached %+v", mu2.arch, got)
	}

	// The float32 surface calibrates its own pair and records its dtype.
	mu32 := NewMultiplier32(cfg, PaperArch())
	if mu32.cfgErr != nil {
		t.Fatal(mu32.cfgErr)
	}
	if mu32.arch.Dtype != matrix.Float32 || mu32.arch.Kernel != "go4x4" {
		t.Fatalf("float32 calibration should record (go4x4, float32), got (%q, %s)", mu32.arch.Kernel, mu32.arch.Dtype)
	}
	if mu32.arch == got {
		t.Fatal("float32 surface reused the float64 measurement")
	}

	// And the multiplier still multiplies correctly on measured constants.
	a, b, c := NewMatrix(64, 64), NewMatrix(64, 64), NewMatrix(64, 64)
	a.Fill(1.0 / 3)
	b.Fill(-2.0 / 3)
	if err := mu.MulAdd(c, a, b); err != nil {
		t.Fatal(err)
	}
}
