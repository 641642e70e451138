package fmmfam_test

import (
	"testing"
	"time"

	"fmmfam"
	"fmmfam/serve"
	"fmmfam/serve/servetest"
)

// TestServeParams pins the serve-knob resolution as a served /v1/stats
// reports it: set fields pass through, zero fields fill the Default*
// constants, and a negative window disables coalescing.
func TestServeParams(t *testing.T) {
	base := fmmfam.Config{MC: 96, KC: 256, NC: 2048, Threads: 1}
	served := func(t *testing.T, cfg fmmfam.Config) serve.Stats {
		t.Helper()
		h, err := servetest.Start(cfg, fmmfam.PaperArch())
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		st, err := h.Client().Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// knobs checks both lanes' coalescers and the admission gate.
	knobs := func(t *testing.T, st serve.Stats, window time.Duration, maxJobs, depth int) {
		t.Helper()
		for _, co := range []serve.CoalesceStats{st.Coalesce64, st.Coalesce32} {
			if !co.Enabled || co.WindowNS != window.Nanoseconds() || co.MaxJobs != maxJobs {
				t.Fatalf("coalescer %+v, want enabled with window %v and %d jobs", co, window, maxJobs)
			}
		}
		if st.Admission.Depth != depth {
			t.Fatalf("admission depth %d, want %d", st.Admission.Depth, depth)
		}
	}

	t.Run("defaults", func(t *testing.T) {
		knobs(t, served(t, base), fmmfam.DefaultCoalesceWindow, fmmfam.DefaultCoalesceMaxJobs, fmmfam.DefaultAdmissionDepth)
	})

	t.Run("fields", func(t *testing.T) {
		cfg := base
		cfg.CoalesceWindow = 250 * time.Microsecond
		cfg.CoalesceMaxJobs = 8
		cfg.AdmissionDepth = 4
		knobs(t, served(t, cfg), 250*time.Microsecond, 8, 4)
	})

	t.Run("negative window disables coalescing", func(t *testing.T) {
		cfg := base
		cfg.CoalesceWindow = -1
		st := served(t, cfg)
		if st.Coalesce64.Enabled || st.Coalesce32.Enabled {
			t.Fatalf("coalescing enabled with window %v: %+v, %+v", cfg.CoalesceWindow, st.Coalesce64, st.Coalesce32)
		}
		if st.Admission.Depth != fmmfam.DefaultAdmissionDepth {
			t.Fatalf("admission depth %d, want the default %d", st.Admission.Depth, fmmfam.DefaultAdmissionDepth)
		}
	})
}
