package fmmfam_test

import (
	"strings"
	"testing"
	"time"

	"fmmfam"
	"fmmfam/serve"
	"fmmfam/serve/servetest"
)

// TestServeParams pins how a served /v1/stats reports the front-end's
// settings — Config.CoalesceWindow and serve.Options.AdmissionDepth: set
// values pass through, zero values take their defaults, a negative window
// disables coalescing, and serve.New refuses a negative depth.
func TestServeParams(t *testing.T) {
	base := fmmfam.Config{MC: 96, KC: 256, NC: 2048, Threads: 1}
	served := func(t *testing.T, cfg fmmfam.Config, opts serve.Options) serve.Stats {
		t.Helper()
		h, err := servetest.Start(cfg, fmmfam.PaperArch(), opts)
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
	knobs := func(t *testing.T, st serve.Stats, window time.Duration, depth int) {
		t.Helper()
		for _, co := range []serve.CoalesceStats{st.Coalesce64, st.Coalesce32} {
			if !co.Enabled || co.WindowNS != window.Nanoseconds() {
				t.Fatalf("coalescer %+v, want enabled with window %v", co, window)
			}
		}
		if st.Admission.Depth != depth {
			t.Fatalf("admission depth %d, want %d", st.Admission.Depth, depth)
		}
	}

	t.Run("defaults", func(t *testing.T) {
		knobs(t, served(t, base, serve.Options{}), fmmfam.DefaultCoalesceWindow, serve.DefaultAdmissionDepth)
	})

	t.Run("fields", func(t *testing.T) {
		cfg := base
		cfg.CoalesceWindow = 250 * time.Microsecond
		knobs(t, served(t, cfg, serve.Options{AdmissionDepth: 4}), 250*time.Microsecond, 4)
	})

	t.Run("negative window disables coalescing", func(t *testing.T) {
		cfg := base
		cfg.CoalesceWindow = -1
		st := served(t, cfg, serve.Options{})
		if st.Coalesce64.Enabled || st.Coalesce32.Enabled {
			t.Fatalf("coalescing enabled with window %v: %+v, %+v", cfg.CoalesceWindow, st.Coalesce64, st.Coalesce32)
		}
		if st.Admission.Depth != serve.DefaultAdmissionDepth {
			t.Fatalf("admission depth %d, want the default %d", st.Admission.Depth, serve.DefaultAdmissionDepth)
		}
	})

	t.Run("negative depth refused", func(t *testing.T) {
		s, err := serve.New(base, fmmfam.PaperArch(), serve.Options{AdmissionDepth: -3})
		if err == nil {
			s.Close()
			t.Fatal("serve.New accepted AdmissionDepth -3")
		}
		if !strings.Contains(err.Error(), "AdmissionDepth") {
			t.Fatalf("error %q does not name AdmissionDepth", err)
		}
	})
}
