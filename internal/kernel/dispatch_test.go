package kernel

import (
	"runtime"
	"strings"
	"testing"

	"fmmfam/internal/matrix"
)

// TestHostCPUCoherent pins the invariants the dispatch gate relies on,
// whatever host the test runs on: AVX2 and AVX-512 can only be reported on
// amd64 assembly builds, a pure-Go build never reports them, and AVX-512
// implies AVX2 (the avx512 backend reuses avx2's Ã packers).
func TestHostCPUCoherent(t *testing.T) {
	cpu := HostCPU()
	if cpu.Arch != runtime.GOARCH {
		t.Fatalf("HostCPU().Arch = %q, want %q", cpu.Arch, runtime.GOARCH)
	}
	if (cpu.AVX2 || cpu.AVX512) && cpu.PureGo {
		t.Fatalf("HostCPU reports SIMD features on a pure-Go build: %+v", cpu)
	}
	if (cpu.AVX2 || cpu.AVX512) && cpu.Arch != "amd64" {
		t.Fatalf("HostCPU reports SIMD features on %s: %+v", cpu.Arch, cpu)
	}
	if cpu.AVX512 && !cpu.AVX2 {
		t.Fatalf("HostCPU reports AVX-512 without AVX2: %+v", cpu)
	}
}

// TestAVX2AlwaysKnown and TestAVX512AlwaysKnown: on every build and host,
// each assembly backend is either registered — for both dtypes, exactly when
// the probe behind it passed — or explains its absence via Statuses (no
// AVX2+FMA or no AVX-512F, OS-disabled vector state, purego, a foreign
// GOARCH); it never silently disappears into a bare "unknown backend".
func TestAVX2AlwaysKnown(t *testing.T)   { checkAlwaysKnown(t, AVX2Backend, HostCPU().AVX2) }
func TestAVX512AlwaysKnown(t *testing.T) { checkAlwaysKnown(t, AVX512Backend, HostCPU().AVX512) }

func checkAlwaysKnown(t *testing.T, name string, probed bool) {
	var st *BackendStatus
	for _, s := range Statuses() {
		if s.Name == name {
			st = &s
			break
		}
	}
	if st == nil {
		t.Fatalf("Statuses() omits %q entirely: %+v", name, Statuses())
	}
	if st.Available != probed {
		t.Fatalf("%s available=%v but the probe says %v (%+v)", name, st.Available, probed, HostCPU())
	}
	if st.Available {
		if len(st.Dtypes) != 2 {
			t.Fatalf("available %s registered for %v, want both dtypes", name, st.Dtypes)
		}
		if st.Reason != "" {
			t.Fatalf("available %s carries reason %q", name, st.Reason)
		}
		return
	}
	if st.Reason == "" {
		t.Fatalf("unavailable %s carries no reason", name)
	}
	if UnavailableReason(name) != st.Reason {
		t.Fatalf("UnavailableReason(%s) %q != status reason %q", name, UnavailableReason(name), st.Reason)
	}
}

// TestStatusesMatchRegistry: every registered backend is Available with its
// dtypes, for both element types.
func TestStatusesMatchRegistry(t *testing.T) {
	byName := make(map[string]BackendStatus)
	for _, s := range Statuses() {
		byName[s.Name] = s
	}
	for _, d := range []matrix.Dtype{matrix.Float64, matrix.Float32} {
		for _, name := range BackendsFor(d) {
			s, ok := byName[name]
			if !ok || !s.Available {
				t.Fatalf("registered backend %q (%s) missing/unavailable in Statuses: %+v", name, d, s)
			}
			found := false
			for _, dt := range s.Dtypes {
				if dt == d.String() {
					found = true
				}
			}
			if !found {
				t.Fatalf("backend %q registered for %s but Dtypes = %v", name, d, s.Dtypes)
			}
		}
	}
}

// TestResolveUnknownVsUnavailable: a truly unknown name gets the plain
// "unknown backend" error; a known-unavailable name gets the reason. Neither
// panics — selection failures must stay ordinary errors so a misdirected
// FMMFAM_KERNEL is reportable.
func TestResolveUnknownVsUnavailable(t *testing.T) {
	if _, err := Resolve[float64]("no-such-backend"); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown name error = %v", err)
	}
	unavailable["stub-unavail"] = "test-only reason"
	defer delete(unavailable, "stub-unavail")
	_, err := Resolve[float64]("stub-unavail")
	if err == nil || !strings.Contains(err.Error(), "test-only reason") {
		t.Fatalf("unavailable-name error = %v, want the recorded reason", err)
	}
}

// TestFastestIsRegistered: Fastest names a backend registered for the dtype —
// avx512 where the probe found AVX-512, else avx2 where it found AVX2+FMA,
// else the reference one. The expectation comes from the probe, not from the
// registry Fastest reads.
func TestFastestIsRegistered(t *testing.T) {
	for _, d := range []matrix.Dtype{matrix.Float64, matrix.Float32} {
		want := DefaultBackend
		switch cpu := HostCPU(); {
		case cpu.AVX512:
			want = AVX512Backend
		case cpu.AVX2:
			want = AVX2Backend
		}
		got := Fastest(d)
		if _, ok := ResolveNameFor(got, d); !ok || got != want {
			t.Fatalf("%s: Fastest = %q (registered: %v), want %q (HostCPU %+v)", d, got, ok, want, HostCPU())
		}
	}
}
