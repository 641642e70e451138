package kernel

import (
	"runtime"
	"strings"
	"testing"

	"fmmfam/internal/matrix"
)

// TestHostCPUCoherent pins the invariants the dispatch gate relies on,
// whatever host the test runs on: AVX2 can only be reported on amd64
// assembly builds, and a pure-Go build never reports it.
func TestHostCPUCoherent(t *testing.T) {
	cpu := HostCPU()
	if cpu.Arch != runtime.GOARCH {
		t.Fatalf("HostCPU().Arch = %q, want %q", cpu.Arch, runtime.GOARCH)
	}
	if cpu.AVX2 && cpu.PureGo {
		t.Fatal("HostCPU reports AVX2 on a pure-Go build")
	}
	if cpu.AVX2 && cpu.Arch != "amd64" {
		t.Fatalf("HostCPU reports AVX2 on %s", cpu.Arch)
	}
}

// TestAVX2AlwaysKnown: on every build and host, "avx2" is either registered
// or explains its absence via Statuses — it never silently disappears into
// a bare "unknown backend".
func TestAVX2AlwaysKnown(t *testing.T) {
	var st *BackendStatus
	for _, s := range Statuses() {
		if s.Name == AVX2Backend {
			st = &s
			break
		}
	}
	if st == nil {
		t.Fatalf("Statuses() omits %q entirely: %+v", AVX2Backend, Statuses())
	}
	if st.Available {
		if len(st.Dtypes) != 2 {
			t.Fatalf("available avx2 registered for %v, want both dtypes", st.Dtypes)
		}
		if st.Reason != "" {
			t.Fatalf("available avx2 carries reason %q", st.Reason)
		}
		if !HostCPU().AVX2 {
			t.Fatal("avx2 registered but HostCPU().AVX2 is false")
		}
	} else {
		if st.Reason == "" {
			t.Fatal("unavailable avx2 carries no reason")
		}
		if UnavailableReason(AVX2Backend) != st.Reason {
			t.Fatalf("UnavailableReason %q != status reason %q",
				UnavailableReason(AVX2Backend), st.Reason)
		}
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
// the assembly kernel wherever the host carries it, else the reference one.
func TestFastestIsRegistered(t *testing.T) {
	for _, d := range []matrix.Dtype{matrix.Float64, matrix.Float32} {
		want := DefaultBackend
		if HostCPU().AVX2 {
			want = AVX2Backend
		}
		got := Fastest(d)
		if _, ok := ResolveNameFor(got, d); !ok || got != want {
			t.Fatalf("%s: Fastest = %q (registered: %v), want %q (HostCPU %+v)", d, got, ok, want, HostCPU())
		}
	}
}
