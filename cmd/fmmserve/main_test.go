package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fmmfam"
	"fmmfam/serve"
)

// TestHTTPServerTimeouts pins the constructed server's bounds on silent
// clients: without them a peer that never finishes its headers, or parks a
// keep-alive connection, holds a goroutine and a socket for ever.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", hs.IdleTimeout, idleTimeout)
	}
}

// TestRunBootServeShutdown drives a full lifecycle through run: boot on an
// ephemeral loopback port, serve one real multiply, then cancel the context
// (the signal path) and require a clean exit. The flags alone decide how it
// boots: the variables that once mirrored them — and beat an explicit flag —
// are set and must not be read.
func TestRunBootServeShutdown(t *testing.T) {
	t.Setenv("FMMFAM_SERVE_ADDR", "127.0.0.1:1")
	t.Setenv("FMMFAM_ADMISSION_DEPTH", "99")
	t.Setenv("FMMFAM_AUTOTUNE", "off")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pr, pw := io.Pipe()
	runErr := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-threads", "2", "-admission-depth", "3", "-autotune"}, pw)
		pw.Close()
		runErr <- err
	}()

	// The first output line carries the bound address.
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading banner: %v (run may have failed: %v)", err, <-runErr)
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[0] != "fmmserve" || strings.HasSuffix(fields[3], ":1") {
		t.Fatalf("unexpected banner %q (want the -addr flag's address)", line)
	}
	baseURL := "http://" + fields[3]
	go io.Copy(io.Discard, pr) // keep later writes from blocking the pipe

	cl := &serve.Client{BaseURL: baseURL}
	a, b := fmmfam.NewMatrix(8, 8), fmmfam.NewMatrix(8, 8)
	a.Fill(1)
	b.Fill(2)
	c := fmmfam.NewMatrix(8, 8)
	if err := cl.Multiply(c, a, b); err != nil {
		t.Fatalf("multiply against booted server: %v", err)
	}
	if got := c.At(3, 4); got != 16 {
		t.Fatalf("served product C(3,4) = %v, want 16", got)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Completed != 1 {
		t.Fatalf("stats.Completed = %d, want 1", st.Completed)
	}
	if st.Admission.Depth != 3 || !st.Multiplier.Autotune {
		t.Errorf("admission depth %d, autotune %v; want the flags' 3 and true", st.Admission.Depth, st.Multiplier.Autotune)
	}
	if want := "kernel=" + st.Multiplier.Kernel + ")"; !strings.Contains(line, want) {
		t.Errorf("banner %q does not name the resolved kernel (%s)", line, want)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run exited with %v after cancel, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after context cancel")
	}
	if _, err := http.Get(baseURL + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestRunFlagErrors pins the failure modes that must not boot a listener.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"stray-positional"},
		{"-addr", "127.0.0.1:0", "-admission-depth", "-3"},
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
