// Command fmmserve serves the fast-matrix-multiply engine over HTTP: binary
// multiply/batch/async endpoints with small-request coalescing, bounded
// admission control (429 + Retry-After when full), and JSON observability at
// /v1/stats. It is the networked front of the serving stack — everything
// compute-side lives in the fmmfam engine, everything wire-side in
// fmmfam/serve; this binary just binds them to a socket and a signal
// handler.
//
//	fmmserve [-addr :8077] [-threads N] [-kernel avx2] \
//	         [-coalesce-window 500µs] [-coalesce-maxjobs 32] [-admission-depth 256]
//
// The flags are the whole deployment surface; FMMFAM_KERNEL is the default of
// -kernel and no other variable is read; with neither, both engines run on
// the fastest backend the host registered. An unavailable kernel selection
// (e.g. avx2 on a host without AVX2+FMA) fails boot with the recorded
// reason; /v1/stats reports every backend's availability and which one
// each engine resolved. SIGINT/SIGTERM trigger graceful shutdown: the
// listener stops, in-flight requests complete, open coalescing windows
// flush, and the engines drain through Multiplier.Close before the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fmmfam"
	"fmmfam/serve"
)

// shutdownGrace bounds how long graceful shutdown waits for in-flight HTTP
// requests before abandoning them; engine drain (Close) is unbounded, it
// always completes once the handlers are gone.
const shutdownGrace = 30 * time.Second

// readHeaderTimeout and idleTimeout bound what a client can hold open
// without sending: a connection that trickles its request headers, and a
// keep-alive connection between requests. Bodies and responses carry no
// deadline — a maximal frame on a slow link and a long async collect are
// both legitimate.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the http.Server fmmserve runs its handler on.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "fmmserve:", err)
		os.Exit(1)
	}
}

// run builds the server from flags, serves until ctx is cancelled (the
// signal handler in main) or the listener fails, then shuts down
// gracefully. Factored from main so tests can drive a full boot/serve/drain
// cycle with a cancelable context and a loopback port.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fmmserve", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8077", "listen address")
	threads := fs.Int("threads", 0, "engine worker threads (0 = all CPUs)")
	kernelName := fs.String("kernel", fmmfam.EnvKernel(), "micro-kernel backend for both engines (default $FMMFAM_KERNEL, else the fastest backend this host registered; go4x4 pins the bit-stable reference kernel)")
	window := fs.Duration("coalesce-window", 0, "coalescing window for small requests (0 = engine default, negative disables)")
	maxJobs := fs.Int("coalesce-maxjobs", 0, "max requests per coalescing window (0 = engine default)")
	depth := fs.Int("admission-depth", 0, "max in-flight requests before 429 (0 = engine default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := fmmfam.DefaultConfig().Parallel()
	if *threads > 0 {
		cfg.Threads = *threads
	}
	cfg.Kernel = *kernelName
	cfg.CoalesceWindow = *window
	cfg.CoalesceMaxJobs = *maxJobs
	cfg.AdmissionDepth = *depth

	srv, err := serve.New(cfg, fmmfam.PaperArch())
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	// The backend cfg.Kernel resolved to, as /v1/stats names it per engine.
	fmt.Fprintf(out, "fmmserve listening on %s (threads=%d kernel=%s)\n", ln.Addr(), cfg.Threads, srv.Stats().Multiplier.Kernel)

	hs := newHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "fmmserve: shutting down")
	case err := <-serveErr:
		// The listener died on its own; still drain compute before exiting.
		return errors.Join(err, srv.Close())
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	shutdownErr := hs.Shutdown(shutCtx)
	closeErr := srv.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		shutdownErr = errors.Join(shutdownErr, err)
	}
	return errors.Join(shutdownErr, closeErr)
}
