// Package servetest spins a serve.Server on a loopback listener so
// integration, race, fault, and benchmark code drives the real HTTP stack —
// real sockets, real handler goroutines, real shutdown ordering — without
// touching a fixed port or importing testing. It is the reusable harness
// behind the serving test suite and fmmbench's wire_mix workload.
package servetest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fmmfam"
	"fmmfam/serve"
)

// Harness is one running server: the serve.Server, the http.Server wrapping
// it, and the loopback base URL clients dial.
type Harness struct {
	Server *serve.Server
	HTTP   *http.Server
	URL    string

	ln       net.Listener
	serveErr chan error

	closeOnce sync.Once
	closeErr  error
}

// Start builds a serve.Server from cfg and serves it on an ephemeral
// loopback port, so test harnesses never collide on a fixed one. The returned harness is
// ready: the listener is accepting before Start returns.
func Start(cfg fmmfam.Config, arch fmmfam.Arch) (*Harness, error) {
	s, err := serve.New(cfg, arch)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &Harness{
		Server:   s,
		HTTP:     &http.Server{Handler: s},
		URL:      "http://" + ln.Addr().String(),
		ln:       ln,
		serveErr: make(chan error, 1),
	}
	go func() { h.serveErr <- h.HTTP.Serve(ln) }()
	return h, nil
}

// Client returns a client dialing this harness.
func (h *Harness) Client() *serve.Client {
	return &serve.Client{BaseURL: h.URL}
}

// Close shuts the harness down in production order: stop the listener and
// wait out in-flight handlers (http.Server.Shutdown), then drain compute
// (serve.Server.Close). Safe to call more than once; a shutdown that cannot
// drain within a minute reports an error rather than hanging the caller.
func (h *Harness) Close() error {
	h.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		shutdownErr := h.HTTP.Shutdown(ctx)
		closeErr := h.Server.Close()
		var serveErr error
		select {
		case err := <-h.serveErr:
			if !errors.Is(err, http.ErrServerClosed) {
				serveErr = err
			}
		case <-ctx.Done():
			serveErr = fmt.Errorf("servetest: serve loop did not exit: %w", ctx.Err())
		}
		h.closeErr = errors.Join(shutdownErr, closeErr, serveErr)
	})
	return h.closeErr
}
