// Command qosd serves QoS admission and per-cycle control decisions
// over HTTP+JSON: the paper's Quality Manager as a daemon. It loads one
// or more .qos models at startup, owns a controller runtime and a
// shared cycle budget per model, and exposes
//
//	POST /v1/admit      admit streams against the budget (429 sheds load)
//	POST /v1/release    return a stream's share to the pool
//	POST /v1/decide     run admitted streams one controlled cycle (batched)
//	GET  /v1/capacity   admission headroom per model
//	GET  /healthz       liveness (503 while draining)
//	GET  /metrics       Prometheus text format
//
// Usage:
//
//	qosd -model app.qos
//	qosd -addr :9150 -model a.qos -model b.qos -budget 30000000
//	qosd -model app.qos -lease 4 -epoch 500ms -admit-timeout 250ms
//
// Each -model may repeat; a model's registry name is its base filename
// without the .qos extension. On SIGINT/SIGTERM the daemon stops
// accepting work, drains every admitted stream and exits cleanly.
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	qos "repro"
	"repro/internal/qosd"
)

// Server timeouts against slow clients: a client gets readHeaderTimeout
// to send its request headers and readTimeout to send its whole
// request, body included; the reply must be written within
// writeTimeout beyond -admit-timeout, which an admit may spend queued
// for capacity; and an idle keep-alive connection is closed after
// idleTimeout. A client that stalls is cut off, and so are the
// goroutine and the decide buffers its request holds. Variables, so
// that tests can shorten them.
var (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable entry point: it parses argv, boots the
// daemon, serves until ctx is done, drains, and returns the process
// exit code.
func realMain(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qosd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:9150", "listen address (host:port; port 0 picks a free port)")
		budget       = fs.Int64("budget", 0, "global cycle budget per period per model (0 auto-sizes to 8 full-quality streams)")
		policy       = fs.String("policy", "fair", "slack re-partitioning policy: fair, weighted or greedy")
		lease        = fs.Int("lease", 4, "liveness lease in epochs before a silent stream is revoked (0 disables)")
		epoch        = fs.Duration("epoch", 500*time.Millisecond, "reaper tick: rebalance interval and lease epoch length")
		admitTimeout = fs.Duration("admit-timeout", 250*time.Millisecond, "max time an admit queues for capacity before 429")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "max time to wait for in-flight requests on shutdown")
	)
	var models []qosd.ModelFile
	fs.Func("model", "path to a .qos model file (repeatable)", func(path string) error {
		name := strings.TrimSuffix(filepath.Base(path), ".qos")
		models = append(models, qosd.ModelFile{Name: name, Path: path})
		return nil
	})
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if len(models) == 0 {
		fmt.Fprintln(stderr, "qosd: at least one -model is required")
		fs.Usage()
		return 2
	}

	pol, err := qosd.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	d, err := qosd.New(qosd.Config{
		Models:        models,
		Budget:        qos.Cycles(*budget),
		Policy:        pol,
		LeaseEpochs:   *lease,
		EpochInterval: *epoch,
		AdmitTimeout:  *admitTimeout,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "qosd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "qosd: listening on %s (%d models)\n", ln.Addr(), len(models))

	d.StartReaper()
	defer d.Drain() // stops and joins the reaper even on the error paths

	srv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      *admitTimeout + writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "qosd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "qosd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "qosd: shutdown:", err)
	}
	d.Drain()
	fmt.Fprintln(stdout, "qosd: drained")
	return 0
}
