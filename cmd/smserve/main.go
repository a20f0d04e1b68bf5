// Command smserve is the long-running splitmfg evaluation server: it
// exposes the protect/attack/evaluate/matrix/suite pipeline over HTTP+JSON
// with job management, Server-Sent-Events progress streaming, and a
// process-wide result cache shared across requests.
//
// Usage:
//
//	smserve -addr :8080 -parallelism 8 -jobs 2
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (body: a splitmfg.JobRequest)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status + report once done
//	GET    /v1/jobs/{id}/events progress stream (SSE, replayed from start)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/stats            job-state and cache counters
//	GET    /v1/catalog          valid benchmarks/attackers/defenses/kinds
//	GET    /healthz             liveness
//
// SIGINT/SIGTERM drain the server: running jobs get -drain to finish (the
// in-flight queue is canceled immediately), then outstanding connections
// close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"syscall"
	"time"

	"splitmfg/cmd/internal/cli"
	"splitmfg/internal/server"
)

// stopSignals drain the server along with cli.Main's os.Interrupt:
// SIGTERM is how service managers stop a process.
var stopSignals = []os.Signal{syscall.SIGTERM}

func main() { cli.Main("smserve", run, stopSignals...) }

// onListen, when non-nil, receives the bound address before the server
// starts serving — the test seam for -addr :0.
var onListen func(addr net.Addr)

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	parallelism := fs.Int("parallelism", 0, "global worker budget split across running jobs (default GOMAXPROCS)")
	jobs := fs.Int("jobs", 2, "max concurrently running jobs")
	queue := fs.Int("queue", 64, "max queued jobs behind the running ones")
	events := fs.Int("events", 4096, "per-job progress ring capacity for SSE replay")
	cacheDir := fs.String("cache-dir", "", "disk-backed result store directory: identical requests are free across restarts and shared with smbench -suite -cache-dir runs")
	cacheEntries := fs.Int("cache-entries", 256, "completed reports kept in the in-memory result cache (LRU beyond that)")
	retain := fs.Duration("retain", time.Hour, "how long finished jobs stay pollable before the registry prunes them")
	retainJobs := fs.Int("retain-jobs", 512, "max finished jobs kept in the registry")
	drain := fs.Duration("drain", 15*time.Second, "shutdown grace period for running jobs")
	verbose := fs.Bool("v", false, "log job lifecycle transitions to stderr")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof debug endpoints on this address (opt-in; keep it loopback-only)")
	if err := fs.Parse(args); err != nil {
		return cli.ParseError{Err: err}
	}

	// The profiling mux is opt-in and lives on its own listener so the
	// public API port never exposes debug endpoints.
	if *pprofAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %v", err)
		}
		defer dln.Close()
		fmt.Fprintf(stdout, "smserve: pprof on %s\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, dbg); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "smserve: pprof:", err)
			}
		}()
	}

	cfg := server.Config{
		Parallelism:  *parallelism,
		MaxRunning:   *jobs,
		QueueDepth:   *queue,
		EventBuffer:  *events,
		CacheDir:     *cacheDir,
		CacheEntries: *cacheEntries,
		RetainCount:  *retainJobs,
		RetainTTL:    *retain,
	}
	if *verbose {
		logger := log.New(os.Stderr, "smserve: ", log.LstdFlags)
		cfg.Logf = logger.Printf
	}
	mgr, err := server.NewManager(cfg)
	if err != nil {
		return err
	}
	if *cacheDir != "" {
		fmt.Fprintf(stdout, "smserve: result store at %s\n", *cacheDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	fmt.Fprintf(stdout, "smserve: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: server.NewHandler(mgr)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve only returns on listener failure here; drain what ran.
		mgr.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}

	// Drain order matters: finishing (or canceling) the jobs closes their
	// event logs, which ends the SSE streams, which lets the HTTP shutdown
	// below complete within the same grace period.
	fmt.Fprintf(stdout, "smserve: draining (up to %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	mgr.Shutdown(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		srv.Close()
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "smserve: bye")
	return nil
}
