// Command schedd is the gang-scheduling daemon: a long-running,
// multi-tenant job service in front of the mpi runtime. Students (through
// jobctl or any HTTP client) submit jobs over an HTTP+JSON API; the daemon
// queues them per tenant, places each gang on the modeled cluster,
// supervises every run with retries and a poison-job circuit breaker, and
// keeps admitting work while nodes die under it.
//
// Usage:
//
//	schedd                                     # 4×16 Chameleon on :8080
//	schedd -addr 127.0.0.1:9090 -platform picluster
//	schedd -oversubscribe 2 -queue-cap 512 -tenant-slots 8
//	schedd -artifacts /var/lib/schedd -ckpt /var/lib/schedd/ckpt
//
// The API surface (drive it with jobctl, or plain curl):
//
//	POST   /api/v1/jobs               submit
//	GET    /api/v1/jobs[?tenant=&state=]  list
//	GET    /api/v1/jobs/{id}          status
//	DELETE /api/v1/jobs/{id}          cancel
//	GET    /api/v1/jobs/{id}/logs     captured output
//	GET    /api/v1/stats              counters
//	GET    /api/v1/nodes              cluster view
//	POST   /api/v1/nodes/{id}/kill|silence|drain|revive   chaos/admin
//
// SIGINT/SIGTERM shut the daemon down gracefully: admissions stop,
// running gangs are revoked and reaped, and every job lands in a terminal
// state before exit.
//
// Exit codes follow the mpirun contract (internal/verdict): 0 clean
// shutdown, 1 launcher error, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/verdict"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		platform      = flag.String("platform", "chameleon", "modeled platform (pi, picluster, colab, chameleon, stolaf)")
		oversubscribe = flag.Int("oversubscribe", 1, "rank slots per core")
		queueCap      = flag.Int("queue-cap", 256, "global queued-job bound (backpressure beyond it)")
		tenantQueue   = flag.Int("tenant-queue-cap", 0, "per-tenant queued-job quota (0 = same as -queue-cap)")
		tenantSlots   = flag.Int("tenant-slots", 0, "per-tenant running-job quota (0 = unlimited)")
		maxRetries    = flag.Int("max-retries", 2, "default failed-run budget before quarantine")
		opDeadline    = flag.Duration("op-deadline", 5*time.Second, "default per-operation deadline inside a job")
		timeout       = flag.Duration("timeout", 60*time.Second, "default per-run wall-clock budget")
		artifacts     = flag.String("artifacts", "", "directory for per-job artifacts (empty = none)")
		ckptDir       = flag.String("ckpt", "", "directory for per-job checkpoint namespaces (empty = in-memory)")
		seed          = flag.Int64("seed", 1, "seed for backoff jitter and injected fault plans")
		quiet         = flag.Bool("q", false, "suppress per-transition logging")
	)
	flag.Parse()

	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "schedd: unexpected arguments %v\n", flag.Args())
		os.Exit(verdict.ExitUsage)
	}
	plat, err := cluster.Lookup(*platform)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(verdict.ExitUsage)
	}
	if *oversubscribe < 1 || *queueCap < 1 {
		fmt.Fprintln(os.Stderr, "schedd: -oversubscribe and -queue-cap must be at least 1")
		os.Exit(verdict.ExitUsage)
	}

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	s, err := sched.New(sched.Config{
		Platform:          plat,
		Oversubscribe:     *oversubscribe,
		QueueCap:          *queueCap,
		TenantQueueCap:    *tenantQueue,
		TenantSlots:       *tenantSlots,
		DefaultMaxRetries: *maxRetries,
		DefaultOpDeadline: *opDeadline,
		DefaultTimeout:    *timeout,
		ArtifactDir:       *artifacts,
		CkptDir:           *ckptDir,
		Seed:              *seed,
		Logf:              logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(verdict.ExitLauncher)
	}

	srv := &http.Server{Addr: *addr, Handler: sched.NewHandler(s)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logf("schedd: serving %s on http://%s (queue cap %d)", plat, *addr, *queueCap)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logf("schedd: %s: shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		s.Close()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "schedd:", err)
			s.Close()
			os.Exit(verdict.ExitLauncher)
		}
	}
}
