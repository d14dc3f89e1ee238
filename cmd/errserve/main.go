// Command errserve runs the ERR scheduler as a live HTTP service: an
// overload-safe fair-queuing front end (internal/serve) over a demo
// /work?ms=N handler, with per-tenant flows, bounded queues, load
// shedding, request deadlines, graceful degradation tiers, and a
// clean SIGTERM drain.
//
// Usage:
//
//	errserve [-addr :8080] [-faults SPEC] [flags]       serve until SIGTERM
//	errserve -selfdrive 30s [-faults SPEC] [flags]      in-process smoke, JSON report
//	errserve -bench [-bench-out BENCH_serve.json]       saturation sweep
//
// In selfdrive mode the binary drives itself with open-loop load
// derived from the -faults burst/flood directives plus a baseline
// tenant mix, then raises SIGTERM against its own process so the real
// signal path drains the server, prints a JSON report, and exits
// non-zero on any accounting violation or unclean drain — the CI
// smoke gates on that exit code. The scheduler logic lives in
// internal/serve; this file is only flag plumbing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (serve mode)")
		tenantKey = flag.String("tenant-key", "header:X-Tenant", "flow classification key: header:<Name> or query:<name>")
		workers   = flag.Int("workers", 16, "concurrency limit: requests in their handler at once")
		queueCap  = flag.Int("queue-cap", 128, "per-flow queue capacity in requests")
		globalB   = flag.Int64("global-bytes", 32<<20, "global queued-memory budget in bytes")
		debtCap   = flag.Int64("debt-cap", 0, "cap on a flow's deferred surplus count in cost units (0 = unbounded)")
		deadline  = flag.Duration("deadline", 0, "default per-request deadline (0 = none; X-Request-Deadline-Ms can only tighten it)")
		weights   = flag.String("weights", "", "per-tenant ERR weights, e.g. \"gold=3,bulk=1\" (unlisted tenants weigh 1)")
		faults    = flag.String("faults", "", "service-side fault spec, e.g. \"slow(p=0.05,ms=20);stuck(p=0.002,ms=300);flood(tenant=hog,rps=800)\" (see internal/fault)")
		seed      = flag.Uint64("seed", 1, "seed for fault injection and load generation")
		manifest  = flag.String("manifest", "", "append a JSONL run manifest to this path on shutdown (\"\" = none)")
		drainTO   = flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight requests")
		selfdrive = flag.Duration("selfdrive", 0, "run an in-process load smoke for this long, SIGTERM self, print a JSON report, exit non-zero on violations or unclean drain")
		bench     = flag.Bool("bench", false, "run the elephant-vs-mice saturation sweep and write -bench-out")
		benchOut  = flag.String("bench-out", "BENCH_serve.json", "bench report path")
		benchDur  = flag.Duration("bench-dur", 2*time.Second, "load duration per bench saturation point")
	)
	flag.Parse()

	weight, err := parseWeights(*weights)
	if err != nil {
		fatal(err)
	}

	if *bench {
		runBench(*workers, *queueCap, *benchDur, *seed, *benchOut)
		return
	}

	spec, err := fault.Parse(*faults)
	if err == nil {
		err = fault.Serve.Check(spec)
	}
	if err != nil {
		fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Handler:         serve.WorkHandler(),
		TenantKey:       *tenantKey,
		Workers:         *workers,
		QueueCap:        *queueCap,
		GlobalBytes:     *globalB,
		DebtCap:         *debtCap,
		DefaultDeadline: *deadline,
		Weight:          weight,
		Faults:          fault.NewServe(spec, *seed),
		Registry:        reg,
	}

	if *selfdrive > 0 {
		runSelfdrive(cfg, *faults, *seed, *selfdrive, *drainTO, *manifest)
		return
	}

	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.MetricsHandler())
	mux.Handle("/", s)

	start := time.Now()
	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()
	fmt.Fprintf(os.Stderr, "errserve: serving on %s (workers=%d queue-cap=%d)\n", *addr, cfg.Workers, cfg.QueueCap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	fmt.Fprintln(os.Stderr, "errserve: draining")
	_ = httpSrv.Close()
	drainErr := s.Drain(*drainTO)
	violations, msgs := s.VerifyAccounting()
	writeManifest(*manifest, s, reg, *faults, violations, time.Since(start))
	if drainErr != nil {
		fatal(drainErr)
	}
	if violations != 0 {
		fatal(fmt.Errorf("%d accounting violations: %v", violations, msgs))
	}
	fmt.Fprintln(os.Stderr, "errserve: drained clean")
}

// runSelfdrive wires the real signal path into the selfdrive harness:
// the shutdown hook raises SIGTERM against this very process, and the
// signal handler goroutine — the same code path a production SIGTERM
// takes — performs the drain.
func runSelfdrive(cfg serve.Config, faultSpec string, seed uint64, dur, drainTO time.Duration, manifest string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	start := time.Now()
	rep, err := serve.SelfDrive(serve.SelfDriveConfig{
		Workers: cfg.Workers, QueueCap: cfg.QueueCap,
		GlobalBytes: cfg.GlobalBytes, DebtCap: cfg.DebtCap,
		DefaultDeadline: cfg.DefaultDeadline,
		FaultSpec:       faultSpec, Seed: seed,
		Dur: dur, DrainTimeout: drainTO,
	}, func(s *serve.Server) error {
		drained := make(chan error, 1)
		go func() {
			<-sig
			drained <- s.Drain(drainTO)
		}()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			return err
		}
		err := <-drained
		if manifest != "" {
			v, _ := s.VerifyAccounting()
			writeManifest(manifest, s, s.Registry(), faultSpec, v, time.Since(start))
		}
		return err
	})
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
	if !rep.OK {
		os.Exit(1)
	}
}

func runBench(workers, queueCap int, dur time.Duration, seed uint64, out string) {
	rep, err := serve.RunBench(serve.BenchConfig{
		Workers: workers, QueueCap: queueCap, Dur: dur, Seed: seed,
	})
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "errserve: bench report written to %s\n", out)
}

func writeManifest(path string, s *serve.Server, reg *obs.Registry, faultSpec string, violations int64, wall time.Duration) {
	if path == "" {
		return
	}
	m := obs.NewManifest(s.RunInfo(), "", wall).
		WithFaults(faultSpec, violations).
		WithMetrics(reg)
	if err := m.AppendTo(path); err != nil {
		fatal(err)
	}
}

// parseWeights parses "tenant=weight,tenant=weight" into a Weight
// function, or nil for the empty string.
func parseWeights(s string) (func(string) int64, error) {
	if s == "" {
		return nil, nil
	}
	m := map[string]int64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("weights: %q is not tenant=weight", pair)
		}
		w, err := strconv.ParseInt(val, 10, 64)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("weights: %q needs an integer weight >= 1", pair)
		}
		m[name] = w
	}
	return func(tenant string) int64 {
		if w, ok := m[tenant]; ok {
			return w
		}
		return 1
	}, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "errserve: %v\n", err)
	os.Exit(1)
}
