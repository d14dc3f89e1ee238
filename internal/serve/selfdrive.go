package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// WorkHandler is the demo application handler: GET /work?ms=N sleeps
// N milliseconds and answers 200. It stands in for a real backend in
// the selfdrive smoke, the bench sweep, and the errserve demo binary —
// a handler whose cost is visible and controllable from the request,
// which is exactly what the ERR front end must cope with (it never
// learns that cost up front).
func WorkHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ms, err := strconv.Atoi(r.URL.Query().Get("ms")); err == nil && ms > 0 {
			time.Sleep(time.Duration(ms) * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
}

// SelfDriveConfig parameterizes one self-contained smoke run: a
// Server built from these knobs, driven by an in-process open-loop
// load derived from the fault spec's burst/flood directives plus a
// baseline of well-behaved tenants, then shut down and audited.
type SelfDriveConfig struct {
	Workers     int
	QueueCap    int
	GlobalBytes int64
	DebtCap     int64
	// DefaultDeadline is applied to all requests (0 = none).
	DefaultDeadline time.Duration
	// FaultSpec is the -faults grammar string ("" = no chaos). Its
	// slow/stuck directives wrap the handler; its burst/flood
	// directives become adversarial load streams.
	FaultSpec string
	Seed      uint64
	// Dur is how long load runs before shutdown. DrainTimeout bounds
	// the default drain (0 = 10s).
	Dur          time.Duration
	DrainTimeout time.Duration
	// CostMS is the per-request handler cost for generated streams.
	// Baseline overrides the default well-behaved mix when non-nil.
	CostMS   int
	Baseline []LoadSpec
}

// SelfDriveReport is the JSON-able outcome of a selfdrive run. OK is
// the single pass/fail bit the CI smoke gates on: zero accounting
// violations and a clean drain.
type SelfDriveReport struct {
	DurMS         int64               `json:"dur_ms"`
	Loads         []LoadResult        `json:"loads"`
	Tenants       []TenantStats       `json:"tenants"`
	Faults        fault.ServeCounters `json:"faults"`
	Violations    int64               `json:"violations"`
	ViolationMsgs []string            `json:"violation_msgs,omitempty"`
	DrainClean    bool                `json:"drain_clean"`
	DrainErr      string              `json:"drain_err,omitempty"`
	OK            bool                `json:"ok"`
}

// SelfDrive runs the smoke: build a server over WorkHandler with the
// configured chaos, drive it with the derived load for cfg.Dur, shut
// it down via the shutdown hook (nil = Drain directly; cmd/errserve
// passes a hook that raises SIGTERM against itself so the real signal
// path is exercised), and audit the accounting. The returned report
// is complete even when OK is false; the error covers only setup
// failures (a bad fault spec).
func SelfDrive(cfg SelfDriveConfig, shutdown func(*Server) error) (*SelfDriveReport, error) {
	spec, err := fault.Parse(cfg.FaultSpec)
	if err == nil {
		err = fault.Serve.Check(spec)
	}
	if err != nil {
		return nil, fmt.Errorf("selfdrive: %w", err)
	}
	if cfg.Dur <= 0 {
		cfg.Dur = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.CostMS <= 0 {
		cfg.CostMS = 2
	}

	inj := fault.NewServe(spec, cfg.Seed)
	s, err := New(Config{
		Handler:         WorkHandler(),
		Workers:         cfg.Workers,
		QueueCap:        cfg.QueueCap,
		GlobalBytes:     cfg.GlobalBytes,
		DebtCap:         cfg.DebtCap,
		DefaultDeadline: cfg.DefaultDeadline,
		Faults:          inj,
		Registry:        obs.NewRegistry(),
	})
	if err != nil {
		return nil, fmt.Errorf("selfdrive: %w", err)
	}
	defer s.Close()

	specs := LoadsFromFaults(spec, cfg.CostMS, 0)
	if cfg.Baseline != nil {
		specs = append(specs, cfg.Baseline...)
	} else {
		for i := 0; i < 4; i++ {
			specs = append(specs, LoadSpec{
				Tenant: fmt.Sprintf("base-%d", i), RPS: 40, CostMS: cfg.CostMS,
			})
		}
	}

	rep := &SelfDriveReport{DurMS: cfg.Dur.Milliseconds()}
	rep.Loads = RunLoad(s, specs, cfg.Seed, cfg.Dur)

	if shutdown == nil {
		shutdown = func(s *Server) error { return s.Drain(cfg.DrainTimeout) }
	}
	drainErr := shutdown(s)
	rep.DrainClean = drainErr == nil
	if drainErr != nil {
		rep.DrainErr = drainErr.Error()
	}

	rep.Violations, rep.ViolationMsgs = s.VerifyAccounting()
	rep.Tenants = s.Stats()
	rep.Faults = inj.ServeCounters()
	rep.OK = rep.Violations == 0 && rep.DrainClean
	return rep, nil
}
