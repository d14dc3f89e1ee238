package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// backloggedCfg builds the shared workload of the robustness tests:
// flows continuously backlogged with mixed packet lengths, identical
// across disciplines because every source derives from the same seed.
func backloggedCfg(flows int, cycles int64, sch sched.Scheduler, seed uint64) SimConfig {
	src := rng.New(seed)
	sources := make([]traffic.Source, flows)
	for f := 0; f < flows; f++ {
		sources[f] = traffic.NewBacklogged(f, 4, rng.NewUniform(1, 32), src.Split())
	}
	return SimConfig{
		Flows:     flows,
		Scheduler: sch,
		Source:    traffic.NewMulti(sources...),
		Cycles:    cycles,
	}
}

// TestCheckCleanOnSeedWorkloads pins the zero-false-positives
// contract: the invariant checker must stay silent on the repo's
// standard fault-free workloads, for the paper's algorithm and the
// weighted extension alike.
func TestCheckCleanOnSeedWorkloads(t *testing.T) {
	weights := []int64{1, 2, 4}
	for _, tc := range []struct {
		name string
		sch  sched.Scheduler
	}{
		{"ERR", core.New()},
		{"WeightedERR", core.NewWeighted(func(f int) int64 { return weights[f] })},
		{"FCFS", sched.NewFCFS()},
	} {
		cfg := backloggedCfg(3, 20_000, tc.sch, 1)
		cfg.Check = true
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("%s: checked fault-free run failed: %v", tc.name, err)
		}
		if res.Faults.Dropped+res.Faults.Malformed+res.Rejected != 0 {
			t.Fatalf("%s: fault counters nonzero on a fault-free run: %+v", tc.name, res.Faults)
		}
	}
}

// TestGoldenFaultStallDegradation is the golden fault-injection test:
// under a transient link stall pinned to flow 0, ERR must keep Lemma 1
// (the checked run passes) and degrade gracefully — the stall's cost
// is billed to the faulty flow, whose later allowance shrinks until
// the others have caught up. FCFS, blind to occupancy, lets the
// head-of-line blocking tax everyone while the faulty flow keeps its
// full share.
func TestGoldenFaultStallDegradation(t *testing.T) {
	const (
		flows  = 6
		cycles = 40_000
		spec   = "stall(flow=0,at=5000,dur=10000)"
	)
	run := func(sch sched.Scheduler, checked bool) *SimResult {
		cfg := backloggedCfg(flows, cycles, sch, 1)
		cfg.FaultSpec = spec
		cfg.FaultSeed = 99
		cfg.Check = checked
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("%s under %q: %v", sch.Name(), spec, err)
		}
		return res
	}
	errRes := run(core.New(), true) // checked: ERR keeps its invariants under the fault
	fcfsRes := run(sched.NewFCFS(), false)

	if errRes.Faults.StallCycles == 0 {
		t.Fatal("the stall directive never fired")
	}
	errFaulty := errRes.Throughput.Flits(0)
	fcfsFaulty := fcfsRes.Throughput.Flits(0)
	var errRest, fcfsRest int64
	for f := 1; f < flows; f++ {
		errRest += errRes.Throughput.Flits(f)
		fcfsRest += fcfsRes.Throughput.Flits(f)
	}
	// ERR bills the stalled occupancy to flow 0, throttling it after
	// the window; FCFS leaves flow 0's share intact.
	if errFaulty >= fcfsFaulty {
		t.Errorf("faulty flow: ERR %d flits >= FCFS %d; ERR did not bill the stall to the faulty flow",
			errFaulty, fcfsFaulty)
	}
	// The healthy flows recover more of the lost window under ERR than
	// under FCFS's head-of-line blocking.
	if errRest <= fcfsRest {
		t.Errorf("healthy flows: ERR %d flits <= FCFS %d; ERR did not shield them from the stall",
			errRest, fcfsRest)
	}
}

// TestMalformedTrafficRejectedAtInjection pins the malformed-packet
// path: zero-length and unroutable packets mixed into the arrival
// stream are rejected at injection — counted, not crashed on — and
// the run stays invariant-clean.
func TestMalformedTrafficRejectedAtInjection(t *testing.T) {
	cfg := backloggedCfg(4, 10_000, core.New(), 1)
	cfg.FaultSpec = "malformed(kind=zerolen,p=0.05);malformed(kind=badflow,p=0.05)"
	cfg.FaultSeed = 7
	cfg.Check = true
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Malformed == 0 {
		t.Fatal("no malformed packets were emitted")
	}
	if res.Rejected != res.Faults.Malformed {
		t.Errorf("rejected %d != malformed %d; a malformed packet slipped past injection or a good one was refused",
			res.Rejected, res.Faults.Malformed)
	}
}

// TestWatchdogAbortsPermanentStall pins the deadlock path: a permanent
// stall must end the run with a structured watchdog violation, not a
// hang.
func TestWatchdogAbortsPermanentStall(t *testing.T) {
	cfg := backloggedCfg(2, 50_000, core.New(), 1)
	cfg.FaultSpec = "stall(at=100)"
	cfg.FaultSeed = 1
	cfg.Check = true
	cfg.WatchdogCycles = 500
	_, err := RunSim(cfg)
	if err == nil {
		t.Fatal("permanently stalled run completed without a watchdog abort")
	}
	if !strings.Contains(err.Error(), "wedged") {
		t.Errorf("error %q does not describe the wedge", err)
	}
	vs := check.AsViolations(err)
	if len(vs) == 0 || vs[0].Invariant != check.InvWatchdog {
		t.Fatalf("error does not carry a %s violation: %v", check.InvWatchdog, err)
	}
}

// TestEngineRefusesUnappliedFaults pins the engine family's fault
// rule: the single-server engine has no routers, ports or flit
// streams, so router-scoped directives and the flit-level malformed
// kinds fail the run, naming the directive and the driver family,
// instead of running as if fault-free.
func TestEngineRefusesUnappliedFaults(t *testing.T) {
	for _, spec := range []string{
		"freeze(router=0,at=100,dur=5000)", "drop(p=0.5)", "stall(port=0,at=10)",
		"malformed(kind=notail,p=0.5)", "slow(p=0.5,ms=20)",
	} {
		cfg := backloggedCfg(2, 1_000, core.New(), 1)
		cfg.FaultSpec = spec
		_, err := RunSim(cfg)
		if err == nil {
			t.Errorf("%s accepted", spec)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, spec) || !strings.Contains(msg, "single-server engine") {
			t.Errorf("refusal of %s does not name the directive and the driver: %v", spec, err)
		}
	}
}

// TestNoCSweepWatchdogRidesOutTransientFreeze pins the watchdog
// budget rule (fault.Spec.WatchdogBudget) on the network runners: a
// checked run rides out a router freeze longer than the 1<<16-cycle
// floor, because the budget is four times the longest window, while a
// permanent freeze still trips the watchdog.
func TestNoCSweepWatchdogRidesOutTransientFreeze(t *testing.T) {
	sweep := DefaultNoCSweepParams()
	sweep.Rates = sweep.Rates[:1]
	sweep.WarmCycles = 5_000
	sweep.Check = true
	sweep.Faults = "freeze(router=5,at=1000,dur=100000)"
	if _, err := RunNoCSweep(sweep); err != nil {
		t.Fatalf("nocsweep: transient freeze failed the run: %v", err)
	}
	sweep.Faults = "freeze(router=5,at=1000)"
	if _, err := RunNoCSweep(sweep); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("nocsweep: permanent freeze: err = %v, want a wedge report", err)
	}

	lot := DefaultParkingLotParams()
	lot.Cycles = 120_000
	lot.Check = true
	lot.Faults = "freeze(router=3,at=1000,dur=100000)"
	if _, err := RunParkingLot(lot); err != nil {
		t.Fatalf("parking lot: transient freeze failed the run: %v", err)
	}
}

// TestGridCheckpointResumeByteIdentical is the acceptance scenario at
// the experiments level: a grid runner killed mid-sweep and resumed
// from its checkpoint renders byte-identical output.
func TestGridCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	params := func() GapParams {
		p := DefaultGapParams()
		p.Flows = 4
		p.Cycles = 5_000
		return p
	}

	full, err := RunGap(params())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := full.Render(&want); err != nil {
		t.Fatal(err)
	}

	// Record a full checkpoint, then "kill" the run by truncating the
	// file to the header plus two completed jobs (plus a torn line).
	cpPath := filepath.Join(dir, "gap.jsonl")
	p := params()
	p.Checkpoint = cpPath
	if _, err := RunGap(p); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint has %d lines, want header + >=3 records", len(lines))
	}
	killed := strings.Join(lines[:3], "") + `{"job":2,"res`
	if err := os.WriteFile(cpPath, []byte(killed), 0o644); err != nil {
		t.Fatal(err)
	}

	p = params()
	p.Checkpoint = cpPath
	p.Resume = true
	resumed, err := RunGap(p)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := resumed.Render(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resumed output differs from uninterrupted run:\n%s\nvs\n%s", got.String(), want.String())
	}
	if !reflect.DeepEqual(full.MaxGap, resumed.MaxGap) || !reflect.DeepEqual(full.MeanWorst, resumed.MeanWorst) {
		t.Fatal("resumed aggregates differ from the uninterrupted run")
	}

	// The worker count only schedules the grid: the checkpoint resumes
	// under another one, byte-identically.
	p = params()
	p.Checkpoint = cpPath
	p.Resume = true
	p.Workers = 3
	again, err := RunGap(p)
	if err != nil {
		t.Fatalf("resume under Workers=3: %v", err)
	}
	got.Reset()
	if err := again.Render(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("output resumed under Workers=3 differs from uninterrupted run:\n%s\nvs\n%s", got.String(), want.String())
	}

	// Resuming the same checkpoint under different parameters must be
	// refused: mixing two grids' results would corrupt the sweep.
	p = params()
	p.Cycles = 6_000
	p.Checkpoint = cpPath
	p.Resume = true
	if _, err := RunGap(p); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("resume with changed parameters: err = %v, want a signature refusal", err)
	}
}

// TestCheckpointRefusesOtherPanel pins that a figure's panel is part
// of its grid: panels run different disciplines at the same job
// indices, so a fig4a checkpoint resumed as fig4b must be refused
// rather than relabel PBRR's results as FBRR's.
func TestCheckpointRefusesOtherPanel(t *testing.T) {
	p := smallFig4()
	p.Cycles = 2_000
	p.Checkpoint = filepath.Join(t.TempDir(), "fig4.jsonl")
	if _, err := RunFig4(p, "a"); err != nil {
		t.Fatal(err)
	}
	p.Resume = true
	if _, err := RunFig4(p, "b"); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("fig4a checkpoint resumed as fig4b: err = %v, want a signature refusal", err)
	}
}

// TestWeightedRefusesCheckpoint pins the explicit unsupported-knob
// error: a single-simulation runner has nothing to resume.
func TestWeightedRefusesCheckpoint(t *testing.T) {
	p := DefaultWeightedParams()
	p.Cycles = 1_000
	p.Checkpoint = filepath.Join(t.TempDir(), "w.jsonl")
	if _, err := RunWeighted(p); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("err = %v, want a checkpointing-unsupported refusal", err)
	}
}

// TestFaultsDoNotPerturbTraffic pins the seed-isolation contract: the
// fault streams derive from their own seed, so enabling a fault that
// never fires at the observed flows leaves throughput bit-identical
// to the fault-free run.
func TestFaultsDoNotPerturbTraffic(t *testing.T) {
	run := func(spec string) *SimResult {
		cfg := backloggedCfg(3, 10_000, core.New(), 5)
		cfg.FaultSpec = spec
		cfg.FaultSeed = 11
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run("")
	// A stall window entirely after the simulated horizon: configured
	// but never active.
	armed := run("stall(flow=0,at=1000000,dur=5)")
	for f := 0; f < 3; f++ {
		if clean.Throughput.Flits(f) != armed.Throughput.Flits(f) {
			t.Fatalf("flow %d throughput changed by an inert fault: %d vs %d",
				f, clean.Throughput.Flits(f), armed.Throughput.Flits(f))
		}
	}
}

// TestLengthAwareSchedulerUnderInjectedStall pins the override that
// lets fault injection stall a length-budgeting discipline: the
// engine's length-aware guard exists to keep DRR out of wormhole
// occupancy mode, but an injected stall is a deliberate failure and
// measuring DRR's degradation under it is the point.
func TestLengthAwareSchedulerUnderInjectedStall(t *testing.T) {
	cfg := backloggedCfg(3, 10_000, sched.NewDRR(64, nil), 1)
	cfg.FaultSpec = "stall(flow=0,at=100,dur=500)"
	cfg.FaultSeed = 1
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("DRR refused an injected stall: %v", err)
	}
	if res.Faults.StallCycles == 0 {
		t.Fatal("the stall never fired")
	}
}
