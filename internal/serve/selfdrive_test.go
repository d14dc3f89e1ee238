package serve

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSelfDriveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("selfdrive run takes ~1s")
	}
	rep, err := SelfDrive(SelfDriveConfig{
		Workers: 4, QueueCap: 32,
		FaultSpec: "slow(p=0.05,ms=5);flood(tenant=hog,rps=200)",
		Seed:      42, Dur: 500 * time.Millisecond, CostMS: 2,
		DefaultDeadline: 500 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatalf("SelfDrive: %v", err)
	}
	if !rep.OK || rep.Violations != 0 || !rep.DrainClean {
		t.Fatalf("selfdrive not OK: %+v", rep)
	}
	// The flood tenant plus the 4 default baseline tenants must all
	// have sent traffic and show up in the stats.
	if len(rep.Loads) != 5 {
		t.Fatalf("got %d load streams, want 5", len(rep.Loads))
	}
	for _, l := range rep.Loads {
		if l.Sent == 0 {
			t.Fatalf("stream %s sent nothing", l.Tenant)
		}
	}
	if len(rep.Tenants) == 0 {
		t.Fatal("no tenant stats")
	}
	if rep.Faults.Slowed == 0 {
		t.Fatalf("slow fault never fired: %+v", rep.Faults)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-able: %v", err)
	}
}

func TestSelfDriveBadSpec(t *testing.T) {
	if _, err := SelfDrive(SelfDriveConfig{FaultSpec: "bogus(p=1)"}, nil); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

// TestSelfDriveRefusesUnappliedFaults pins the serve family's fault
// rule: a directive the front end does not apply (a router stall, a
// flit drop) fails the run, naming the directive and the driver
// family, instead of running as if fault-free.
func TestSelfDriveRefusesUnappliedFaults(t *testing.T) {
	for _, spec := range []string{"stall(port=0,at=10)", "drop(p=0.5)"} {
		_, err := SelfDrive(SelfDriveConfig{FaultSpec: spec, Workers: 1, Dur: 50 * time.Millisecond}, nil)
		if err == nil {
			t.Errorf("%s accepted", spec)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, spec) || !strings.Contains(msg, "serve front end") {
			t.Errorf("refusal of %s does not name the directive and the driver: %v", spec, err)
		}
	}
}

// TestSelfDriveShutdownHook pins the contract cmd/errserve relies on:
// the hook replaces the default drain, and a failing hook surfaces as
// an un-OK report rather than an error.
func TestSelfDriveShutdownHook(t *testing.T) {
	called := false
	rep, err := SelfDrive(SelfDriveConfig{
		Workers: 2, Dur: 50 * time.Millisecond,
		Baseline: []LoadSpec{{Tenant: "t", RPS: 20, CostMS: 1}},
	}, func(s *Server) error {
		called = true
		return errors.New("drain jammed")
	})
	if err != nil {
		t.Fatalf("SelfDrive: %v", err)
	}
	if !called {
		t.Fatal("shutdown hook never called")
	}
	if rep.OK || rep.DrainClean || rep.DrainErr != "drain jammed" {
		t.Fatalf("failing hook not reflected: %+v", rep)
	}
}

func TestRunBenchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("bench sweep takes ~1s")
	}
	rep, err := RunBench(BenchConfig{
		Workers: 2, CostMS: 2, QueueCap: 16, Mice: 3,
		Saturations: []float64{0.5, 2},
		Dur:         400 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatalf("RunBench: %v", err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(rep.Points))
	}
	if rep.CapacityRPS != 1000 {
		t.Fatalf("capacity %g, want 1000 (2 workers / 2ms)", rep.CapacityRPS)
	}
	for _, pt := range rep.Points {
		if pt.Sent == 0 || pt.ReqPerSec <= 0 {
			t.Fatalf("empty point: %+v", pt)
		}
		if pt.MiceMinSuccess < 0 || pt.MiceMinSuccess > 1 {
			t.Fatalf("implausible mice success: %+v", pt)
		}
	}
	// At 0.5x everything fits; at 2x the open-loop load must exceed
	// what got served.
	if under := rep.Points[0]; under.OK < under.Sent*9/10 {
		t.Fatalf("0.5x point lost traffic: %+v", under)
	}
	if over := rep.Points[1]; over.OK == over.Sent {
		t.Fatalf("2x point served everything offered: %+v", over)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-able: %v", err)
	}
}
