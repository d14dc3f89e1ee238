package experiments

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestTableRefusesUnhonoredOptions sets, on every -exp name, each run
// option its entry does not honor and expects a refusal that names
// the experiment and the option's flag.
func TestTableRefusesUnhonoredOptions(t *testing.T) {
	opts := []struct {
		opt  option
		flag string
		set  func(*Config)
	}{
		{optFaults, "-faults", func(c *Config) { c.Faults = "stall(at=0,dur=1)" }},
		{optCheck, "-check", func(c *Config) { c.Check = true }},
		{optCheckpoint, "-checkpoint", func(c *Config) { c.Resume = true }},
		{optTrace, "-trace-out", func(c *Config) { c.Trace = trace.NewEngineTrace(1, 1, 16) }},
		{optShard, "-shard/-of/-merge", func(c *Config) { c.Merge = []string{"a.jsonl"} }},
	}
	refusals := 0
	for _, name := range Names() {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		for _, o := range opts {
			var c Config
			o.set(&c)
			err := e.check(name, c)
			if e.honors&o.opt != 0 {
				if err != nil {
					t.Errorf("%s %s: %v, want it honored", name, o.flag, err)
				}
				continue
			}
			refusals++
			want := `experiment "` + name + `" does not support ` + o.flag
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: err = %v, want %q", name, o.flag, err, want)
			}
		}
	}
	if refusals == 0 {
		t.Fatal("no entry refuses any option")
	}
}
