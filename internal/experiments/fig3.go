package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/harness"
	"repro/internal/trace"
)

// Fig3Title heads Figure 3's round table.
const Fig3Title = "Figure 3 — rounds of an Elastic Round Robin execution"

// Fig3Result is a round-by-round trace of one ERR arbiter, the content
// of the paper's Figure 3: for every round, each flow's allowance
// A_i(r), the flits it sent, and its surplus count SC_i(r), plus the
// round's MaxSC.
type Fig3Result struct {
	Rec *core.TraceRecorder
}

// TraceERR queues the arrivals at one ERR arbiter serving flows flows,
// drains them, and returns its round trace.
func TraceERR(flows int, arrivals []flit.Packet) *Fig3Result {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(flows, e)
	for _, p := range arrivals {
		d.Arrive(p)
	}
	d.Drain()
	return &Fig3Result{Rec: rec}
}

// RunFig3 replays Figure 3's worked example (DESIGN.md): three
// backlogged flows with fixed packet lengths.
func RunFig3() *Fig3Result {
	var arrivals []flit.Packet
	for flow, lengths := range [][]int{{32, 8, 8, 8, 8}, {16, 8, 8, 8, 8}, {12, 20, 4, 4, 4}} {
		for _, l := range lengths {
			arrivals = append(arrivals, flit.Packet{Flow: flow, Length: l})
		}
	}
	return TraceERR(3, arrivals)
}

// Render writes the title and the round table.
func (r *Fig3Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, Fig3Title); err != nil {
		return err
	}
	return trace.WriteRecorderTable(w, r.Rec)
}
