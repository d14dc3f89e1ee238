package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// WriteRecorderTable renders a core ERR round recording as the kind of
// table the paper's Figure 3 depicts: per round, each flow's
// allowance, the flits it sent, and its resulting surplus count. The
// format is pinned by the core golden tests. Each recorded round lists
// the opportunities the recorder paired with it. (The renderer lives
// here rather than on core.TraceRecorder so the dependency points from
// the recorder package to the scheduler, never the reverse —
// wormhole's and engine's tests import core, and trace imports
// wormhole.)
func WriteRecorderTable(w io.Writer, rec *core.TraceRecorder) error {
	for i, r := range rec.Rounds {
		if _, err := fmt.Fprintf(w, "Round %d (PreviousMaxSC=%d, visits=%d)\n",
			r.Round, r.PrevMaxSC, r.Visits); err != nil {
			return err
		}
		for _, op := range rec.Opportunities(i) {
			mark := ""
			if op.Left {
				mark = "  [drained]"
			}
			line := fmt.Sprintf("  flow %d: A=%-4d sent=%-4d SC=%-4d%s",
				op.Flow, op.Allowance, op.Sent, op.Surplus, mark)
			if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  MaxSC=%d\n", r.MaxSC); err != nil {
			return err
		}
	}
	return nil
}
