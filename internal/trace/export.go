package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/fault"
)

// FaultWindow is one fault-active interval [At, End) on a router (or
// on one of its output ports; Port < 0 means the whole router, i.e. a
// freeze). Fault-induced blocking is attributed to hops at export
// time by span overlap: the event-driven core never visits the cycles
// inside a dormant stall window, so no runtime counter could be
// mode-identical — but the windows come from the parsed spec, which
// every mode shares.
type FaultWindow struct {
	Router int32
	Port   int32 // -1 = whole router (freeze)
	At     int64
	End    int64 // exclusive; math.MaxInt64 for a permanent fault
}

// WindowsFromSpec extracts the stall and freeze windows of a parsed
// fault spec. Probabilistic directives (drop, corrupt, malformed)
// have no window — their effects are visible in the flit stream, not
// as blocked time.
func WindowsFromSpec(spec *fault.Spec) []FaultWindow {
	if spec == nil {
		return nil
	}
	var ws []FaultWindow
	for _, d := range spec.Directives {
		var port int32
		switch d.Kind {
		case "stall":
			port = int32(d.Port)
		case "freeze":
			port = -1
		default:
			continue
		}
		ws = append(ws, FaultWindow{Router: int32(d.Router), Port: port, At: d.At, End: d.End()})
	}
	return ws
}

// FaultCycles returns how many cycles of a hop record's occupancy
// span [Grant, Cycle] overlap fault windows on its router/output
// (overlapping windows double-count; specs rarely overlap).
func FaultCycles(rec Record, ws []FaultWindow) int64 {
	if rec.Kind != KindHop {
		return 0
	}
	var n int64
	for _, w := range ws {
		if w.Router != rec.Router {
			continue
		}
		if w.Port >= 0 && w.Port != int32(rec.OutPort) {
			continue
		}
		lo, hi := rec.Grant, rec.Cycle
		if w.At > lo {
			lo = w.At
		}
		if w.End-1 < hi {
			hi = w.End - 1
		}
		if hi >= lo {
			n += hi - lo + 1
		}
	}
	return n
}

// WriteJSONL writes one span per line: inject, hop (with the latency
// decomposition, fault cycles included), deliver. Keys are emitted in
// a fixed order via Fprintf, so equal record sequences produce equal
// bytes — the property the cross-mode differential tests pin.
func WriteJSONL(w io.Writer, recs []Record, ws []FaultWindow) error {
	for _, r := range recs {
		var err error
		switch r.Kind {
		case KindInject:
			_, err = fmt.Fprintf(w, `{"ev":"inject","pkt":%d,"flow":%d,"src":%d,"dst":%d,"len":%d,"cycle":%d}`+"\n",
				r.PktID, r.Flow, r.Router, r.Dst, r.Len, r.Cycle)
		case KindHop:
			_, err = fmt.Fprintf(w, `{"ev":"hop","pkt":%d,"flow":%d,"router":%d,"in":[%d,%d],"out":[%d,%d],"len":%d,"arrive":%d,"eligible":%d,"grant":%d,"depart":%d,"queue":%d,"arb":%d,"contend":%d,"upstream":%d,"credit":%d,"fault":%d}`+"\n",
				r.PktID, r.Flow, r.Router, r.InPort, r.InVC, r.OutPort, r.OutVC, r.Len,
				r.Arrive, r.Eligible, r.Grant, r.Cycle,
				r.Eligible-r.Arrive, r.Grant-r.Eligible, r.Contend, r.UpGap, r.CrdWait,
				FaultCycles(r, ws))
		case KindDeliver:
			_, err = fmt.Fprintf(w, `{"ev":"deliver","pkt":%d,"flow":%d,"dst":%d,"inject":%d,"cycle":%d,"latency":%d}`+"\n",
				r.PktID, r.Flow, r.Dst, r.Arrive, r.Cycle, r.Cycle-r.Arrive+1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes the records as a Chrome trace-event JSON array
// (loadable in Perfetto / chrome://tracing). Timestamps are cycles
// rendered as integer microseconds; each flow becomes a process
// (pid), each packet a thread (tid), each hop a complete ("X") event
// spanning the packet's residence at that router, and inject/deliver
// instant ("i") events. Output bytes are deterministic: fixed key
// order, records already in merge order.
func WriteChrome(w io.Writer, recs []Record, ws []FaultWindow) error {
	if _, err := fmt.Fprintf(w, "[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := fmt.Fprintf(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	// Process-name metadata for each flow present, sorted.
	flows := map[int32]bool{}
	for _, r := range recs {
		flows[r.Flow] = true
	}
	sorted := make([]int32, 0, len(flows))
	for f := range flows {
		sorted = append(sorted, f)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, f := range sorted {
		if err := emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"flow %d"}}`, f, f); err != nil {
			return err
		}
	}
	for _, r := range recs {
		var err error
		switch r.Kind {
		case KindInject:
			err = emit(`{"name":"inject @%d","cat":"pkt","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}`,
				r.Router, r.Cycle, r.Flow, r.PktID)
		case KindHop:
			err = emit(`{"name":"hop r%d in(%d,%d) out(%d,%d)","cat":"hop","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"len":%d,"queue":%d,"arb":%d,"contend":%d,"upstream":%d,"credit":%d,"fault":%d}}`,
				r.Router, r.InPort, r.InVC, r.OutPort, r.OutVC,
				r.Arrive, r.Cycle-r.Arrive+1, r.Flow, r.PktID,
				r.Len, r.Eligible-r.Arrive, r.Grant-r.Eligible,
				r.Contend, r.UpGap, r.CrdWait, FaultCycles(r, ws))
		case KindDeliver:
			err = emit(`{"name":"deliver @%d (latency %d)","cat":"pkt","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}`,
				r.Router, r.Cycle-r.Arrive+1, r.Cycle, r.Flow, r.PktID)
		}
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n]\n")
	return err
}

// Audit cross-checks merged records against the span invariants every
// mode must uphold — arrive <= eligible <= grant <= depart per hop,
// decomposition bounded by the span, deliver not before inject — and
// reports violations through the given sink (check.Recorder.Report
// has this exact shape).
func Audit(recs []Record, report func(cycle int64, invariant string, flow int, format string, argv ...any)) int {
	bad := 0
	for _, r := range recs {
		switch r.Kind {
		case KindHop:
			if r.Arrive > r.Eligible || r.Eligible > r.Grant || r.Grant > r.Cycle {
				bad++
				report(r.Cycle, "trace-span-order", int(r.Flow),
					"hop pkt %d router %d: arrive=%d eligible=%d grant=%d depart=%d out of order",
					r.PktID, r.Router, r.Arrive, r.Eligible, r.Grant, r.Cycle)
			}
			decomp := int64(r.Contend) + int64(r.UpGap) + int64(r.CrdWait)
			if span := r.Cycle - r.Grant; decomp > span {
				bad++
				report(r.Cycle, "trace-decomposition", int(r.Flow),
					"hop pkt %d router %d: blocked-cycle decomposition %d exceeds occupancy span %d",
					r.PktID, r.Router, decomp, span)
			}
		case KindDeliver:
			if r.Arrive > r.Cycle {
				bad++
				report(r.Cycle, "trace-span-order", int(r.Flow),
					"deliver pkt %d: inject cycle %d after delivery %d", r.PktID, r.Arrive, r.Cycle)
			}
		}
	}
	return bad
}
