package traffic

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/flit"
)

// TraceEvent is one recorded arrival: a packet and its arrival cycle.
type TraceEvent struct {
	Cycle  int64
	Flow   int
	Length int
	Dst    int
}

// Recorder wraps a source and records every arrival it produces, so a
// workload can be replayed bit-exactly against several schedulers —
// how the Figure 4/5/6 comparisons hold the workload fixed across
// disciplines.
type Recorder struct {
	Inner  Source
	Events []TraceEvent
}

// NewRecorder returns a recording wrapper around inner.
func NewRecorder(inner Source) *Recorder { return &Recorder{Inner: inner} }

// Arrivals implements Source.
func (r *Recorder) Arrivals(cycle int64, q QueueView) []flit.Packet {
	ps := r.Inner.Arrivals(cycle, q)
	for _, p := range ps {
		r.Events = append(r.Events, TraceEvent{Cycle: cycle, Flow: p.Flow, Length: p.Length, Dst: p.Dst})
	}
	return ps
}

// Replay is a Source that replays a recorded trace. Events must be
// sorted by cycle (Recorder produces them that way). Each call
// releases, in order, every not yet replayed event whose cycle is at
// or before the current one, so an event whose cycle was never polled
// (a replay attached to an engine already past it, or rewound with
// Reset mid-run) arrives late instead of blocking the rest of the
// trace.
type Replay struct {
	Events []TraceEvent
	next   int
	buf    []flit.Packet
}

// NewReplay returns a replaying source over events, sorting them by
// cycle (stable, preserving intra-cycle order).
func NewReplay(events []TraceEvent) *Replay {
	es := append([]TraceEvent(nil), events...)
	sort.SliceStable(es, func(i, j int) bool { return es[i].Cycle < es[j].Cycle })
	return &Replay{Events: es}
}

// Arrivals implements Source.
func (r *Replay) Arrivals(cycle int64, q QueueView) []flit.Packet {
	r.buf = r.buf[:0]
	for r.next < len(r.Events) && r.Events[r.next].Cycle <= cycle {
		e := r.Events[r.next]
		r.buf = append(r.buf, flit.Packet{Flow: e.Flow, Length: e.Length, Dst: e.Dst})
		r.next++
	}
	if len(r.buf) == 0 {
		return nil
	}
	return r.buf
}

// Reset rewinds the replay to the first event.
func (r *Replay) Reset() { r.next = 0 }

// Done reports whether every event has been replayed.
func (r *Replay) Done() bool { return r.next >= len(r.Events) }

// WriteTrace serialises events as one "cycle flow length dst" line
// each.
func WriteTrace(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Cycle, e.Flow, e.Length, e.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the format written by WriteTrace. Cycles must be
// non-negative.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var out []TraceEvent
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		txt := sc.Text()
		if txt == "" {
			continue
		}
		var e TraceEvent
		if _, err := fmt.Sscanf(txt, "%d %d %d %d", &e.Cycle, &e.Flow, &e.Length, &e.Dst); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %w", line, err)
		}
		if e.Cycle < 0 {
			return nil, fmt.Errorf("traffic: trace line %d: negative cycle %d", line, e.Cycle)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
