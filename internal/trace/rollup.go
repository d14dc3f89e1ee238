package trace

import (
	"fmt"
	"io"
	"repro/internal/obs"
)

// JainEpoch is the Jain fairness index of one epoch, computed over
// the flit service each active flow received in it.
type JainEpoch struct {
	Start  int64 `json:"start"`
	Active int   `json:"active_flows"`
	// PPM is the index in parts-per-million (1e6 = perfectly fair).
	PPM int64 `json:"ppm"`
}

// Rollup aggregates per-flow latency and hop-time decomposition.
//
// Latency covers every delivered packet (delivery runs in the serial
// commit phase, so the plain per-flow state is race-free); the hop
// decomposition covers sampled hops only and is accumulated with
// atomic adds, since Departed fires inside the concurrent compute
// phase under sharded stepping (int64 addition commutes, so the final
// sums are deterministic at any worker count).
//
// Deliveries are buffered and folded into the per-flow state in
// batches: the hot path is a sequential append, and the scattered
// writes across ~flows cold histogram cache lines are amortized over
// deliverBatch packets. Deliveries arrive in serial-commit order in
// every stepping mode and the fold replays that exact sequence, so
// batching cannot perturb byte-identity; it only means registry
// metrics lag the simulation by up to one batch until Finish.
type Rollup struct {
	flows    int
	epochLen int64

	// Serial-commit state (deliveries only).
	pend       []delivery
	deliveredN []int64
	flitsEp    []int64
	epochStart int64
	epochs     []JainEpoch

	// Per-flow latency histograms (standalone: the registry gets the
	// aggregate; per-flow quantiles render through Render).
	lat    []*obs.Histogram
	latAll *obs.Histogram

	// Sampled-hop decomposition, per flow, in cycles (atomic).
	hopsN, queueC, arbC, contendC, upC, crdC *obs.Vec

	deliveredC *obs.Counter
	jainG      *obs.Gauge
	epochsC    *obs.Counter
}

// delivery is one buffered delivered() call.
type delivery struct {
	flow, length int32
	latency      int64
	cycle        int64
}

// deliverBatch is how many deliveries accumulate before a fold.
const deliverBatch = 4096

func newRollup(flows int, epochLen int64, reg *obs.Registry) *Rollup {
	ro := &Rollup{
		flows:      flows,
		epochLen:   epochLen,
		pend:       make([]delivery, 0, deliverBatch),
		deliveredN: make([]int64, flows),
		flitsEp:    make([]int64, flows),
		lat:        make([]*obs.Histogram, flows),
		latAll:     reg.Histogram("trace.latency_cycles", obs.HistogramOpts{Log2: true}),
		hopsN:      reg.Vec("trace.hops", flows),
		queueC:     reg.Vec("trace.hop_queue_cycles", flows),
		arbC:       reg.Vec("trace.hop_arb_cycles", flows),
		contendC:   reg.Vec("trace.hop_contend_cycles", flows),
		upC:        reg.Vec("trace.hop_upstream_cycles", flows),
		crdC:       reg.Vec("trace.hop_credit_cycles", flows),
		deliveredC: reg.Counter("trace.delivered_packets"),
		jainG:      reg.Gauge("trace.jain_ppm"),
		epochsC:    reg.Counter("trace.jain_epochs"),
	}
	for i := range ro.lat {
		ro.lat[i] = obs.NewHistogram(obs.HistogramOpts{Log2: true})
	}
	return ro
}

// hop folds one sampled hop span into the decomposition (called from
// RouterTrace.Departed, possibly concurrently across routers).
func (ro *Rollup) hop(flow int, st *hopState) {
	if flow < 0 || flow >= ro.flows {
		return
	}
	ro.hopsN.Add(flow, 1)
	ro.queueC.Add(flow, st.eligible-st.arrive)
	ro.arbC.Add(flow, st.grant-st.eligible)
	ro.contendC.Add(flow, int64(st.contend))
	ro.upC.Add(flow, int64(st.upGap))
	ro.crdC.Add(flow, int64(st.crdWait))
}

// delivered buffers one delivery (serial commit phase, all packets).
func (ro *Rollup) delivered(flow, length int, latency, cycle int64) {
	ro.pend = append(ro.pend, delivery{
		flow: int32(flow), length: int32(length), latency: latency, cycle: cycle,
	})
	if len(ro.pend) >= deliverBatch {
		ro.fold()
	}
}

// fold replays the buffered deliveries, in arrival order, into the
// epoch accounting and latency histograms.
func (ro *Rollup) fold() {
	for _, d := range ro.pend {
		ro.flushEpochs(d.cycle)
		ro.latAll.Observe(d.latency)
		f := int(d.flow)
		if f < 0 || f >= ro.flows {
			continue
		}
		ro.deliveredN[f]++
		ro.flitsEp[f] += int64(d.length)
		ro.lat[f].Observe(d.latency)
	}
	ro.deliveredC.Add(int64(len(ro.pend)))
	ro.pend = ro.pend[:0]
}

// flushEpochs closes every epoch that ended before cycle. Epochs in
// which nothing was delivered are skipped (not appended), and a long
// idle gap fast-forwards in one step.
func (ro *Rollup) flushEpochs(cycle int64) {
	for cycle-ro.epochStart >= ro.epochLen {
		if !ro.closeEpoch() {
			// Nothing delivered since epochStart: jump to the epoch
			// containing cycle without appending empty epochs.
			gap := (cycle - ro.epochStart) / ro.epochLen
			ro.epochStart += gap * ro.epochLen
			return
		}
		ro.epochStart += ro.epochLen
	}
}

// closeEpoch computes and appends the current epoch's Jain index,
// reporting whether any flow was active in it.
func (ro *Rollup) closeEpoch() bool {
	var sum, sumSq float64
	active := 0
	for i, v := range ro.flitsEp {
		if v > 0 {
			active++
			f := float64(v)
			sum += f
			sumSq += f * f
			ro.flitsEp[i] = 0
		}
	}
	if active == 0 {
		return false
	}
	ppm := int64(sum * sum * 1e6 / (float64(active) * sumSq))
	ro.epochs = append(ro.epochs, JainEpoch{Start: ro.epochStart, Active: active, PPM: ppm})
	ro.jainG.Set(ppm)
	ro.epochsC.Inc()
	return true
}

// finish folds any buffered deliveries and closes the final partial
// epoch (see Trace.Finish).
func (ro *Rollup) finish(cycle int64) {
	ro.fold()
	ro.flushEpochs(cycle)
	if ro.closeEpoch() {
		ro.epochStart += ro.epochLen
	}
}

// Latency returns the aggregate latency histogram (all packets).
func (ro *Rollup) Latency() *obs.Histogram {
	ro.fold()
	return ro.latAll
}

// Render renders the rollup: per-flow tail latencies with the
// sampled-hop time decomposition, then the Jain fairness epochs. The
// output is deterministic (fixed iteration order, integer cycles) so
// differential tests can compare it byte for byte across stepping
// modes.
func (ro *Rollup) Render(w io.Writer) error {
	ro.fold()
	if _, err := fmt.Fprintf(w, "per-flow latency (cycles; all packets) and sampled hop decomposition (total cycles):\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " flow      n    p50    p99   p999    max | hops  queue    arb  contend  upstream  credit\n"); err != nil {
		return err
	}
	for f := 0; f < ro.flows; f++ {
		if ro.deliveredN[f] == 0 && ro.hopsN.Value(f) == 0 {
			continue
		}
		h := ro.lat[f]
		if _, err := fmt.Fprintf(w, " %4d %6d %6d %6d %6d %6d | %4d %6d %6d %8d %9d %7d\n",
			f, ro.deliveredN[f], h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max(),
			ro.hopsN.Value(f), ro.queueC.Value(f), ro.arbC.Value(f),
			ro.contendC.Value(f), ro.upC.Value(f), ro.crdC.Value(f)); err != nil {
			return err
		}
	}
	agg := ro.latAll
	if _, err := fmt.Fprintf(w, "all flows: n=%d p50=%d p99=%d p999=%d max=%d\n",
		agg.Count(), agg.Quantile(0.50), agg.Quantile(0.99), agg.Quantile(0.999), agg.Max()); err != nil {
		return err
	}
	if len(ro.epochs) == 0 {
		_, err := fmt.Fprintf(w, "Jain fairness: no completed epochs\n")
		return err
	}
	min, sum := ro.epochs[0].PPM, int64(0)
	for _, e := range ro.epochs {
		if e.PPM < min {
			min = e.PPM
		}
		sum += e.PPM
	}
	if _, err := fmt.Fprintf(w, "Jain fairness (%d-cycle epochs): %d epochs, mean %.4f, min %.4f\n",
		ro.epochLen, len(ro.epochs), float64(sum)/float64(len(ro.epochs))/1e6, float64(min)/1e6); err != nil {
		return err
	}
	for _, e := range ro.epochs {
		if _, err := fmt.Fprintf(w, "  epoch @%-8d flows=%-3d jain=%.4f\n", e.Start, e.Active, float64(e.PPM)/1e6); err != nil {
			return err
		}
	}
	return nil
}
