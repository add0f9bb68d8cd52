package shard

// Reporting and auditing. Report aggregates in fixed global order (ledgers
// by shard index, delay sums by node ID), so its rendered form is as
// partition-independent as the trace. Audit enforces the custody-ledger
// invariants — per-shard balance, composed balance, and the wire identity
// ΣExported − ΣImported == packets pending injection — plus the
// single-transmitter invariant on every link.

import (
	"fmt"
	"strings"

	"repro/internal/network"
)

// Report is a run summary, identical for every shard count.
type Report struct {
	Generated    int64
	Delivered    int64
	BufferDrops  int64
	NoRouteDrops int64
	LoopDrops    int64
	OutageDrops  int64
	InFlight     int64
	AvgDelay     float64 // seconds, over delivered packets
	AvgHops      float64
	Conservation network.Conservation

	// Control plane (all zero without Config.Adaptive).
	Originated      int64 // routing updates flooded
	CtrlGenerated   int64 // update copies enqueued
	CtrlConsumed    int64
	CtrlOutageDrops int64
	CtrlInFlight    int64
}

// Ledgers snapshots every shard's custody ledger, in-flight terms included.
func (s *Sim) Ledgers() []Ledger {
	out := make([]Ledger, len(s.shards))
	for i, sh := range s.shards {
		l := sh.led
		l.InFlight, l.CtrlInFlight = sh.inFlight()
		out[i] = l
	}
	return out
}

// Report aggregates the shard ledgers and delivery statistics.
func (s *Sim) Report() Report {
	var r Report
	for _, l := range s.Ledgers() {
		r.Generated += l.Generated
		r.Delivered += l.Delivered
		r.BufferDrops += l.BufferDrops
		r.NoRouteDrops += l.NoRouteDrops
		r.LoopDrops += l.LoopDrops
		r.OutageDrops += l.OutageDrops
		r.InFlight += l.InFlight
		r.CtrlGenerated += l.CtrlGenerated
		r.CtrlConsumed += l.CtrlConsumed
		r.CtrlOutageDrops += l.CtrlOutageDrops
		r.CtrlInFlight += l.CtrlInFlight
	}
	for _, sh := range s.shards {
		r.Originated += sh.origs
	}
	userWires, ctrlWires := s.pendingWireKinds()
	r.InFlight += userWires
	r.CtrlInFlight += ctrlWires
	var delay float64
	var hops, delivered int64
	for _, n := range s.nodeAt { // global node order: float sum is partition-independent
		delivered += n.delivered
		delay += n.delaySum
		hops += n.hopSum
	}
	if delivered > 0 {
		r.AvgDelay = delay / float64(delivered)
		r.AvgHops = float64(hops) / float64(delivered)
	}
	// Compose's in-flight term already counts the wires: each shard books
	// Exported−Imported into it, and the pending wires are exactly the
	// exported-not-yet-imported packets.
	r.Conservation = Compose(s.Ledgers())
	return r
}

// String renders the report with fixed formats for golden comparison. It
// deliberately omits the shard count and lookahead — the fields that
// legitimately differ between partitionings of the same run.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "generated   %d\n", r.Generated)
	fmt.Fprintf(&b, "delivered   %d\n", r.Delivered)
	fmt.Fprintf(&b, "drops       buffer=%d noroute=%d loop=%d outage=%d\n",
		r.BufferDrops, r.NoRouteDrops, r.LoopDrops, r.OutageDrops)
	fmt.Fprintf(&b, "in-flight   %d\n", r.InFlight)
	fmt.Fprintf(&b, "avg-delay   %.9fs\n", r.AvgDelay)
	fmt.Fprintf(&b, "avg-hops    %.6f\n", r.AvgHops)
	fmt.Fprintf(&b, "conserved   %v\n", r.Conservation.Balanced())
	// The control line appears only for adaptive runs, keeping static-mode
	// renderings (and their committed goldens) byte-identical to before.
	if r.Originated > 0 || r.CtrlGenerated > 0 {
		fmt.Fprintf(&b, "control     originated=%d copies=%d consumed=%d outage=%d in-flight=%d\n",
			r.Originated, r.CtrlGenerated, r.CtrlConsumed, r.CtrlOutageDrops, r.CtrlInFlight)
	}
	return b.String()
}

// Audit checks every custody and transmitter invariant. Call it between
// Run invocations.
func (s *Sim) Audit() error {
	ledgers := s.Ledgers()
	var exported, imported, ctrlExported, ctrlImported int64
	for i, l := range ledgers {
		if err := l.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		exported += l.Exported
		imported += l.Imported
		ctrlExported += l.CtrlExported
		ctrlImported += l.CtrlImported
	}
	if err := Compose(ledgers).Err(); err != nil {
		return fmt.Errorf("composed: %w", err)
	}
	userWires, ctrlWires := s.pendingWireKinds()
	if onWire := exported - imported; onWire != userWires {
		return fmt.Errorf("wire imbalance: exported-imported = %d, pending wires = %d",
			onWire, userWires)
	}
	if onWire := ctrlExported - ctrlImported; onWire != ctrlWires {
		return fmt.Errorf("control wire imbalance: exported-imported = %d, pending wires = %d",
			onWire, ctrlWires)
	}
	for _, sh := range s.shards {
		for _, ls := range sh.links {
			if err := ls.Audit(); err != nil {
				return fmt.Errorf("link %d (%s->%s): %w", ls.l.ID,
					s.g.Node(ls.l.From).Name, s.g.Node(ls.l.To).Name, err)
			}
		}
	}
	return nil
}
