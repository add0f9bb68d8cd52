package network

// Invariant auditing and runtime traffic control for the scenario engine.
//
// The auditors check, from outside the event loop, that the simulator's
// books balance: every offered packet is delivered, dropped into exactly
// one drop class, or still demonstrably in flight; every trunk runs at most
// one transmitter; and, once floods quiesce, every PSN's cost database
// matches what was last flooded. internal/scenario calls these at every
// checkpoint, turning the failure-path bugfixes into permanently enforced
// invariants.

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Conservation is a snapshot of the packet ledger over Counted packets
// (user packets generated inside the measurement window).
type Conservation struct {
	Offered      int64
	Delivered    int64
	BufferDrops  int64
	LoopDrops    int64
	NoRouteDrops int64
	OutageDrops  int64
	InFlight     int64 // queued, on a transmitter, or propagating
}

// Balanced reports whether the ledger balances: offered equals delivered
// plus every drop class plus in-flight.
func (c Conservation) Balanced() bool {
	return c.Offered == c.Delivered+c.BufferDrops+c.LoopDrops+c.NoRouteDrops+c.OutageDrops+c.InFlight
}

// Plus returns the component-wise sum of two ledgers. The sharded runner
// composes its per-shard custody ledgers into one global Conservation with
// it: export/import counters cancel in the sum (every exported packet is
// imported exactly once or still on the wire), so the composed ledger obeys
// the same Balanced identity as a single-kernel run.
func (c Conservation) Plus(d Conservation) Conservation {
	return Conservation{
		Offered:      c.Offered + d.Offered,
		Delivered:    c.Delivered + d.Delivered,
		BufferDrops:  c.BufferDrops + d.BufferDrops,
		LoopDrops:    c.LoopDrops + d.LoopDrops,
		NoRouteDrops: c.NoRouteDrops + d.NoRouteDrops,
		OutageDrops:  c.OutageDrops + d.OutageDrops,
		InFlight:     c.InFlight + d.InFlight,
	}
}

// Err returns nil when balanced, or an error naming the imbalance.
func (c Conservation) Err() error {
	if c.Balanced() {
		return nil
	}
	accounted := c.Delivered + c.BufferDrops + c.LoopDrops + c.NoRouteDrops + c.OutageDrops + c.InFlight
	return fmt.Errorf("packet conservation violated: offered %d != accounted %d (missing %d): %+v",
		c.Offered, accounted, c.Offered-accounted, c)
}

// Conservation computes the current packet ledger. The in-flight term is
// counted by walking every output line (queue and transmitter) plus the
// propagation counter — independently of the terminal counters — so a
// packet destroyed without being booked into a drop class unbalances the
// ledger instead of hiding.
func (n *Network) Conservation() Conservation {
	c := Conservation{
		Offered:      n.offeredPkts.Value(),
		Delivered:    n.delivered.Value(),
		BufferDrops:  n.bufferDrops.Value(),
		LoopDrops:    n.loopDrops.Value(),
		NoRouteDrops: n.noRouteDrops.Value(),
		OutageDrops:  n.outageDrops.Value(),
		InFlight:     int64(n.propCounted),
	}
	for _, ls := range n.links {
		ls.Scan(func(p *node.Packet) {
			if !p.IsRouting() && p.Counted {
				c.InFlight++
			}
		})
	}
	return c
}

// RoutingInFlight returns the number of routing packets (flooded updates
// and distance-vector exchanges) currently queued, on a transmitter, or
// propagating. Zero means the last flood has fully quiesced.
func (n *Network) RoutingInFlight() int {
	inFlight := n.propRouting
	for _, ls := range n.links {
		ls.Scan(func(p *node.Packet) {
			if p.IsRouting() {
				inFlight++
			}
		})
	}
	return inFlight
}

// TransmitterAudit checks the single-transmitter invariant (node.Line.Audit)
// on every link.
func (n *Network) TransmitterAudit() error {
	for _, ls := range n.links {
		if err := ls.Audit(); err != nil {
			return fmt.Errorf("link %d (%s->%s): %w", ls.link.ID,
				n.g.Node(ls.link.From).Name, n.g.Node(ls.link.To).Name, err)
		}
	}
	return nil
}

// ConvergenceAudit checks that every PSN's cost database matches the last
// flooded cost of every link, within connected components: a PSN cut off by
// a partition legitimately holds stale entries for the far side. The check
// is inconclusive (nil) while routing packets are still in flight, and does
// not apply to the 1969 distance-vector mode. Callers should additionally
// allow one refresh interval (node.MaxUpdateInterval plus a measurement
// period) after a topology change before treating a mismatch as a bug:
// floods missed across a partition are only repaired by the periodic
// refresh.
func (n *Network) ConvergenceAudit() error {
	if n.cfg.Metric == node.BF1969 {
		return nil
	}
	if n.RoutingInFlight() > 0 {
		return nil
	}
	comp := n.components()
	for _, p := range n.psns {
		for _, ls := range n.links {
			if comp[p.id] != comp[ls.link.From] {
				continue
			}
			var got float64
			if p.mrouter != nil {
				got = p.mrouter.Cost(ls.link.ID)
			} else {
				got = p.router.Cost(ls.link.ID)
			}
			// lint:ignore floatexact the flooded cost is copied verbatim into databases; convergence means bit-identical
			if got != ls.lastFlooded {
				return fmt.Errorf("PSN %s believes cost %v for link %d (%s->%s), last flooded %v",
					n.g.Node(p.id).Name, got, ls.link.ID,
					n.g.Node(ls.link.From).Name, n.g.Node(ls.link.To).Name, ls.lastFlooded)
			}
		}
	}
	return nil
}

// components labels each node with its connected component over up links.
func (n *Network) components() []int {
	comp := make([]int, n.g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var queue []topology.NodeID
	for s := 0; s < n.g.NumNodes(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], topology.NodeID(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, l := range n.g.Out(u) {
				if n.links[l].Down() {
					continue
				}
				if v := n.g.Link(l).To; comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp
}

// --- runtime traffic control ---------------------------------------------

// ScaleTraffic multiplies every source's packet rate by factor, effective
// from each source's next arrival — the scenario engine's traffic surge.
func (n *Network) ScaleTraffic(factor float64) {
	if factor <= 0 {
		panic("network: traffic scale factor must be positive")
	}
	for _, p := range n.psns {
		if p.pktRate > 0 {
			p.pktRate *= factor
		}
	}
	n.cfg.Trace.Add(trace.Event{At: n.kernel.Now(), Kind: trace.TrafficChange,
		Node: topology.NoNode, Link: topology.NoLink, Cost: factor})
}

// SetMatrix switches the network to a new traffic matrix mid-run: every
// source's rate and destination distribution are rebuilt, sources the old
// matrix had silenced are re-armed, and sources the new matrix silences
// park at their next arrival. The report's minimum-path baseline follows
// the new matrix.
func (n *Network) SetMatrix(m *traffic.Matrix) {
	if m.NumNodes() != n.g.NumNodes() {
		panic("network: matrix size does not match graph")
	}
	n.cfg.Matrix = m
	for _, p := range n.psns {
		p.dstIDs = p.dstIDs[:0]
		p.dstCum = p.dstCum[:0]
		n.setupSource(p)
		if p.pktRate > 0 && !p.sourceArmed {
			n.armSource(p)
		}
	}
	n.cfg.Trace.Add(trace.Event{At: n.kernel.Now(), Kind: trace.TrafficChange,
		Node: topology.NoNode, Link: topology.NoLink})
}

// ScaleBackground multiplies the fluid background demand by factor,
// effective immediately on the current fluid routes (the routes themselves
// adapt at the next epoch) — the scenario engine's background surge.
// Panics when the network has no background matrix.
func (n *Network) ScaleBackground(factor float64) {
	if n.fluid == nil {
		panic("network: ScaleBackground without a background matrix")
	}
	n.fluid.Scale(factor)
	n.cfg.Trace.Add(trace.Event{At: n.kernel.Now(), Kind: trace.TrafficChange,
		Node: topology.NoNode, Link: topology.NoLink, Cost: factor})
}

// SetBackgroundMatrix switches the fluid background to a new matrix and
// re-routes it immediately (mirroring SetMatrix, which rebuilds the packet
// sources at once). Any accumulated background surge factor is forgotten.
// Panics when the network has no background matrix.
func (n *Network) SetBackgroundMatrix(m *traffic.Matrix) {
	if n.fluid == nil {
		panic("network: SetBackgroundMatrix without a background matrix")
	}
	n.fluid.SetMatrix(m)
	n.fluid.Reassign(n.bgCost, n.bgDown)
	n.cfg.Trace.Add(trace.Event{At: n.kernel.Now(), Kind: trace.TrafficChange,
		Node: topology.NoNode, Link: topology.NoLink})
}

// BackgroundLinkBPS returns the fluid background rate currently assigned
// to the link (0 without a background matrix).
func (n *Network) BackgroundLinkBPS(l topology.LinkID) float64 {
	if n.fluid == nil {
		return 0
	}
	return n.fluid.LinkBPS(l)
}

// BackgroundUnroutable returns the background demand (bps) the last epoch
// could not route around dead trunks (0 without a background matrix).
func (n *Network) BackgroundUnroutable() float64 {
	if n.fluid == nil {
		return 0
	}
	return n.fluid.Unroutable()
}

// BackgroundReassigns returns how many fluid epochs have re-routed the
// background so far (0 without a background matrix).
func (n *Network) BackgroundReassigns() int64 {
	if n.fluid == nil {
		return 0
	}
	return n.fluid.Reassigns()
}

// Stop halts the current Run after the executing event returns, leaving the
// clock at the stopping event's time; the scenario engine uses it to freeze
// the simulation at an invariant violation.
func (n *Network) Stop() { n.kernel.Stop() }
