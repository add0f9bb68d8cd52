package shard

// The adaptive routing plane: measurement → cost module → flooded update →
// per-node incremental SPF, the same protocol stack internal/network runs,
// rebuilt on the shard model's determinism rules. Routing updates are just
// more packets: they ride the output queues at head priority, consume trunk
// bandwidth, and cross shard boundaries on the buffered wires under the same
// propagation-delay lookahead bound as user traffic — an update generated
// inside a window can only arrive at a remote shard at or after the window's
// end plus the cut's minimum propagation delay, so the conservative barrier
// needs no new machinery (cf. DESIGN.md "Adaptive routing through the
// barrier").
//
// Determinism by construction carries over untouched:
//
//   - an update's payload (*flooding.Update) is immutable after NewUpdate,
//     so sharing the pointer across the barrier is value semantics: the
//     importing shard reads exactly the bytes any partitioning would read
//     (the barrier's WaitGroup edges order the write before every read);
//   - origination, dedup, applying costs and rerouting are all node-local
//     state transitions driven by the node's own event order;
//   - forwarded copies are new packets enqueued on the forwarding node's own
//     out-links, so the ≥1-tick transmission delay separates every
//     cross-node consequence from the event that caused it, exactly as for
//     user packets.
//
// The per-epoch static tables of routing.go remain the default; Adaptive is
// opt-in so the committed static golden trace and the lean-data-plane
// benchmark keep their meaning.

import (
	"repro/internal/flooding"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

// ctrlSeqBit marks a packet sequence number as control-plane (an update
// copy): bit 63 set, then the enqueueing node's ID and its private control
// counter. User packets use id<<32|pseq with bit 63 clear, so the two
// spaces never collide and a drop record names its class.
const ctrlSeqBit = uint64(1) << 63

// bootAdaptive builds the per-node routing state: every router starts from
// the identical initial cost database (each module's link-up cost), the
// same boot internal/network performs.
func (s *Sim) bootAdaptive() {
	initial := make([]float64, s.g.NumLinks())
	for lid, ls := range s.linkAt {
		initial[lid] = ls.Module.Cost()
	}
	for id, n := range s.nodeAt {
		n.router = spf.NewIncrementalRouter(s.g, topology.NodeID(id), initial)
		n.dedup = flooding.NewDedup(s.g.NumNodes())
		n.nhScratch = make([]topology.LinkID, len(n.dests))
	}
}

// adaptiveNextHop picks n's outgoing link toward dst from its own SPF tree.
// A next hop onto a link this node knows to be down counts as no route —
// the same classification internal/network uses — because with flooded
// costs a down link is a transiently stale database entry, not a scripted
// epoch boundary.
func (n *lnode) adaptiveNextHop(dst topology.NodeID) topology.LinkID {
	lid := n.router.Tree().NextHop(dst)
	if lid == topology.NoLink || n.sh.s.linkAt[lid].Down() {
		return topology.NoLink
	}
	return lid
}

// measureAdaptive is one measurement period of the adaptive plane,
// mirroring network.measure: take every out-link's period average (down
// links discard theirs), feed the cost modules, and originate a flood when
// any module reports a significant change or the 50-second reliability
// refresh is due.
func (sh *shardState) measureAdaptive(n *lnode, now sim.Time) {
	sample := sh.s.cfg.MeasureSample
	report := false
	for _, ls := range n.out {
		count := ls.Meas.Count()
		avg := ls.Meas.Take()
		if ls.Down() {
			continue
		}
		cost, rep := ls.Module.Update(avg)
		if rep {
			report = true
		}
		if sample > 0 && int(n.id)%sample == 0 {
			sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: recMeasure,
				link: ls.l.ID, count: count, avg: avg, cost: cost})
			n.rseq++
		}
	}
	if report || now-n.lastOrig >= node.MaxUpdateInterval {
		sh.originate(n, now)
	}
	mustCallAt(sh.kernel, now+sh.s.cfg.MeasurePeriod, sh.measureCall, n)
}

// originate floods n's current link costs (DownCost for out-of-service
// links) to the whole network and applies them locally, mirroring
// network.originate. The links/costs slices are allocated fresh per update
// because the Update retains them for its lifetime.
func (sh *shardState) originate(n *lnode, now sim.Time) {
	links := make([]topology.LinkID, 0, len(n.out))
	costs := make([]float64, 0, len(n.out))
	for _, ls := range n.out {
		links = append(links, ls.l.ID)
		c := ls.Module.Cost()
		if ls.Down() {
			c = network.DownCost
		}
		costs = append(costs, c)
	}
	u := flooding.NewUpdate(n.id, n.seq.Next(), links, costs)
	n.dedup.Accept(u.Origin, u.Seq)
	sh.applyUpdate(n, u, now)
	n.lastOrig = now
	sh.origs++
	if sample := sh.s.cfg.MeasureSample; sample > 0 && int(n.id)%sample == 0 {
		sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: recOriginate,
			link: topology.NoLink, pkt: u.Seq, count: int64(len(links))})
		n.rseq++
	}
	n.fwd = flooding.AppendForwardLinks(n.fwd[:0], sh.s.g, n.id, topology.NoLink)
	sh.forwardUpdate(n, u, now, now)
}

// handleUpdate consumes one arriving update copy: dedup, apply, forward on
// every link except the arrival's reverse. The carrying packet dies here;
// forwarded copies are fresh packets sharing the immutable payload.
func (sh *shardState) handleUpdate(n *lnode, p *node.Packet, now sim.Time) {
	u := p.Update
	arrival := p.Arrival
	created := p.Created
	sh.led.CtrlConsumed++
	sh.pool.Put(p)
	if !n.dedup.Accept(u.Origin, u.Seq) {
		return
	}
	sh.applyUpdate(n, u, now)
	n.fwd = flooding.AppendForwardLinks(n.fwd[:0], sh.s.g, n.id, arrival)
	sh.forwardUpdate(n, u, created, now)
}

// forwardUpdate enqueues one copy of u on every link in n.fwd that is in
// service. Routing packets head-insert and are never buffer-dropped, so
// every copy is accepted.
func (sh *shardState) forwardUpdate(n *lnode, u *flooding.Update, created, now sim.Time) {
	for _, lid := range n.fwd {
		ls := sh.s.linkAt[lid]
		if ls.Down() {
			continue
		}
		p := sh.pool.Get()
		n.cseq++
		p.Seq = ctrlSeqBit | uint64(n.id)<<32 | n.cseq
		p.SizeBits = u.SizeBits()
		p.Created = created
		p.Update = u
		p.Arrival = ls.l.ID // the link this copy will traverse
		p.Enqueued = now
		ls.Queue.Push(p)
		sh.led.CtrlGenerated++
		ls.Start(now)
	}
}

// applyUpdate installs the flooded costs into n's router. For trace-sampled
// nodes it also diffs the next hops toward the node's own destination set
// and records a reroute event when any changed — the observable that pins
// "the reroute happened here, at this instant" into the golden trace.
func (sh *shardState) applyUpdate(n *lnode, u *flooding.Update, now sim.Time) {
	sample := sh.s.cfg.MeasureSample
	if sample == 0 || int(n.id)%sample != 0 {
		n.router.UpdateBatch(u.Links, u.Costs)
		return
	}
	tree := n.router.Tree()
	for i, d := range n.dests {
		n.nhScratch[i] = tree.NextHop(d)
	}
	n.router.UpdateBatch(u.Links, u.Costs)
	tree = n.router.Tree()
	changed := int64(0)
	for i, d := range n.dests {
		if tree.NextHop(d) != n.nhScratch[i] {
			changed++
		}
	}
	if changed > 0 {
		// lint:alloc the trace record buffer grows amortized and is drained per window
		sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: recReroute,
			link: topology.NoLink, pkt: uint64(u.Origin)<<32 | (u.Seq & 0xffffffff), count: changed})
		n.rseq++
	}
}
