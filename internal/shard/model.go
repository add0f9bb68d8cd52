package shard

// The per-shard traffic model: Poisson sources, forwarding, propagation
// and arrival, and scripted trunk faults. Each directed link's output line —
// queue, transmitter, §2.2 delay measurement, cost module and up/down
// state — is a node.Line, the same one internal/network embeds; this file
// adds what the sharded runner does differently, all of it built so that
// every event a node observes is independent of the partition (see the
// package comment for the ordering rules it follows): per-node splitmix64
// sources over a fixed destination set, propagation floored at one tick,
// arrivals buffered in (time, link) order and drained as tail events, and
// cross-shard wires. With Config.Adaptive the static per-epoch tables are
// replaced by the full adaptive routing plane of adaptive.go.

import (
	"fmt"

	"repro/internal/flooding"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

// shardState is one shard: a kernel plus the nodes and links it owns.
type shardState struct {
	s      *Sim
	id     int
	kernel *sim.Kernel
	pool   node.PacketPool
	nodes  []*lnode // ascending global NodeID
	links  []*llink // ascending global LinkID
	led    Ledger
	recs   []rec
	epoch  int    // routing table generation cursor (monotone in shard time)
	outbox []wire // packets exported during the current window
	origs  int64  // routing updates originated by this shard's nodes (adaptive)

	// Bound callbacks, allocated once so the hot path closures nothing.
	sourceCall  sim.Call
	txDoneCall  sim.Call
	drainCall   sim.Call
	measureCall sim.Call
	faultCall   sim.Call
}

func (sh *shardState) bind() {
	sh.sourceCall = sh.source
	sh.txDoneCall = sh.txDone
	sh.drainCall = sh.drain
	sh.measureCall = sh.measure
	sh.faultCall = sh.fault
}

// lnode is one node's shard-local state.
type lnode struct {
	id   topology.NodeID
	sh   *shardState
	rate float64
	arr  rng // inter-arrival draws
	size rng // packet size draws
	dst  rng // destination choice (also seeds the setup-time dest sample)

	dests []topology.NodeID
	out   []*llink // this node's out-links, ascending LinkID

	pseq uint64 // packets generated (low word of Packet.Seq)
	rseq uint32 // trace records emitted
	pend []pendArr

	delivered int64
	delaySum  float64 // seconds, accumulated in this node's event order
	hopSum    int64

	// Adaptive routing plane (nil/zero unless Config.Adaptive). All of it is
	// node-local state driven by the node's own event order, so it inherits
	// the partition-independence argument unchanged.
	router    *spf.IncrementalRouter
	dedup     *flooding.Dedup
	seq       flooding.Sequencer
	lastOrig  sim.Time
	cseq      uint64            // control copies enqueued (low word of ctrl Seq)
	fwd       []topology.LinkID // flood-forwarding scratch
	nhScratch []topology.LinkID // next-hop diff scratch, one per dest
}

// pendArr is one arrival awaiting its drain, sorted by (at, link) — an
// order that depends only on content, never on insertion order, which is
// what makes cross-shard injection invisible to the model.
type pendArr struct {
	at   sim.Time
	link topology.LinkID
	pkt  *node.Packet
}

// llink is one directed link's shard-local state: its PSN output line plus
// the propagation leg. It lives in the shard of its From node; To may be
// remote, in which case completed transmissions export over the wire
// instead of buffering an arrival.
type llink struct {
	node.Line
	l       topology.Link
	propLat sim.Time // >= 1 tick
	toLocal *lnode   // nil when To lives in another shard
}

// wire is one packet in transit between shards, fully serialized: the
// target reconstructs the packet from its own pool, so no *node.Packet ever
// crosses a shard boundary. Routing-update copies additionally carry their
// payload pointer: a *flooding.Update is immutable after construction, so
// sharing it across the barrier is value semantics — the importing shard
// reads exactly the bytes any partitioning would read, and the barrier's
// happens-before edges make the share race-free.
type wire struct {
	at      sim.Time // arrival time at the target node
	link    topology.LinkID
	seq     uint64
	src     topology.NodeID
	dst     topology.NodeID
	size    float64
	created sim.Time
	hops    int
	upd     *flooding.Update // non-nil for routing-update copies
}

// --- setup ----------------------------------------------------------------

func (s *Sim) buildNode(id topology.NodeID) {
	sh := s.shards[s.part[id]]
	n := &lnode{
		id:   id,
		sh:   sh,
		rate: s.cfg.PktRate,
		arr:  seedRNG(s.cfg.Seed, int(id), 0),
		size: seedRNG(s.cfg.Seed, int(id), 1),
		dst:  seedRNG(s.cfg.Seed, int(id), 2),
	}
	s.nodeAt[id] = n
	sh.nodes = append(sh.nodes, n)
	n.dests = s.sampleDests(n)
	for _, d := range n.dests {
		s.routes.addDest(d)
	}
}

// sampleDests draws the node's destination set from its dst stream: within
// DestRadius hops when set (locality traffic), else uniformly.
func (s *Sim) sampleDests(n *lnode) []topology.NodeID {
	total := s.g.NumNodes()
	want := s.cfg.Dests
	if s.cfg.DestRadius > 0 {
		cand := s.ball(n.id, s.cfg.DestRadius)
		if len(cand) <= want {
			return cand
		}
		out := make([]topology.NodeID, 0, want)
		for len(out) < want {
			d := cand[n.dst.intn(len(cand))]
			if !containsNode(out, d) {
				out = append(out, d)
			}
		}
		return out
	}
	if want > total-1 {
		want = total - 1
	}
	out := make([]topology.NodeID, 0, want)
	for len(out) < want {
		d := topology.NodeID(n.dst.intn(total - 1))
		if d >= n.id {
			d++ // skip self without biasing the draw
		}
		if !containsNode(out, d) {
			out = append(out, d)
		}
	}
	return out
}

func containsNode(s []topology.NodeID, d topology.NodeID) bool {
	for _, v := range s {
		if v == d {
			return true
		}
	}
	return false
}

// ball returns the nodes within radius hops of origin, ascending by ID,
// excluding origin itself. BFS over Out in link order — deterministic.
func (s *Sim) ball(origin topology.NodeID, radius int) []topology.NodeID {
	s.ballGen++
	gen := s.ballGen
	s.ballSeen[origin] = gen
	frontier := []topology.NodeID{origin}
	var members []topology.NodeID
	for d := 0; d < radius && len(frontier) > 0; d++ {
		var next []topology.NodeID
		for _, u := range frontier {
			for _, lid := range s.g.Out(u) {
				v := s.g.Link(lid).To
				if s.ballSeen[v] != gen {
					s.ballSeen[v] = gen
					members = append(members, v)
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	// BFS emits in distance order; normalize to ascending ID (insertion sort
	// — the balls are small).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && members[j] < members[j-1]; j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	return members
}

func (s *Sim) buildLinks(id topology.NodeID) {
	sh := s.shards[s.part[id]]
	n := s.nodeAt[id]
	for _, lid := range s.g.Out(id) {
		l := s.g.Link(lid)
		ls := &llink{l: l, propLat: sim.FromSeconds(l.PropDelay)}
		ls.Line = node.NewLine(s.cfg.QueueLimit, node.NewCostModule(s.cfg.Metric, l.Type, l.PropDelay),
			l.Type.Bandwidth(), sh.kernel, sh.txDoneCall, ls)
		if ls.propLat < 1 {
			ls.propLat = 1
		}
		if s.part[l.To] == s.part[id] {
			ls.toLocal = s.nodeAt[l.To]
		}
		s.linkAt[lid] = ls
		sh.links = append(sh.links, ls)
		n.out = append(n.out, ls)
	}
}

// --- traffic --------------------------------------------------------------

// nextGap draws the node's next inter-arrival gap, at least one tick.
func (n *lnode) nextGap() sim.Time {
	gap := sim.FromSeconds(n.arr.exp(1 / n.rate))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// source generates one packet and re-arms itself.
func (sh *shardState) source(now sim.Time, arg any) {
	n := arg.(*lnode)
	p := sh.pool.Get()
	p.Seq = uint64(n.id)<<32 | n.pseq
	n.pseq++
	p.Src = n.id
	p.Dst = n.dests[n.dst.intn(len(n.dests))]
	size := n.size.exp(network.MeanPktBits)
	if size < network.MinPktBits {
		size = network.MinPktBits
	}
	if size > network.MaxPktBits {
		size = network.MaxPktBits
	}
	p.SizeBits = size
	p.Created = now
	p.Arrival = topology.NoLink
	p.Counted = true
	sh.led.Generated++
	sh.handlePacket(n, p, now)
	mustCallAt(sh.kernel, now+n.nextGap(), sh.sourceCall, n)
}

// handlePacket delivers, drops, or forwards a packet at node n.
func (sh *shardState) handlePacket(n *lnode, p *node.Packet, now sim.Time) {
	if p.Update != nil {
		sh.handleUpdate(n, p, now)
		return
	}
	if p.Dst == n.id {
		n.delivered++
		n.delaySum += (now - p.Created).Seconds()
		n.hopSum += int64(p.Hops)
		sh.led.Delivered++
		sh.pool.Put(p)
		return
	}
	if p.Hops >= network.MaxHops {
		sh.led.LoopDrops++
		sh.dropRec(n, now, recLoopDrop, p.Arrival, p.Seq)
		sh.pool.Put(p)
		return
	}
	var lid topology.LinkID
	if sh.s.cfg.Adaptive {
		// Adaptive: the node's own SPF tree decides. A next hop onto a link
		// this node knows to be down is "no route" (the database is stale),
		// matching internal/network's classification.
		lid = n.adaptiveNextHop(p.Dst)
		if lid == topology.NoLink {
			sh.led.NoRouteDrops++
			sh.dropRec(n, now, recNoRouteDrop, p.Arrival, p.Seq)
			sh.pool.Put(p)
			return
		}
	} else {
		sh.epoch = sh.s.routes.epochAt(sh.epoch, now)
		lid = sh.s.routes.nextHop(sh.epoch, p.Dst, n.id)
		if lid < 0 {
			sh.led.NoRouteDrops++
			sh.dropRec(n, now, recNoRouteDrop, p.Arrival, p.Seq)
			sh.pool.Put(p)
			return
		}
		if sh.s.linkAt[lid].Down() {
			sh.led.OutageDrops++
			sh.dropRec(n, now, recOutageDrop, lid, p.Seq)
			sh.pool.Put(p)
			return
		}
	}
	ls := sh.s.linkAt[lid]
	p.Enqueued = now
	if !ls.Queue.Push(p) {
		sh.led.BufferDrops++
		sh.dropRec(n, now, recBufferDrop, lid, p.Seq)
		sh.pool.Put(p)
		return
	}
	ls.Start(now)
}

// lint:alloc the trace record buffer grows amortized and is drained per window
func (sh *shardState) dropRec(n *lnode, now sim.Time, kind recKind, link topology.LinkID, pkt uint64) {
	if !sh.s.cfg.TraceDrops {
		n.rseq++ // keep sequence numbering identical whether or not traced
		return
	}
	sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: kind, link: link, pkt: pkt})
	n.rseq++
}

// txDone completes a transmission, then either buffers the arrival at the
// local peer or exports it over the wire.
func (sh *shardState) txDone(now sim.Time, arg any) {
	ls := arg.(*llink)
	p := ls.Finish(now)
	if p == nil {
		return // stale completion (see node.Line.Finish)
	}
	at := now + ls.propLat
	if ls.toLocal != nil {
		p.Arrival = ls.l.ID
		sh.deliverArrival(ls.toLocal, at, ls.l.ID, p)
	} else {
		// lint:alloc the outbox grows to the per-window export high-watermark, then reuses
		sh.outbox = append(sh.outbox, wire{
			at: at, link: ls.l.ID, seq: p.Seq, src: p.Src, dst: p.Dst,
			size: p.SizeBits, created: p.Created, hops: p.Hops, upd: p.Update,
		})
		if p.Update != nil {
			sh.led.CtrlExported++
		} else {
			sh.led.Exported++
		}
		sh.pool.Put(p)
	}
	ls.Start(now)
}

// importWire materializes a cross-shard arrival in the target shard.
func (sh *shardState) importWire(w *wire) {
	p := sh.pool.Get()
	p.Seq = w.seq
	p.Src = w.src
	p.Dst = w.dst
	p.SizeBits = w.size
	p.Created = w.created
	p.Hops = w.hops
	p.Arrival = w.link
	if w.upd != nil {
		p.Update = w.upd
		sh.led.CtrlImported++
	} else {
		p.Counted = true
		sh.led.Imported++
	}
	sh.deliverArrival(sh.s.nodeAt[sh.s.g.Link(w.link).To], w.at, w.link, p)
}

// deliverArrival inserts an arrival into n's pending buffer, keeping it
// sorted by (at, link), and arms one drain for the instant if none exists.
// The drain is a tail event: at its instant it fires after every normal
// event, so node n processes the arrival identically whether the sender was
// local (drain armed mid-window) or remote (armed at the barrier).
func (sh *shardState) deliverArrival(n *lnode, at sim.Time, link topology.LinkID, p *node.Packet) {
	i := len(n.pend)
	for i > 0 {
		e := &n.pend[i-1]
		if e.at < at || (e.at == at && e.link < link) {
			break
		}
		i--
	}
	sameAt := (i > 0 && n.pend[i-1].at == at) || (i < len(n.pend) && n.pend[i].at == at)
	n.pend = append(n.pend, pendArr{}) // lint:alloc pending-arrival buffer grows to its high-watermark, then reuses
	copy(n.pend[i+1:], n.pend[i:])
	n.pend[i] = pendArr{at: at, link: link, pkt: p}
	if !sameAt {
		if _, err := sh.kernel.ScheduleTailCallAt(at, sh.drainCall, n); err != nil {
			panic(fmt.Sprintf("shard: %v", err))
		}
	}
}

// drain processes every pending arrival whose time has come, in link order.
func (sh *shardState) drain(now sim.Time, arg any) {
	n := arg.(*lnode)
	if len(n.pend) > 0 && n.pend[0].at < now {
		panic("shard: arrival missed its drain")
	}
	i := 0
	for i < len(n.pend) && n.pend[i].at == now {
		p := n.pend[i].pkt
		n.pend[i].pkt = nil
		i++
		sh.handlePacket(n, p, now)
	}
	n.pend = n.pend[:copy(n.pend, n.pend[i:])]
}

// --- measurement ----------------------------------------------------------

// measure takes every out-link's period average, feeds the cost module, and
// re-arms the node's tick. In adaptive mode the reported changes also drive
// update origination — see adaptive.go.
func (sh *shardState) measure(now sim.Time, arg any) {
	n := arg.(*lnode)
	if sh.s.cfg.Adaptive {
		sh.measureAdaptive(n, now)
		return
	}
	sample := sh.s.cfg.MeasureSample
	for _, ls := range n.out {
		if ls.Down() {
			continue
		}
		count := ls.Meas.Count()
		avg := ls.Meas.Take()
		cost, _ := ls.Module.Update(avg)
		if sample > 0 && int(n.id)%sample == 0 {
			sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: recMeasure,
				link: ls.l.ID, count: count, avg: avg, cost: cost})
			n.rseq++
		}
	}
	mustCallAt(sh.kernel, now+sh.s.cfg.MeasurePeriod, sh.measureCall, n)
}

// --- faults ---------------------------------------------------------------

type faultEv struct {
	ls *llink
	up bool
}

// fault applies one scripted state change to a directed link: down fails
// its output line (node.Line.Fail: the in-flight transmission and the queue
// become outage drops; packets already propagating are past the cut and
// survive), up restores it (node.Line.Restore), like network does on
// repair. In adaptive mode either transition also makes the endpoint
// originate an update advertising the new state (DownCost or the module's
// reset cost) — the other direction's own fault event does the same at the
// far endpoint, which is internal/network's originate-from-both-ends in
// per-direction form.
func (sh *shardState) fault(now sim.Time, arg any) {
	f := arg.(*faultEv)
	ls := f.ls
	if f.up != ls.Down() {
		return // already in the requested state
	}
	n := sh.s.nodeAt[ls.l.From]
	kind := recLinkDown
	if f.up {
		kind = recLinkUp
	}
	sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: kind, link: ls.l.ID})
	n.rseq++
	if f.up {
		ls.Restore()
	} else {
		ls.Fail(func(p *node.Packet) { sh.dropOutage(n, ls, p, now) })
	}
	if sh.s.cfg.Adaptive {
		sh.originate(n, now)
	}
}

// dropOutage books one packet flushed by a link outage, keeping control
// copies in their own ledger class.
func (sh *shardState) dropOutage(n *lnode, ls *llink, p *node.Packet, now sim.Time) {
	if p.Update != nil {
		sh.led.CtrlOutageDrops++
	} else {
		sh.led.OutageDrops++
	}
	sh.dropRec(n, now, recOutageDrop, ls.l.ID, p.Seq)
	sh.pool.Put(p)
}

// inFlight snapshots the packets this shard holds custody of, split into
// user traffic and routing-update copies.
func (sh *shardState) inFlight() (user, ctrl int64) {
	classify := func(p *node.Packet) {
		if p.Update != nil {
			ctrl++
		} else {
			user++
		}
	}
	for _, ls := range sh.links {
		ls.Scan(classify)
	}
	for _, ln := range sh.nodes {
		for i := range ln.pend {
			classify(ln.pend[i].pkt)
		}
	}
	return user, ctrl
}
