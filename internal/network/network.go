// Package network assembles the complete ARPANET model on top of the
// discrete-event kernel: PSNs with finite output queues, trunk
// transmitters, Poisson traffic sources driven by a traffic matrix,
// per-link delay measurement on the 10-second period, the pluggable link
// metric (HN-SPF / D-SPF / min-hop), and the flooding of routing updates as
// real high-priority packets that consume trunk bandwidth.
//
// It is the experiment driver behind Table 1, Figure 1 and Figure 13.
package network

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/flooding"
	"repro/internal/flowmodel"
	"repro/internal/node"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// DownCost is the cost flooded for a dead link: large enough that no
// finite alternative ever loses to it, finite so SPF arithmetic stays
// well-defined.
const DownCost = 1e9

// MaxHops is the forwarding TTL: a packet that has crossed this many links
// is the victim of a transient routing loop and is dropped (and counted).
const MaxHops = 64

// DefaultQueueLimit is the per-trunk output buffer in packets.
const DefaultQueueLimit = 40

// User packet sizes are exponential with mean MeanPktBits, clamped to
// [MinPktBits, MaxPktBits] (the ARPANET's single-packet message range).
const (
	MeanPktBits = 600.0
	MinPktBits  = 100.0
	MaxPktBits  = 8000.0
)

// clampedMeanPktBits is the true mean of the clamped size distribution:
// E[clamp(X,a,b)] = a + λ(e^{-a/λ} - e^{-b/λ}) for X ~ Exp(λ). The source
// rate must divide by this, not by the nominal λ, or offered bits run ~1.3%
// above the traffic matrix in every experiment.
var clampedMeanPktBits = MinPktBits +
	MeanPktBits*(math.Exp(-MinPktBits/MeanPktBits)-math.Exp(-MaxPktBits/MeanPktBits))

// ClampedMeanPktBits is the realized mean user packet size in bits — the
// conversion factor between a packets-per-second rate and a traffic-matrix
// bps entry, used by callers (the shard differential, the BF-1969 study
// leg) that must offer this engine a matrix matching a pkt/s source model.
func ClampedMeanPktBits() float64 { return clampedMeanPktBits }

// Config describes one simulation run.
type Config struct {
	Graph  *topology.Graph
	Matrix *traffic.Matrix
	Metric node.MetricKind

	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// QueueLimit is the per-link output buffer in user packets
	// (DefaultQueueLimit if zero).
	QueueLimit int
	// Warmup: statistics before this time are discarded.
	Warmup sim.Time
	// ModuleFactory overrides the per-link cost module (nil = build from
	// Metric). Used by the ablation experiments to run modified HNMs.
	ModuleFactory func(l topology.Link) node.CostModule
	// Multipath enables equal-cost multipath forwarding (§4.5): packets
	// spread randomly over every first hop on a minimum-cost path. This is
	// the paper's "future work" remedy for large single flows. It needs an
	// SPF metric: New panics when it is combined with BF1969.
	Multipath bool
	// Trace, when non-nil, receives loss/routing events (bounded ring).
	Trace *trace.Ring

	// Background, when non-nil, turns on the hybrid fluid/packet engine:
	// this matrix is modeled as fluid flows routed over the advertised
	// link costs (re-routed every BackgroundEpoch) and superposed onto
	// each trunk's measured delay and sampled utilization, so the metric
	// modules see the combined load without a background packet ever being
	// scheduled. Foreground traffic (Matrix) stays packet-level. With a
	// nil Background the engine is bit-for-bit the pure packet simulator.
	Background *traffic.Matrix
	// BackgroundEpoch is the fluid re-routing period
	// (node.MeasurementPeriod if zero). Only meaningful with Background.
	BackgroundEpoch sim.Time
}

// Network is a running simulation. Build with New, drive with Run/RunUntil,
// then read Report and the tracked series. Not safe for concurrent use.
type Network struct {
	cfg    Config
	kernel *sim.Kernel
	g      *topology.Graph
	psns   []*psn
	links  []*linkState
	rnd    *sim.Source

	pktSeq uint64
	warmed bool

	// Hybrid engine state (nil without cfg.Background): the fluid layer
	// plus the cost/down views it re-routes over, built once so the epoch
	// callback never allocates a closure.
	fluid  *flowmodel.Fluid
	bgCost spf.CostFunc
	bgDown func(topology.LinkID) bool

	// pool recycles packets; every terminal site of the conservation ledger
	// releases into it, which is exactly why recycling is safe — a packet
	// the ledger still counts as in flight can never reach a Put.
	pool node.PacketPool

	// Bound callbacks for the closure-free kernel API, created once in New
	// so the hot path never allocates a closure per event.
	sourceFireFn sim.Call
	txDoneFn     sim.Call
	propArriveFn sim.Call
	measureFn    sim.Call
	dvExchangeFn sim.Call

	// Cumulative statistics over Counted packets (generated post-warmup).
	offeredPkts   stats.Counter
	offeredBits   float64
	delivered     stats.Counter
	deliveredBits float64
	delay         stats.Welford    // one-way delivery delay, seconds
	delayHist     *stats.Histogram // same, for percentiles
	hops          stats.Welford    // per delivered packet
	loopDrops     stats.Counter
	noRouteDrops  stats.Counter
	bufferDrops   stats.Counter // Counted packets refused by full queues
	outageDrops   stats.Counter // Counted packets destroyed by trunk failures
	updatesOrig   stats.Counter // routing updates originated
	updateTx      stats.Counter // routing update transmissions
	routingBits   float64
	measuredSince sim.Time

	// In-flight propagation accounting: packets that have left a
	// transmitter and are on the wire awaiting the far-end handlePacket.
	propCounted int // Counted user packets propagating
	propRouting int // routing packets propagating
}

type psn struct {
	id             topology.NodeID
	router         *spf.IncrementalRouter // single-path (nil when multipath or BF1969)
	mrouter        *spf.MultipathRouter   // multipath (nil otherwise)
	dv             *dvState               // 1969 distance vector (nil otherwise)
	pathRand       *rand.Rand             // multipath next-hop selection
	dedup          *flooding.Dedup
	seq            flooding.Sequencer
	lastOriginated sim.Time

	// Traffic generation: total packet rate and cumulative destination
	// distribution.
	pktRate     float64 // packets per second
	dstCum      []float64
	dstIDs      []topology.NodeID
	rand        *rand.Rand
	size        *rand.Rand
	sourceArmed bool // a sourceFire chain is scheduled

	fwd []topology.LinkID // scratch for flood forwarding
}

// sampleInterval is the link-utilization sampling period.
const sampleInterval = sim.Second

// linkState is one directed link: its PSN output line plus the engine's
// propagation latency, flooding and utilization bookkeeping.
type linkState struct {
	node.Line
	link topology.Link

	// propLat is the fixed propagation + processing latency, hoisted out
	// of the per-packet path (saves a float conversion).
	propLat sim.Time

	// lastFlooded is the cost most recently flooded for this link by its
	// owning PSN (DownCost while out of service). The convergence auditor
	// compares every PSN's database against it.
	lastFlooded float64

	txBitsWindow float64 // bits since the last utilization sample
	series       *stats.Series
	costSeries   *stats.Series
	util         stats.Welford // sampled utilization (post-warmup)
}

// New builds a network ready to run. It validates the topology, creates
// the per-link metric modules, boots every PSN with the identical initial
// cost database, and schedules traffic sources, measurement periods and
// utilization sampling.
func New(cfg Config) *Network {
	if cfg.Graph == nil || cfg.Matrix == nil {
		panic("network: Config needs Graph and Matrix")
	}
	if err := cfg.Graph.Validate(); err != nil {
		panic(err)
	}
	if cfg.Matrix.NumNodes() != cfg.Graph.NumNodes() {
		panic("network: matrix size does not match graph")
	}
	if cfg.Multipath && cfg.Metric == node.BF1969 {
		panic("network: Multipath requires an SPF metric, not BF1969")
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	n := &Network{
		cfg:    cfg,
		kernel: sim.New(),
		g:      cfg.Graph,
		rnd:    sim.NewSource(cfg.Seed),
		// 10 ms buckets to 10 s cover every plausible one-way delay.
		delayHist: stats.NewHistogram(0, 10, 1000),
	}
	n.sourceFireFn = func(t sim.Time, a any) { n.sourceFire(a.(*psn), t) }
	n.txDoneFn = func(t sim.Time, a any) { n.txDone(a.(*linkState), t) }
	n.propArriveFn = func(t sim.Time, a any) { n.propArrive(a.(*node.Packet), t) }
	n.measureFn = func(t sim.Time, a any) { n.measure(a.(*psn), t) }
	n.dvExchangeFn = func(t sim.Time, a any) { n.dvExchange(a.(*psn), t) }

	// Per-link state and the shared initial cost database.
	initial := make([]float64, n.g.NumLinks())
	n.links = make([]*linkState, n.g.NumLinks())
	for i, l := range n.g.Links() {
		mod := cfg.ModuleFactory
		if mod == nil {
			kind := cfg.Metric
			if kind == node.BF1969 {
				// The 1969 mode routes by distance vector; the per-link
				// module is an unused placeholder.
				kind = node.MinHop
			}
			mod = func(l topology.Link) node.CostModule {
				return node.NewCostModule(kind, l.Type, l.PropDelay)
			}
		}
		ls := &linkState{link: l, propLat: sim.FromSeconds(l.PropDelay) + node.ProcessingDelay}
		ls.Line = node.NewLine(cfg.QueueLimit, mod(l), l.Type.Bandwidth(), n.kernel, n.txDoneFn, ls)
		n.links[i] = ls
		initial[i] = ls.Module.Cost()
		ls.lastFlooded = initial[i]
	}

	// PSNs with routers booted from the identical database.
	n.psns = make([]*psn, n.g.NumNodes())
	for i := range n.psns {
		id := topology.NodeID(i)
		p := &psn{
			id:    id,
			dedup: flooding.NewDedup(n.g.NumNodes()),
			rand:  n.rnd.Stream(fmt.Sprintf("dst/%d", i)),
			size:  n.rnd.Stream(fmt.Sprintf("size/%d", i)),
		}
		switch {
		case cfg.Metric == node.BF1969:
			// distance-vector state is installed by dvSetup below
		case cfg.Multipath:
			p.mrouter = spf.NewMultipathRouter(n.g, id, initial, n.multipathTol())
			p.pathRand = n.rnd.Stream(fmt.Sprintf("path/%d", i))
		default:
			p.router = spf.NewIncrementalRouter(n.g, id, initial)
		}
		n.psns[i] = p
		n.setupSource(p)
	}

	if cfg.Metric == node.BF1969 {
		n.dvSetup()
	} else {
		n.scheduleMeasurement()
	}
	n.setupBackground()
	n.scheduleSampling()
	n.scheduleTraffic()
	if cfg.Warmup > 0 {
		// Fire-and-forget: warmup end is unconditional for the whole run.
		_ = n.kernel.Schedule(cfg.Warmup, func(sim.Time) { n.startMeasuring() })
	} else {
		n.startMeasuring()
	}
	return n
}

func (n *Network) setupSource(p *psn) {
	var total float64
	for d := 0; d < n.g.NumNodes(); d++ {
		r := n.cfg.Matrix.Rate(p.id, topology.NodeID(d))
		if r > 0 {
			total += r
			p.dstIDs = append(p.dstIDs, topology.NodeID(d))
			p.dstCum = append(p.dstCum, total)
		}
	}
	// packets/s at the *realized* mean size — the clamped-distribution mean,
	// so offered bits match the matrix exactly in expectation.
	p.pktRate = total / clampedMeanPktBits
	for i := range p.dstCum {
		p.dstCum[i] /= total
	}
}

// setupBackground builds the hybrid engine's fluid layer: the background
// matrix is routed over the last-flooded costs (what every converged PSN's
// database holds — so the fluid follows exactly the routes the packet
// engine would have used), assigned once at boot and re-assigned every
// epoch. In BF1969 mode nothing floods, so the background stays on the
// boot-time min-hop routes; the hybrid mode is meant for the SPF metrics.
func (n *Network) setupBackground() {
	if n.cfg.Background == nil {
		return
	}
	if n.cfg.Background.NumNodes() != n.g.NumNodes() {
		panic("network: background matrix size does not match graph")
	}
	if n.cfg.BackgroundEpoch == 0 {
		n.cfg.BackgroundEpoch = node.MeasurementPeriod
	}
	n.bgCost = func(l topology.LinkID) float64 { return n.links[l].lastFlooded }
	n.bgDown = func(l topology.LinkID) bool { return n.links[l].Down() }
	n.fluid = flowmodel.NewFluid(n.g, n.cfg.Background)
	n.fluid.Reassign(n.bgCost, n.bgDown)
	// Fire-and-forget: background re-routing runs for the lifetime of the
	// network, like measurement and sampling.
	_ = n.kernel.Every(n.cfg.BackgroundEpoch, func(sim.Time) {
		n.fluid.Reassign(n.bgCost, n.bgDown)
	})
}

// multipathTol derives the near-equality tolerance from the cheapest link
// floor in this network: node.MultipathToleranceFraction of it, which is
// under the loop-freedom bound of half the minimum link cost.
func (n *Network) multipathTol() float64 {
	min := math.Inf(1)
	for _, ls := range n.links {
		if f := ls.Module.Floor(); f < min {
			min = f
		}
	}
	return node.MultipathToleranceFraction * min
}

// nextHop picks the outgoing link toward dst: the single SPF tree hop, or
// a random choice among the equal-cost first hops when multipath is on.
func (p *psn) nextHop(dst topology.NodeID) topology.LinkID {
	if p.dv != nil {
		return p.dv.next[dst]
	}
	if p.mrouter == nil {
		return p.router.Tree().NextHop(dst)
	}
	hops := p.mrouter.NextHops(dst)
	switch len(hops) {
	case 0:
		return topology.NoLink
	case 1:
		return hops[0]
	default:
		return hops[p.pathRand.Intn(len(hops))]
	}
}

// applyCosts installs flooded costs into whichever router the PSN runs.
func (p *psn) applyCosts(links []topology.LinkID, costs []float64) {
	if p.mrouter != nil {
		p.mrouter.UpdateBatch(links, costs)
		return
	}
	p.router.UpdateBatch(links, costs)
}

// recomputes returns the PSN's route-computation count (0 in BF1969 mode,
// where there is no SPF).
func (p *psn) recomputes() int64 {
	switch {
	case p.dv != nil:
		return 0
	case p.mrouter != nil:
		return p.mrouter.Recomputes()
	default:
		return p.router.Recomputes()
	}
}

// Kernel exposes the simulation clock for callers that schedule scenario
// events (link failures, matrix switches).
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Graph returns the topology the network runs over.
func (n *Network) Graph() *topology.Graph { return n.g }

// Run advances the simulation to the given absolute time.
func (n *Network) Run(until sim.Time) { n.kernel.RunUntil(until) }

// TrackLink starts recording a per-sample utilization series for the link;
// call before Run. The series' X axis is seconds.
func (n *Network) TrackLink(l topology.LinkID) *stats.Series {
	ls := n.links[l]
	if ls.series == nil {
		lnk := ls.link
		ls.series = stats.NewSeries(fmt.Sprintf("%s->%s", n.g.Node(lnk.From).Name, n.g.Node(lnk.To).Name))
	}
	return ls.series
}

// LinkCost returns the cost currently advertised by the link's metric
// module.
func (n *Network) LinkCost(l topology.LinkID) float64 { return n.links[l].Module.Cost() }

// TrackLinkCost records the link's advertised cost once per sample
// interval; call before Run.
func (n *Network) TrackLinkCost(l topology.LinkID) *stats.Series {
	ls := n.links[l]
	if ls.costSeries == nil {
		lnk := ls.link
		ls.costSeries = stats.NewSeries(fmt.Sprintf("cost %s->%s",
			n.g.Node(lnk.From).Name, n.g.Node(lnk.To).Name))
	}
	return ls.costSeries
}

// --- traffic generation -------------------------------------------------

func (n *Network) scheduleTraffic() {
	for _, p := range n.psns {
		if p.pktRate <= 0 {
			continue
		}
		n.armSource(p)
	}
}

func (n *Network) armSource(p *psn) {
	p.sourceArmed = true
	// Fire-and-forget: the source chain parks itself via sourceArmed when
	// the matrix zeroes the rate, rather than being cancelled.
	_ = n.kernel.ScheduleCall(n.nextArrival(p), n.sourceFireFn, p)
}

func (n *Network) nextArrival(p *psn) sim.Time {
	return sim.FromSeconds(sim.Exp(p.rand, 1/p.pktRate))
}

func (n *Network) sourceFire(p *psn, now sim.Time) {
	if p.pktRate <= 0 {
		// The matrix switched this source off; the chain parks until
		// SetMatrix re-arms it.
		p.sourceArmed = false
		return
	}
	dst := p.pickDst()
	size := sim.Exp(p.size, MeanPktBits)
	if size < MinPktBits {
		size = MinPktBits
	}
	if size > MaxPktBits {
		size = MaxPktBits
	}
	n.pktSeq++
	pkt := n.pool.Get()
	pkt.Seq, pkt.Src, pkt.Dst = n.pktSeq, p.id, dst
	pkt.SizeBits, pkt.Created = size, now
	pkt.Arrival = topology.NoLink
	pkt.Counted = n.warmed
	if pkt.Counted {
		n.offeredPkts.Inc()
		n.offeredBits += size
	}
	n.handlePacket(p, pkt, now)
	// Fire-and-forget: see armSource.
	_ = n.kernel.ScheduleCall(n.nextArrival(p), n.sourceFireFn, p)
}

func (p *psn) pickDst() topology.NodeID {
	u := p.rand.Float64()
	lo, hi := 0, len(p.dstCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.dstCum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.dstIDs[lo]
}

// --- forwarding ---------------------------------------------------------

// handlePacket processes a packet at a PSN: deliver, drop, or enqueue on
// the next-hop link per the PSN's current SPF tree.
func (n *Network) handlePacket(p *psn, pkt *node.Packet, now sim.Time) {
	if pkt.IsRouting() {
		if pkt.Vector != nil {
			n.dvReceive(p, pkt)
		} else {
			n.handleUpdate(p, pkt, now)
		}
		// Routing consumption: the update's payload lives on (flood copies
		// share it); the carrying packet is done.
		n.pool.Put(pkt)
		return
	}
	if pkt.Dst == p.id {
		if pkt.Counted {
			n.delivered.Inc()
			n.deliveredBits += pkt.SizeBits
			d := (now - pkt.Created).Seconds()
			n.delay.Add(d)
			n.delayHist.Add(d)
			n.hops.Add(float64(pkt.Hops))
		}
		n.pool.Put(pkt)
		return
	}
	if pkt.Hops >= MaxHops {
		if pkt.Counted {
			n.loopDrops.Inc()
		}
		n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.PacketLooped, Node: p.id, Link: topology.NoLink})
		n.pool.Put(pkt)
		return
	}
	nh := p.nextHop(pkt.Dst)
	if nh == topology.NoLink || n.links[nh].Down() {
		if pkt.Counted {
			n.noRouteDrops.Inc()
		}
		n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.PacketNoRoute, Node: p.id, Link: nh})
		n.pool.Put(pkt)
		return
	}
	n.enqueue(n.links[nh], pkt, now)
}

func (n *Network) enqueue(ls *linkState, pkt *node.Packet, now sim.Time) {
	pkt.Enqueued = now
	if !ls.Queue.Push(pkt) {
		if pkt.Counted {
			n.bufferDrops.Inc()
		}
		n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.PacketDropped, Node: ls.link.From, Link: ls.link.ID})
		n.pool.Put(pkt)
		return
	}
	ls.Start(now)
}

// txDone completes one transmission and puts the packet on the wire toward
// the far-end PSN, carrying the link it crossed in Arrival.
func (n *Network) txDone(ls *linkState, now sim.Time) {
	pkt := ls.Finish(now)
	if pkt == nil {
		return // stale completion (see node.Line.Finish)
	}
	ls.txBitsWindow += pkt.SizeBits
	if pkt.IsRouting() {
		if n.warmed {
			n.updateTx.Inc()
			n.routingBits += pkt.SizeBits
		}
		n.propRouting++
	} else if pkt.Counted {
		n.propCounted++
	}
	pkt.Arrival = ls.link.ID
	// Fire-and-forget: a packet on the wire is past cancellation; an outage
	// mid-propagation is handled at arrival, not by cancel.
	_ = n.kernel.ScheduleCall(ls.propLat, n.propArriveFn, pkt)
	ls.Start(now)
}

// propArrive completes one link traversal: the packet reaches the far-end
// PSN after the propagation and processing delays.
func (n *Network) propArrive(pkt *node.Packet, now sim.Time) {
	if pkt.IsRouting() {
		n.propRouting--
	} else if pkt.Counted {
		n.propCounted--
	}
	n.handlePacket(n.psns[n.links[pkt.Arrival].link.To], pkt, now)
}

// dropOutage accounts one packet destroyed by a trunk failure. Routing
// packets are not counted — the flood refresh regenerates them — but user
// packets inside the measurement window enter the outage-drop class so
// conservation stays exact. Either way the packet's life ends here.
func (n *Network) dropOutage(ls *linkState, pkt *node.Packet, now sim.Time) {
	if !pkt.IsRouting() {
		if pkt.Counted {
			n.outageDrops.Inc()
		}
		n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.PacketOutage, Node: ls.link.From, Link: ls.link.ID})
	}
	n.pool.Put(pkt)
}

// --- routing updates ----------------------------------------------------

func (n *Network) handleUpdate(p *psn, pkt *node.Packet, now sim.Time) {
	u := pkt.Update
	if !p.dedup.Accept(u.Origin, u.Seq) {
		return
	}
	p.applyCosts(u.Links, u.Costs)
	p.fwd = flooding.AppendForwardLinks(p.fwd[:0], n.g, p.id, pkt.Arrival)
	for _, l := range p.fwd {
		if n.links[l].Down() {
			continue
		}
		n.pktSeq++
		copyPkt := n.pool.Get()
		copyPkt.Seq, copyPkt.SizeBits = n.pktSeq, u.SizeBits()
		copyPkt.Created, copyPkt.Update, copyPkt.Arrival = pkt.Created, u, l
		n.enqueue(n.links[l], copyPkt, now)
	}
}

// originate floods p's current link costs to the whole network and applies
// them locally. In BF1969 mode there is no flooding: the periodic vector
// exchange carries all routing information.
func (n *Network) originate(p *psn, now sim.Time) {
	if p.dv != nil {
		return
	}
	out := n.g.Out(p.id)
	links := make([]topology.LinkID, 0, len(out))
	costs := make([]float64, 0, len(out))
	for _, l := range out {
		links = append(links, l)
		c := n.links[l].Module.Cost()
		if n.links[l].Down() {
			c = DownCost
		}
		costs = append(costs, c)
		n.links[l].lastFlooded = c
	}
	u := flooding.NewUpdate(p.id, p.seq.Next(), links, costs)
	p.dedup.Accept(u.Origin, u.Seq)
	p.applyCosts(u.Links, u.Costs)
	p.lastOriginated = now
	if n.warmed {
		n.updatesOrig.Inc()
	}
	n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.UpdateOriginate, Node: p.id, Link: topology.NoLink})
	p.fwd = flooding.AppendForwardLinks(p.fwd[:0], n.g, p.id, topology.NoLink)
	for _, l := range p.fwd {
		if n.links[l].Down() {
			continue
		}
		n.pktSeq++
		pkt := n.pool.Get()
		pkt.Seq, pkt.SizeBits = n.pktSeq, u.SizeBits()
		pkt.Created, pkt.Update, pkt.Arrival = now, u, l
		n.enqueue(n.links[l], pkt, now)
	}
}

// --- measurement periods ------------------------------------------------

func (n *Network) scheduleMeasurement() {
	period := node.MeasurementPeriod
	for i, p := range n.psns {
		// Stagger the nodes' periods across the interval: the paper's PSNs
		// measure asynchronously (though they *re-route* almost
		// synchronously, because flooding is fast — that effect emerges
		// from the packet-level flood, not from scheduling).
		offset := sim.Time(int64(period) * int64(i) / int64(len(n.psns)))
		// Fire-and-forget: measurement periods run for the lifetime of the
		// network; down links skip inside measure instead of cancelling.
		_ = n.kernel.ScheduleCall(offset+period, n.measureFn, p)
	}
}

func (n *Network) measure(p *psn, now sim.Time) {
	report := false
	for _, l := range n.g.Out(p.id) {
		ls := n.links[l]
		avg := ls.Meas.Take()
		if ls.Down() {
			continue
		}
		if n.fluid != nil {
			avg = n.superpose(ls, avg)
		}
		if _, rep := ls.Module.Update(avg); rep {
			report = true
		}
	}
	// Reliability refresh: force an update at least every 50 s.
	if report || now-p.lastOriginated >= node.MaxUpdateInterval {
		n.originate(p, now)
	}
	// Fire-and-forget: see scheduleMeasurement.
	_ = n.kernel.ScheduleCall(node.MeasurementPeriod, n.measureFn, p)
}

// superpose folds the link's fluid background load into one measurement
// period's average foreground delay, producing the delay the metric module
// would have measured had the background been real packets. An idle period
// (no foreground packet crossed the trunk) synthesizes the measurement the
// background packets alone would have produced — without it a bg-loaded
// trunk with no foreground traffic would advertise its floor cost and
// attract every foreground flow onto its hidden congestion.
func (n *Network) superpose(ls *linkState, avg float64) float64 {
	bg := n.fluid.LinkBPS(ls.link.ID)
	if bg <= 0 {
		return avg
	}
	bw := ls.link.Type.Bandwidth()
	s := queueing.ServiceTime(bw)
	rho := bg / bw
	if avg <= 0 {
		if rho > queueing.MaxRho {
			rho = queueing.MaxRho
		}
		return queueing.MM1Delay(s, rho) + node.ProcessingDelay.Seconds()
	}
	return queueing.SuperposeDelay(s, avg, rho)
}

// --- utilization sampling -----------------------------------------------

func (n *Network) scheduleSampling() {
	// Fire-and-forget: sampling runs for the lifetime of the network.
	_ = n.kernel.Every(sampleInterval, func(now sim.Time) {
		dt := sampleInterval.Seconds()
		for _, ls := range n.links {
			u := ls.txBitsWindow / (ls.link.Type.Bandwidth() * dt)
			ls.txBitsWindow = 0
			if n.fluid != nil && !ls.Down() {
				// The fluid background occupies capacity the transmitter
				// never sees; a dead trunk's stranded fluid counts nothing
				// until the next epoch re-routes it.
				u += n.fluid.LinkBPS(ls.link.ID) / ls.link.Type.Bandwidth()
			}
			if ls.series != nil {
				ls.series.Add(now.Seconds(), u)
			}
			if ls.costSeries != nil {
				ls.costSeries.Add(now.Seconds(), ls.Module.Cost())
			}
			if n.warmed && !ls.Down() {
				ls.util.Add(u)
			}
		}
	})
}

func (n *Network) startMeasuring() {
	n.warmed = true
	n.measuredSince = n.kernel.Now()
}

// --- link failures ------------------------------------------------------

// SetTrunkDown takes both directions of the trunk containing link l out of
// service and floods the news from both ends. Packets on the transmitters
// and in the output queues are destroyed by the outage and counted as
// outage drops (node.Line.Fail) — they do not vanish from the conservation
// ledger, and no stale completion event survives to double-start a
// transmitter after a repair. A no-op on a trunk that is already down.
func (n *Network) SetTrunkDown(l topology.LinkID) {
	if n.links[l].Down() {
		return
	}
	now := n.kernel.Now()
	n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.LinkDown, Node: n.g.Link(l).From, Link: l})
	for _, id := range []topology.LinkID{l, n.g.Link(l).Reverse()} {
		ls := n.links[id]
		ls.Fail(func(p *node.Packet) { n.dropOutage(ls, p, now) })
	}
	n.originate(n.psns[n.g.Link(l).From], now)
	n.originate(n.psns[n.g.Link(l).To], now)
}

// SetTrunkUp returns the trunk to service. The metric modules Reset, so an
// HN-SPF link comes back at its maximum cost and eases in (§5.4). A no-op
// on a trunk that is already up.
func (n *Network) SetTrunkUp(l topology.LinkID) {
	if !n.links[l].Down() {
		return
	}
	now := n.kernel.Now()
	n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.LinkUp, Node: n.g.Link(l).From, Link: l})
	for _, id := range []topology.LinkID{l, n.g.Link(l).Reverse()} {
		n.links[id].Restore()
	}
	// Flooding the repair enqueues the updates on the restored trunk itself,
	// which restarts its transmitter.
	n.originate(n.psns[n.g.Link(l).From], now)
	n.originate(n.psns[n.g.Link(l).To], now)
}

// LinkIsDown reports whether the link is currently out of service.
func (n *Network) LinkIsDown(l topology.LinkID) bool { return n.links[l].Down() }
