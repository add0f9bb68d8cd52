// Package shard runs one discrete-event simulation partitioned across N
// per-shard sim.Kernels with conservative synchronization, producing
// byte-identical output for every shard count.
//
// The graph is split by a deterministic partitioner (see partition.go)
// that prefers to cut long-haul trunks; the minimum propagation delay over
// the cut trunks is the conservative lookahead L. The runner repeats a
// barrier round: deliver pending cross-shard arrivals into the idle target
// kernels, agree on the earliest pending event time tmin across kernels,
// then let every kernel run the window [tmin, tmin+L-1] concurrently. An
// event inside the window can only generate cross-shard arrivals at or
// after tmin+L — strictly beyond the window — so no kernel can ever
// receive an arrival in its past, and each window's event population is
// independent of how the previous windows were cut (see DESIGN.md for the
// proof sketch).
//
// Determinism across shard counts and goroutine schedules is by
// construction, resting on three rules:
//
//  1. every model-scheduled delay except an arrival drain is >= 1 tick, so
//     a node never has two of its own chain events collide at the instant
//     that scheduled them;
//  2. cross-node interaction happens only through arrival buffers: a
//     transmission completion appends the arrival to the target node's
//     time-sorted buffer (or to the cross-shard outbox), and the buffer is
//     consumed by a drain event scheduled with sim.ScheduleTailCallAt, so
//     the drain fires after every normal same-instant event at the node no
//     matter which side of a shard boundary armed it;
//  3. all randomness comes from per-node sim.Source streams, all floating
//     point state is node- or link-local, and merged output is sorted by
//     (time, node, per-node sequence).
//
// Under those rules the event order observed by any single node — and
// therefore its random draws, its float accumulations, and its trace
// records — is a pure function of the model, not of the partition.
package shard

import (
	"fmt"
	"sync"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Fault is one scripted trunk state change.
type Fault struct {
	Trunk int
	At    sim.Time
	Up    bool // false takes the trunk down, true restores it
}

// Config parameterizes a sharded simulation.
type Config struct {
	Graph  *topology.Graph
	Shards int
	Seed   int64

	// Traffic: every node offers PktRate packets/second, each to one of
	// Dests destinations drawn once per node. With DestRadius > 0 the
	// destinations are drawn from the node's <=DestRadius-hop
	// neighbourhood (locality-weighted traffic); otherwise uniformly.
	PktRate    float64
	Dests      int
	DestRadius int

	QueueLimit int             // per-link output buffer (default network.DefaultQueueLimit)
	Metric     node.MetricKind // cost module for the per-link metric readings

	// Adaptive switches routing from the static per-epoch tables to the full
	// adaptive plane (see adaptive.go): each measurement period feeds the
	// cost modules, significant changes flood routing updates over the
	// simulated trunks (crossing shard boundaries on the wires like any
	// other traffic), and every node forwards by its own incremental-SPF
	// tree over the flooded costs.
	Adaptive bool

	// Partition, when non-nil, overrides the deterministic partitioner with
	// an explicit node→shard assignment (len == NumNodes, values in
	// [0, Shards), every shard non-empty). Any assignment must produce
	// identical observables; the custody torture test exercises random cuts
	// through exactly this knob.
	Partition []int

	MeasurePeriod sim.Time // link measurement interval (default node.MeasurementPeriod)
	MeasureSample int      // trace metric readings for nodes with id%sample == 0; 0 disables
	TraceDrops    bool     // record a trace line per dropped packet

	Faults []Fault
}

// Sim is a sharded simulation instance.
type Sim struct {
	cfg       Config
	g         *topology.Graph
	part      []int
	lookahead sim.Time
	hasCross  bool
	routes    *routing
	shards    []*shardState
	nodeAt    []*lnode // by global NodeID
	linkAt    []*llink // by global LinkID
	wires     [][]wire // pending cross-shard arrivals, by target shard

	ballSeen []int32 // scratch for destination-ball BFS
	ballGen  int32
}

// New builds a sharded simulation. The configuration and seed fully
// determine every subsequent observable: trace, report and ledgers are
// identical for any Shards value.
func New(cfg Config) (*Sim, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("shard: nil graph")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Shards > cfg.Graph.NumNodes() {
		return nil, fmt.Errorf("shard: %d shards for %d nodes", cfg.Shards, cfg.Graph.NumNodes())
	}
	if cfg.PktRate <= 0 {
		return nil, fmt.Errorf("shard: PktRate must be positive")
	}
	if cfg.Dests < 1 {
		return nil, fmt.Errorf("shard: Dests must be >= 1")
	}
	if cfg.Metric == node.BF1969 {
		return nil, fmt.Errorf("shard: BF1969 has no cost module; use HNSPF, DSPF or MinHop")
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = network.DefaultQueueLimit
	}
	if cfg.MeasurePeriod == 0 {
		cfg.MeasurePeriod = node.MeasurementPeriod
	}
	if cfg.MeasurePeriod < 1 {
		return nil, fmt.Errorf("shard: MeasurePeriod must be positive")
	}
	g := cfg.Graph
	for _, f := range cfg.Faults {
		if f.Trunk < 0 || f.Trunk >= g.NumTrunks() {
			return nil, fmt.Errorf("shard: fault on unknown trunk %d", f.Trunk)
		}
		if f.At < 1 {
			return nil, fmt.Errorf("shard: fault at %v precedes the run", f.At)
		}
	}
	if cfg.Partition != nil {
		if len(cfg.Partition) != g.NumNodes() {
			return nil, fmt.Errorf("shard: Partition has %d entries for %d nodes",
				len(cfg.Partition), g.NumNodes())
		}
		used := make([]bool, cfg.Shards)
		for id, p := range cfg.Partition {
			if p < 0 || p >= cfg.Shards {
				return nil, fmt.Errorf("shard: Partition[%d] = %d out of range [0,%d)", id, p, cfg.Shards)
			}
			used[p] = true
		}
		for p, u := range used {
			if !u {
				return nil, fmt.Errorf("shard: Partition leaves shard %d empty", p)
			}
		}
	}

	s := &Sim{cfg: cfg, g: g}
	if cfg.Partition != nil {
		s.part = append([]int(nil), cfg.Partition...)
	} else {
		s.part = Partition(g, cfg.Shards)
	}
	s.lookahead, s.hasCross = CutLookahead(g, s.part)
	s.routes = buildRouting(g, cfg.Faults)
	s.nodeAt = make([]*lnode, g.NumNodes())
	s.linkAt = make([]*llink, g.NumLinks())
	s.wires = make([][]wire, cfg.Shards)
	s.ballSeen = make([]int32, g.NumNodes())
	for i := range s.ballSeen {
		s.ballSeen[i] = -1
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shardState{s: s, id: i, kernel: sim.New()}
		sh.bind()
		s.shards = append(s.shards, sh)
	}

	for id := 0; id < g.NumNodes(); id++ {
		s.buildNode(topology.NodeID(id))
	}
	for id := 0; id < g.NumNodes(); id++ {
		s.buildLinks(topology.NodeID(id))
	}
	if cfg.Adaptive {
		s.bootAdaptive() // per-node SPF over the modules' initial costs
	} else {
		s.routes.finalize(g, cfg.Faults)
	}
	// Setup events in one canonical global order (ascending node, then the
	// node's measurement tick, source, and fault events): within a shard,
	// relative sequence numbers of same-instant setup events are then
	// independent of the partition.
	step := cfg.MeasurePeriod / sim.Time(g.NumNodes())
	if step < 1 {
		step = 1
	}
	for id := 0; id < g.NumNodes(); id++ {
		n := s.nodeAt[id]
		sh := n.sh
		mustCallAt(sh.kernel, cfg.MeasurePeriod+sim.Time(id)*step, sh.measureCall, n)
		mustCallAt(sh.kernel, n.nextGap(), sh.sourceCall, n)
		for fi := range cfg.Faults {
			f := &cfg.Faults[fi]
			for _, lid := range []topology.LinkID{topology.LinkID(2 * f.Trunk), topology.LinkID(2*f.Trunk + 1)} {
				ls := s.linkAt[lid]
				if ls.l.From == topology.NodeID(id) {
					mustCallAt(sh.kernel, f.At, sh.faultCall, &faultEv{ls: ls, up: f.Up})
				}
			}
		}
	}
	return s, nil
}

// mustCallAt schedules an event whose timestamp is in the future by
// construction; a past-time error here is a runner bug, not a caller
// mistake, so it panics.
func mustCallAt(k *sim.Kernel, at sim.Time, fn sim.Call, arg any) {
	if _, err := k.ScheduleCallAt(at, fn, arg); err != nil {
		panic(fmt.Sprintf("shard: %v", err))
	}
}

// Shards returns the number of shards.
func (s *Sim) Shards() int { return len(s.shards) }

// Lookahead returns the conservative lookahead (the minimum propagation
// delay over cut trunks), or 0 when no trunk is cut.
func (s *Sim) Lookahead() sim.Time {
	if !s.hasCross {
		return 0
	}
	return s.lookahead
}

// Partition returns the node→shard assignment. The caller must not modify it.
func (s *Sim) PartitionOf() []int { return s.part }

// Fired returns the total number of kernel events executed across shards.
func (s *Sim) Fired() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.kernel.Fired()
	}
	return n
}

// Generated returns the total number of packets offered so far.
func (s *Sim) Generated() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.led.Generated
	}
	return n
}

// Run advances the simulation to the absolute time until. It may be called
// repeatedly with increasing deadlines.
func (s *Sim) Run(until sim.Time) {
	for {
		s.deliverWires()
		tmin, ok := s.nextEventTime()
		if !ok || tmin > until {
			break
		}
		w := until
		if s.hasCross {
			if b := tmin + s.lookahead - 1; b < w {
				w = b
			}
		}
		s.runWindow(w)
		s.collectOutboxes()
	}
	// No pending event at or before until remains; advance every clock.
	s.runWindow(until)
}

// nextEventTime returns the earliest pending event time across shards.
func (s *Sim) nextEventTime() (sim.Time, bool) {
	var tmin sim.Time
	found := false
	for _, sh := range s.shards {
		if t, ok := sh.kernel.NextEventTime(); ok && (!found || t < tmin) {
			tmin, found = t, true
		}
	}
	return tmin, found
}

// runWindow runs every kernel to the window deadline, concurrently when
// there is more than one shard. Kernels share no mutable state — the
// barrier rounds exchange packets only while every kernel is idle — so the
// goroutines race on nothing, and the window results are identical no
// matter how they are scheduled.
func (s *Sim) runWindow(w sim.Time) {
	if len(s.shards) == 1 {
		s.shards[0].kernel.RunUntil(w)
		return
	}
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			sh.kernel.RunUntil(w)
		}(sh)
	}
	wg.Wait()
}

// deliverWires injects the pending cross-shard arrivals into their target
// kernels. Every kernel is idle and every arrival time lies strictly
// beyond every kernel clock (the lookahead guarantee), so the injections
// are ordinary future events.
func (s *Sim) deliverWires() {
	for target := range s.wires {
		ws := s.wires[target]
		sh := s.shards[target]
		for i := range ws {
			sh.importWire(&ws[i])
		}
		s.wires[target] = ws[:0]
	}
}

// collectOutboxes routes every shard's exported packets to their target
// shards' pending-wire lists.
func (s *Sim) collectOutboxes() {
	for _, sh := range s.shards {
		for i := range sh.outbox {
			w := sh.outbox[i]
			t := s.part[s.g.Link(w.link).To]
			s.wires[t] = append(s.wires[t], w)
		}
		sh.outbox = sh.outbox[:0]
	}
}

// pendingWires returns the cross-shard packets not yet injected.
func (s *Sim) pendingWires() int64 {
	var n int64
	for _, ws := range s.wires {
		n += int64(len(ws))
	}
	return n
}

// pendingWireKinds splits the pending cross-shard packets into user traffic
// and routing-update copies, for the per-class custody audits.
func (s *Sim) pendingWireKinds() (user, ctrl int64) {
	for _, ws := range s.wires {
		for i := range ws {
			if ws[i].upd != nil {
				ctrl++
			} else {
				user++
			}
		}
	}
	return user, ctrl
}

// DestsOf returns the destination set the traffic model drew for a node.
// The differential checks use it to offer the identical traffic matrix to
// the unsharded engine. The caller must not modify it.
func (s *Sim) DestsOf(id topology.NodeID) []topology.NodeID { return s.nodeAt[id].dests }

// LinkCost returns the cost currently advertised by the link's metric
// module — the same observable network.LinkCost exposes, for per-trunk
// advertised-cost time-series comparison.
func (s *Sim) LinkCost(l topology.LinkID) float64 { return s.linkAt[l].Module.Cost() }
