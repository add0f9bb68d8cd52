package arpanet

import (
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Report is the set of network-wide performance indicators a simulation
// produces — the rows of the paper's Table 1 plus congestion, loss and
// overhead counters. See internal/network.Report for field documentation;
// its String method renders the Table 1 layout.
type Report = network.Report

// Series is an (x, y) data series, e.g. trunk utilization over time.
type Series = stats.Series

// SimConfig configures a Simulation.
type SimConfig struct {
	// Metric is the link metric to run with (default HNSPF).
	Metric Metric
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// WarmupSeconds discards statistics collected before this time.
	WarmupSeconds float64
	// QueueLimit is the per-trunk output buffer in packets (default 40).
	QueueLimit int
	// Ablations disable individual HNM stabilization mechanisms (only
	// meaningful with Metric == HNSPF); see the HNM* options.
	Ablations []HNMOption
	// Multipath enables equal-cost multipath forwarding — the §4.5
	// extension that load-shares *within* a single large flow, which the
	// metric alone cannot do. It needs an SPF metric: NewSimulation panics
	// when it is combined with BF1969.
	Multipath bool
	// TraceCapacity, when positive, enables the event log returned by
	// Simulation.Trace, retaining up to this many events.
	TraceCapacity int
	// Background, when non-nil, enables the hybrid fluid/packet engine:
	// this demand is not simulated packet by packet but carried as fluid
	// flows, re-routed over the flooded costs once per epoch and superposed
	// onto each trunk's measured utilization and delay — so the metric,
	// flooding and rerouting see the combined load at a fraction of the
	// event cost. It must have been built from the same Topology.
	Background *Traffic
	// BackgroundEpochSeconds is the fluid re-routing epoch (default 10 s,
	// one measurement period). Only meaningful with Background set.
	BackgroundEpochSeconds float64
}

// Simulation is a packet-level run of a network under one routing metric:
// Poisson traffic from the matrix, FIFO trunk queues with finite buffers,
// 10-second delay measurement driving the metric, and routing updates
// flooded as real high-priority packets.
//
// Not safe for concurrent use; run separate Simulations on separate
// goroutines instead (they share nothing).
type Simulation struct {
	topo *Topology
	n    *network.Network
	tr   *trace.Ring
}

// NewSimulation builds a simulation over the topology and traffic matrix.
// The Traffic must have been built from the same Topology.
func NewSimulation(t *Topology, tr *Traffic, cfg SimConfig) *Simulation {
	if tr.t != t {
		panic("arpanet: Traffic was built for a different Topology")
	}
	nc := network.Config{
		Graph:      t.g,
		Matrix:     tr.m,
		Metric:     cfg.Metric.kind(),
		Seed:       cfg.Seed,
		QueueLimit: cfg.QueueLimit,
		Warmup:     sim.FromSeconds(cfg.WarmupSeconds),
		Multipath:  cfg.Multipath,
	}
	if cfg.Background != nil {
		if cfg.Background.t != t {
			panic("arpanet: Background Traffic was built for a different Topology")
		}
		nc.Background = cfg.Background.m
		nc.BackgroundEpoch = sim.FromSeconds(cfg.BackgroundEpochSeconds)
	}
	var ring *trace.Ring
	if cfg.TraceCapacity > 0 {
		ring = trace.NewRing(cfg.TraceCapacity)
		nc.Trace = ring
	}
	if len(cfg.Ablations) > 0 {
		if cfg.Metric != HNSPF {
			panic("arpanet: Ablations require Metric == HNSPF")
		}
		opts := cfg.Ablations
		nc.ModuleFactory = func(l topology.Link) node.CostModule {
			return core.NewModuleOptions(core.DefaultParams(l.Type), l.Type.Bandwidth(), l.PropDelay, opts...)
		}
	}
	return &Simulation{topo: t, n: network.New(nc), tr: ring}
}

// RunSeconds advances the simulation to the given absolute time in
// simulated seconds (it does not add to previous calls; RunSeconds(60)
// then RunSeconds(120) runs to t=120).
func (s *Simulation) RunSeconds(t float64) { s.n.Run(sim.FromSeconds(t)) }

// Report computes the performance indicators over the post-warmup window.
func (s *Simulation) Report() Report { return s.n.Report() }

// TrackTrunk records the utilization of the a→b direction of the trunk
// joining two named PSNs, sampled once per simulated second. Call before
// RunSeconds; the series fills as the simulation runs.
func (s *Simulation) TrackTrunk(a, b string) *Series {
	return s.n.TrackLink(s.trunk(a, b))
}

// TrackTrunkCost records the advertised cost of the a→b direction once
// per simulated second. Call before RunSeconds.
func (s *Simulation) TrackTrunkCost(a, b string) *Series {
	return s.n.TrackLinkCost(s.trunk(a, b))
}

// TrunkCost returns the cost currently advertised for the a→b direction.
func (s *Simulation) TrunkCost(a, b string) float64 {
	return s.n.LinkCost(s.trunk(a, b))
}

// FailTrunkAt schedules the trunk between two named PSNs to fail at the
// given simulated time (both directions).
func (s *Simulation) FailTrunkAt(seconds float64, a, b string) {
	l := s.trunk(a, b)
	// Fire-and-forget: the public API exposes no way to unschedule a fault.
	_ = s.n.Kernel().Schedule(sim.FromSeconds(seconds)-s.n.Kernel().Now(), func(sim.Time) {
		s.n.SetTrunkDown(l)
	})
}

// RestoreTrunkAt schedules the trunk to return to service; under HN-SPF it
// comes back at maximum cost and eases in (§5.4).
func (s *Simulation) RestoreTrunkAt(seconds float64, a, b string) {
	l := s.trunk(a, b)
	// Fire-and-forget: see FailTrunkAt.
	_ = s.n.Kernel().Schedule(sim.FromSeconds(seconds)-s.n.Kernel().Now(), func(sim.Time) {
		s.n.SetTrunkUp(l)
	})
}

// BufferDrops returns the user packets dropped to full buffers since
// warmup — the Figure 13 congestion signal.
func (s *Simulation) BufferDrops() int64 { return s.n.BufferDrops() }

func (s *Simulation) trunk(a, b string) topology.LinkID {
	g := s.topo.g
	l, ok := g.FindTrunk(g.MustLookup(a), g.MustLookup(b))
	if !ok {
		panic("arpanet: no trunk between " + a + " and " + b)
	}
	return l
}
