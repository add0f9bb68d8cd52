package network

import (
	"math"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func lightRing(metric node.MetricKind, seed int64) *Network {
	g := topology.Ring(6, topology.T56)
	m := traffic.Uniform(g, 60000) // 60 kbps across 30 pairs: light
	return New(Config{Graph: g, Matrix: m, Metric: metric, Seed: seed, Warmup: 30 * sim.Second})
}

func TestLightLoadDelivery(t *testing.T) {
	for _, k := range []node.MetricKind{node.HNSPF, node.DSPF, node.MinHop} {
		n := lightRing(k, 1)
		n.Run(180 * sim.Second)
		r := n.Report()
		if r.DeliveredRatio < 0.99 {
			t.Errorf("%v: delivered ratio %.4f, want >= 0.99 at light load", k, r.DeliveredRatio)
		}
		if r.BufferDrops > 0 {
			t.Errorf("%v: %d buffer drops at light load", k, r.BufferDrops)
		}
		// One-way delay on an idle 56k ring: a few transmission times.
		if r.RoundTripDelayMs < 5 || r.RoundTripDelayMs > 400 {
			t.Errorf("%v: round-trip delay %.1f ms implausible", k, r.RoundTripDelayMs)
		}
		if r.ActualPathHops < 1 || r.ActualPathHops > 3.5 {
			t.Errorf("%v: actual path %.2f hops implausible on a 6-ring", k, r.ActualPathHops)
		}
		if r.InternodeTrafficKbps < 50 || r.InternodeTrafficKbps > 70 {
			t.Errorf("%v: carried %.1f kbps, offered 60", k, r.InternodeTrafficKbps)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := lightRing(node.HNSPF, 7)
	b := lightRing(node.HNSPF, 7)
	a.Run(120 * sim.Second)
	b.Run(120 * sim.Second)
	ra, rb := a.Report(), b.Report()
	if ra != rb {
		t.Errorf("same seed gave different reports:\n%v\nvs\n%v", ra, rb)
	}
	c := lightRing(node.HNSPF, 8)
	c.Run(120 * sim.Second)
	if c.Report() == ra {
		t.Error("different seeds gave byte-identical reports (suspicious)")
	}
}

func TestReportString(t *testing.T) {
	n := lightRing(node.DSPF, 2)
	n.Run(90 * sim.Second)
	s := n.Report().String()
	for _, want := range []string{"D-SPF", "Internode Traffic", "Path Ratio"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestRoutingOverheadCounted(t *testing.T) {
	n := lightRing(node.DSPF, 3)
	n.Run(300 * sim.Second)
	r := n.Report()
	if r.UpdatesOriginated == 0 {
		t.Fatal("no routing updates originated in 300 s")
	}
	// §2.2: each PSN must update at least every 50 s (the mean over the
	// window can exceed 50 slightly from edge effects at the boundaries).
	if r.UpdatePeriodPerNode > 56 {
		t.Errorf("update period per node = %.1f s, want <= ~50", r.UpdatePeriodPerNode)
	}
	if r.UpdatesPerTrunkSec <= 0 {
		t.Error("updates per trunk/sec should be positive")
	}
	if r.RoutingKbps <= 0 {
		t.Error("routing overhead bandwidth should be positive")
	}
	if r.SPFRecomputes == 0 {
		t.Error("SPF recomputations should be counted")
	}
}

func TestConfigPanics(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	for name, cfg := range map[string]Config{
		"nil graph":       {Matrix: traffic.NewMatrix(4)},
		"nil matrix":      {Graph: g},
		"matrix mismatch": {Graph: g, Matrix: traffic.NewMatrix(7)},
		// Multipath forwards over SPF DAGs; BF1969 routes by distance vector
		// and has none, so the pair must not silently run plain BF1969.
		"multipath with BF1969": {Graph: g, Matrix: traffic.NewMatrix(4), Metric: node.BF1969, Multipath: true},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			New(cfg)
		})
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	// 4-ring: fail one trunk; everything must still be delivered via the
	// long way after convergence.
	g := topology.Ring(4, topology.T56)
	m := traffic.Uniform(g, 40000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 4, Warmup: 60 * sim.Second})
	l, _ := g.FindTrunk(0, 1)
	n.Kernel().Schedule(30*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	n.Run(240 * sim.Second)
	r := n.Report()
	if r.DeliveredRatio < 0.99 {
		t.Errorf("delivered ratio %.4f after failure, want >= 0.99", r.DeliveredRatio)
	}
	if r.NoRouteDrops > 0 {
		t.Errorf("%d no-route drops after convergence window", r.NoRouteDrops)
	}
	// The failed link must be advertised at DownCost.
	if c := n.LinkCost(l); c == DownCost {
		t.Log("module cost unchanged (down is flooded, not stored in module) — expected")
	}
}

func TestLinkRecoveryEasesIn(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	m := traffic.Uniform(g, 40000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 5})
	l, _ := g.FindTrunk(0, 1)
	n.Kernel().Schedule(20*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	// Bring the link up just after a measurement-tick boundary so we can
	// observe the advertised cost before the next tick starts easing it in.
	n.Kernel().Schedule(60*sim.Second+sim.Millisecond, func(sim.Time) { n.SetTrunkUp(l) })
	n.Run(60*sim.Second + 2*sim.Millisecond)
	// Just after coming up, an HN-SPF link advertises its maximum cost.
	if c := n.LinkCost(l); c != 90 {
		t.Errorf("cost just after link-up = %v, want 90 (ease-in)", c)
	}
	n.Run(240 * sim.Second)
	// After easing in under light load it returns to its floor.
	if c := n.LinkCost(l); c > 35 {
		t.Errorf("cost after ease-in = %v, want near the floor", c)
	}
}

// oscillationRun drives the Figure 1 scenario and returns the two
// inter-region trunk utilization series (10-sample smoothed).
func oscillationRun(t *testing.T, kind node.MetricKind) (a, b *stats.Series, rep Report) {
	t.Helper()
	// Five nodes per region: 25 cross pairs, each ~4%% of a trunk, giving
	// the metric the "several small node-to-node flows" it load-shares
	// with (§4.5).
	g, la, lb := topology.TwoRegion(5, topology.T56)
	west := func(n topology.NodeID) bool { return strings.HasPrefix(g.Node(n).Name, "W") }
	// Inter-region offered load ≈ 85% of ONE trunk in each direction:
	// enough that a single trunk saturates, comfortable for two.
	m := traffic.Hotspot(g, west, 120000, 0.80)
	n := New(Config{Graph: g, Matrix: m, Metric: kind, Seed: 11, Warmup: 100 * sim.Second})
	sa := n.TrackLink(la)
	sb := n.TrackLink(lb)
	n.Run(700 * sim.Second)
	return smooth(sa, 10), smooth(sb, 10), n.Report()
}

// smooth returns a series of k-sample means.
func smooth(s *stats.Series, k int) *stats.Series {
	out := stats.NewSeries(s.Name)
	for i := 0; i+k <= s.Len(); i += k {
		sum := 0.0
		for j := i; j < i+k; j++ {
			sum += s.Y[j]
		}
		out.Add(s.X[i+k-1], sum/float64(k))
	}
	return out
}

// swing measures oscillation: the standard deviation of the utilization
// difference uA−uB over time. A flip-flopping pair (Figure 1's "links A
// and B alternating") swings between ±high; a stable split — even an
// uneven one — has a small swing.
func swing(a, b *stats.Series) float64 {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	var w stats.Welford
	for i := 0; i < n; i++ {
		w.Add(a.Y[i] - b.Y[i])
	}
	return w.StdDev()
}

func TestFigure1OscillationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	da, db, drep := oscillationRun(t, node.DSPF)
	ha, hb, hrep := oscillationRun(t, node.HNSPF)

	dSwing, hSwing := swing(da, db), swing(ha, hb)
	t.Logf("D-SPF: swing=%.3f crossings=%d+%d drops=%d delay=%.0fms",
		dSwing, da.Crossings(0.42), db.Crossings(0.42), drep.BufferDrops, drep.RoundTripDelayMs)
	t.Logf("HN-SPF: swing=%.3f crossings=%d+%d drops=%d delay=%.0fms",
		hSwing, ha.Crossings(0.42), hb.Crossings(0.42), hrep.BufferDrops, hrep.RoundTripDelayMs)

	// The paper's Figure 1 story: D-SPF alternates the trunks ("instead of
	// cooperating"), HN-SPF shares the load without the alternation.
	if dSwing < 1.5*hSwing {
		t.Errorf("D-SPF oscillation swing (%.3f) should far exceed HN-SPF's (%.3f)", dSwing, hSwing)
	}
	// Under HN-SPF both trunks stay in use.
	aMin, _ := ha.MinMaxY()
	bMin, _ := hb.MinMaxY()
	if aMin+bMin < 0.1 {
		t.Errorf("HN-SPF should keep both trunks loaded (mins %.3f, %.3f)", aMin, bMin)
	}
	// HN-SPF delivers at least as well.
	if hrep.DeliveredRatio < drep.DeliveredRatio-0.01 {
		t.Errorf("HN-SPF delivered %.4f < D-SPF %.4f", hrep.DeliveredRatio, drep.DeliveredRatio)
	}
}

func TestTTLGuardsAgainstLoops(t *testing.T) {
	// MaxHops is the only protection against transient loops; make sure a
	// packet that exceeds it is dropped, not forwarded forever. We force
	// the situation artificially by running a network and checking no
	// packet ever reports > MaxHops.
	n := lightRing(node.DSPF, 12)
	n.Run(120 * sim.Second)
	if h := n.hops.Max(); h > MaxHops {
		t.Errorf("a packet crossed %v links, TTL is %d", h, MaxHops)
	}
}

func TestOfferedMatchesMatrix(t *testing.T) {
	g := topology.Ring(5, topology.T56)
	m := traffic.Uniform(g, 50000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.MinHop, Seed: 6, Warmup: 50 * sim.Second})
	n.Run(600 * sim.Second)
	r := n.Report()
	if math.Abs(r.OfferedKbps-50) > 3 {
		t.Errorf("offered %.2f kbps, want ~50", r.OfferedKbps)
	}
}

// Property-style invariant: every offered packet is accounted for —
// delivered, dropped (buffer / no-route / loop), or still in flight.
func TestPacketConservation(t *testing.T) {
	n := lightRing(node.DSPF, 20)
	n.Run(300 * sim.Second)
	r := n.Report()
	accounted := r.DeliveredPackets + r.BufferDrops + r.NoRouteDrops + r.LoopDrops
	inFlight := r.OfferedPackets - accounted
	// In-flight at the snapshot can be slightly negative too: packets
	// offered before warmup may be delivered after it. Either way the gap
	// must be tiny relative to the total.
	if inFlight < -20 || inFlight > 20 {
		t.Errorf("conservation gap %d of %d offered packets", inFlight, r.OfferedPackets)
	}
	if r.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestDelayPercentiles(t *testing.T) {
	n := lightRing(node.HNSPF, 21)
	n.Run(200 * sim.Second)
	r := n.Report()
	if r.DelayMsP95 < r.RoundTripDelayMs {
		t.Errorf("P95 (%.1f ms) below the mean (%.1f ms)", r.DelayMsP95, r.RoundTripDelayMs)
	}
	if r.DelayMsP95 > 20*r.RoundTripDelayMs {
		t.Errorf("P95 (%.1f ms) implausibly above the mean (%.1f ms)", r.DelayMsP95, r.RoundTripDelayMs)
	}
}
