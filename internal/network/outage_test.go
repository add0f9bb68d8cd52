package network

// Failure-path regression tests: the double-transmitter and
// vanished-packet bugs, outage-drop accounting, measurement hygiene across
// a repair, packet conservation, and the offered-load calibration.

import (
	"math"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// stepUntilBusy advances the kernel one event at a time until the link's
// transmitter is mid-packet (or the deadline passes).
func stepUntilBusy(t *testing.T, n *Network, l topology.LinkID, deadline sim.Time) {
	t.Helper()
	for !n.links[l].Busy() {
		if n.kernel.Now() > deadline || !n.kernel.Step() {
			t.Fatalf("link %d never started transmitting before %v", l, deadline)
		}
	}
}

func auditAll(t *testing.T, n *Network, label string) {
	t.Helper()
	if err := n.Conservation().Err(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if err := n.TransmitterAudit(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

func TestFlapMidTransmissionSingleTransmitter(t *testing.T) {
	// The double-transmitter bug: a down→up cycle while a packet is on the
	// transmitter used to leave the stale completion event scheduled; when
	// it fired it started a second concurrent transmitter and the trunk ran
	// at 2× bandwidth forever. At 1.4× offered load a healthy trunk pins
	// utilization at ~1.0; a doubled transmitter pushes samples to ~2.
	g := topology.Line(2, topology.T56)
	m := traffic.NewMatrix(2)
	m.Set(0, 1, 80000) // ~1.4× the trunk: the queue stays backlogged
	n := New(Config{Graph: g, Matrix: m, Metric: node.MinHop, Seed: 21, Warmup: 5 * sim.Second})
	l, _ := g.FindTrunk(0, 1)
	series := n.TrackLink(l)

	// Flap repeatedly, each time with a packet mid-transmission and a deep
	// backlog; every unfixed flap would stack one more concurrent
	// transmitter chain onto the trunk.
	n.Run(20 * sim.Second)
	for i := 0; i < 5; i++ {
		stepUntilBusy(t, n, l, n.kernel.Now()+30*sim.Second)
		n.SetTrunkDown(l)
		n.SetTrunkUp(l)
		n.Run(n.kernel.Now() + 10*sim.Second)
	}
	n.Run(120 * sim.Second)

	// A packet completing just after a sample boundary books all its bits
	// into that window, so individual samples legitimately reach
	// 1 + maxPkt/bandwidth ≈ 1.14; a doubled transmitter sustains ~2.
	var mean float64
	for i := 0; i < series.Len(); i++ {
		mean += series.Y[i] / float64(series.Len())
		if series.Y[i] > 1.3 {
			t.Fatalf("utilization sample %.3f at t=%.0fs exceeds line rate — concurrent transmitters",
				series.Y[i], series.X[i])
		}
	}
	if mean > 1.02 {
		t.Errorf("mean utilization %.3f across the run exceeds line rate — concurrent transmitters", mean)
	}
	auditAll(t, n, "after flap")
}

func TestOutageDropAccounting(t *testing.T) {
	// Packets queued or on the transmitter when a trunk fails must land in
	// the outage-drop class — not vanish — in every failure posture.
	cases := []struct {
		name string
		load float64 // bps on the 56 kbps trunk
	}{
		{"down while queued (overload backlog)", 90000},
		{"down while in flight (light load)", 20000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.Line(2, topology.T56)
			m := traffic.NewMatrix(2)
			m.Set(0, 1, tc.load)
			n := New(Config{Graph: g, Matrix: m, Metric: node.MinHop, Seed: 22})
			l, _ := g.FindTrunk(0, 1)
			n.startMeasuring() // count from t=0
			stepUntilBusy(t, n, l, 60*sim.Second)

			ls := n.links[l]
			inFlight := int64(0)
			if tx := ls.Transmitting(); tx != nil && tx.Counted && !tx.IsRouting() {
				inFlight = 1
			}
			queued := int64(0)
			ls.Queue.Scan(func(p *node.Packet) {
				if p.Counted && !p.IsRouting() {
					queued++
				}
			})
			if inFlight == 0 {
				t.Fatal("setup: no packet on the transmitter")
			}

			n.SetTrunkDown(l)
			if got := n.outageDrops.Value(); got != inFlight+queued {
				t.Errorf("outage drops = %d after failure, want %d (1 in flight + %d queued)",
					got, inFlight+queued, queued)
			}
			if ls.Busy() || ls.Transmitting() != nil || ls.CompletionPending() {
				t.Error("transmitter not fully cancelled by SetTrunkDown")
			}
			if ls.Queue.Len() != 0 {
				t.Errorf("queue holds %d packets after SetTrunkDown, want 0", ls.Queue.Len())
			}
			auditAll(t, n, "after failure")

			// The drops survive into the report and the trace-visible ledger.
			if r := n.Report(); r.OutageDrops != inFlight+queued {
				t.Errorf("Report.OutageDrops = %d, want %d", r.OutageDrops, inFlight+queued)
			}
		})
	}
}

func TestRepairMeasurementNotPolluted(t *testing.T) {
	// Before the fix, packets queued across an outage kept their pre-outage
	// Enqueued timestamps; the first post-repair measurement period then
	// averaged in queueing delays spanning the whole outage and the metric
	// spiked. Now the backlog is flushed at failure and both the failure
	// and the repair clear the delay accumulator.
	g := topology.Ring(3, topology.T56)
	m := traffic.Uniform(g, 30000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 23})
	l, _ := g.FindTrunk(0, 1)
	stepUntilBusy(t, n, l, 60*sim.Second)

	n.SetTrunkDown(l)
	ls := n.links[l]
	if c := ls.Meas.Count(); c != 0 {
		t.Errorf("measurement accumulator holds %d samples across the outage, want 0", c)
	}
	// A minute later the trunk returns; the accumulator must still be
	// empty (nothing can transmit while down) and the module at its reset
	// state, so the first post-repair period measures only fresh traffic.
	n.Run(n.kernel.Now() + 60*sim.Second)
	n.SetTrunkUp(l)
	if c := ls.Meas.Count(); c != 0 {
		t.Errorf("measurement accumulator holds %d stale samples at repair, want 0", c)
	}
	before := ls.Module.Cost()
	n.Run(n.kernel.Now() + node.MeasurementPeriod + sim.Second)
	after := ls.Module.Cost()
	// HN-SPF resets to its ceiling and walks down by at most one movement
	// limit per period; a polluted measurement could not lower it faster,
	// but a stale-backlog transmission burst would show up as cost *above*
	// the ceiling path. The cost must be at or below the reset value.
	if after > before {
		t.Errorf("cost rose from %v to %v in the first post-repair period", before, after)
	}
	auditAll(t, n, "after repair")
}

func TestConservationAcrossFlaps(t *testing.T) {
	// The conservation ledger must balance exactly under repeated trunk
	// flapping, for every routing mode (the 1969 distance-vector baseline
	// included — its exchanges are routing packets outside the ledger).
	metrics := []node.MetricKind{node.HNSPF, node.DSPF, node.MinHop, node.BF1969}
	for _, metric := range metrics {
		t.Run(metric.String(), func(t *testing.T) {
			g := topology.Ring(5, topology.T56)
			m := traffic.Uniform(g, 40000)
			n := New(Config{Graph: g, Matrix: m, Metric: metric, Seed: 24, Warmup: 20 * sim.Second})
			l, _ := g.FindTrunk(0, 1)
			for i := 0; i < 6; i++ {
				at := sim.Time(40+25*i) * sim.Second
				down := i%2 == 0
				n.kernel.Schedule(at-n.kernel.Now(), func(sim.Time) {
					if down {
						n.SetTrunkDown(l)
					} else {
						n.SetTrunkUp(l)
					}
				})
			}
			for _, checkpoint := range []sim.Time{50, 90, 130, 200, 300} {
				n.Run(checkpoint * sim.Second)
				auditAll(t, n, checkpoint.String())
			}
			c := n.Conservation()
			if c.Offered == 0 || c.Delivered == 0 {
				t.Fatalf("degenerate run: %+v", c)
			}
			if c.OutageDrops == 0 {
				t.Error("six flaps under load produced no outage drops — the failure path was not exercised")
			}
		})
	}
}

func TestSetTrunkDownUpIdempotent(t *testing.T) {
	// Scenario scripts (a node restart overlapping a trunk flap) can hit
	// the same trunk twice; the duplicate transition must be a no-op, not a
	// second round of flooding.
	g := topology.Ring(4, topology.T56)
	m := traffic.Uniform(g, 20000)
	ring := trace.NewRing(4096)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 25, Trace: ring})
	l, _ := g.FindTrunk(0, 1)
	n.Run(20 * sim.Second)
	n.SetTrunkDown(l)
	n.SetTrunkDown(l)
	if got := ring.Count(trace.LinkDown); got != 1 {
		t.Errorf("duplicate SetTrunkDown logged %d transitions, want 1", got)
	}
	n.Run(40 * sim.Second)
	n.SetTrunkUp(l)
	n.SetTrunkUp(l)
	if got := ring.Count(trace.LinkUp); got != 1 {
		t.Errorf("duplicate SetTrunkUp logged %d transitions, want 1", got)
	}
	n.Run(80 * sim.Second)
	auditAll(t, n, "after duplicate transitions")
	if n.LinkIsDown(l) {
		t.Error("trunk should be up")
	}
}

func TestOfferedLoadMatchesMatrix(t *testing.T) {
	// The source rate divides by the clamped-distribution mean, so offered
	// bits must match the traffic matrix within sampling noise. (With the
	// old /600 divisor, offered ran a systematic ~1.3% high; at ~30k
	// packets the sampling σ is ~0.6%, so a 2% tolerance separates the two.)
	g := topology.Line(2, topology.T56)
	m := traffic.NewMatrix(2)
	const want = 30000.0 // bps, comfortably under the trunk
	m.Set(0, 1, want)
	n := New(Config{Graph: g, Matrix: m, Metric: node.MinHop, Seed: 26, Warmup: 10 * sim.Second})
	n.Run(610 * sim.Second)
	r := n.Report()
	if err := math.Abs(r.OfferedKbps*1000-want) / want; err > 0.02 {
		t.Errorf("offered %.1f kbps vs matrix %.1f kbps: %.2f%% off", r.OfferedKbps, want/1000, err*100)
	}
	auditAll(t, n, "calibration run")
}

func TestClampedMeanFormula(t *testing.T) {
	// Monte-Carlo check of the closed form E[clamp(X,a,b)].
	r := sim.NewSource(99).Stream("sizes")
	var sum float64
	const nSamples = 2_000_000
	for i := 0; i < nSamples; i++ {
		s := sim.Exp(r, MeanPktBits)
		if s < MinPktBits {
			s = MinPktBits
		}
		if s > MaxPktBits {
			s = MaxPktBits
		}
		sum += s
	}
	got := sum / nSamples
	if math.Abs(got-clampedMeanPktBits)/clampedMeanPktBits > 0.005 {
		t.Errorf("empirical clamped mean %.2f vs formula %.2f", got, clampedMeanPktBits)
	}
}
