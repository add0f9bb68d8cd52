package main

// table1-arpanet: the paper's before/after study as cmd/arpanetsim runs it
// by default — the ARPANET-1987 map (30 nodes, 44 trunks) under the
// gravity matrix, D-SPF at 280 kb/s, then HN-SPF at +13%, each leg 100 s
// of warm-up and 600 s measured. One operation is 50 s of simulated time
// (five measurement periods, long enough to average out the scheduler's
// jitter); set-up is network.New.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

const (
	table1BeforeBPS = 280_000
	table1Growth    = 413.99 / 366.26 // the paper's May→August traffic growth
	table1Warmup    = 100 * sim.Second
	table1End       = table1Warmup + 600*sim.Second
	table1Slice     = 5 * node.MeasurementPeriod
	table1SliceOps  = int(table1End / table1Slice) // operations per leg
	// table1RingCap holds every trace event of a leg (drops included) with
	// a wide margin; an overflow is reported as a failed check.
	table1RingCap = 1 << 18
)

// table1Leg is one column of Table 1.
type table1Leg struct {
	metric node.MetricKind
	matrix *traffic.Matrix
}

func table1Inputs() (*topology.Graph, []table1Leg) {
	g := topology.Arpanet()
	w := topology.ArpanetWeights()
	return g, []table1Leg{
		{node.DSPF, traffic.Gravity(g, w, table1BeforeBPS)},
		{node.HNSPF, traffic.Gravity(g, w, table1BeforeBPS*table1Growth)},
	}
}

func (leg table1Leg) config(g *topology.Graph, seed int64) network.Config {
	return network.Config{Graph: g, Matrix: leg.matrix, Metric: leg.metric, Seed: seed, Warmup: table1Warmup}
}

// legResult is what one leg's run measured.
type legResult struct {
	setup       float64 // seconds in network.New
	durs        []float64
	report      network.Report // at the end of the leg
	events      int64          // kernel events over the whole leg
	measEvents  int64          // kernel events in the slices after warm-up
	measOffered int64          // packets offered in those slices
	measDurs    []float64      // wall times of those slices
}

// runLeg builds one leg's network and runs its slices as operations, then
// probes the heap (when hp is non-nil) with the network still alive. Each
// operation's check is the conservation identity and the transmitter
// audit; the last one also requires delivered packets and, when want is
// non-nil, a report identical to want's (the same seed must give the same
// run).
func runLeg(nc network.Config, o *ops, hp *heapPeak, plant *bool,
	want *legResult, onNew func(*network.Network)) legResult {
	var r legResult
	t0 := time.Now()
	n := network.New(nc)
	r.setup = time.Since(t0).Seconds()
	if onNew != nil {
		onNew(n)
	}
	k := n.Kernel()
	var offered int64
	defer func() {
		if hp != nil {
			hp.probe()
		}
		runtime.KeepAlive(n)
	}()
	for until := table1Slice; until <= table1End; until += table1Slice {
		ev0 := k.Fired()
		t := time.Now()
		n.Run(until)
		d := time.Since(t)
		c := n.Conservation()
		if until > table1Warmup {
			r.measDurs = append(r.measDurs, d.Seconds())
			r.measEvents += int64(k.Fired() - ev0)
			r.measOffered += c.Offered - offered
		}
		offered = c.Offered
		if *plant {
			c.Offered++
			*plant = false
		}
		err := c.Err()
		if err == nil {
			err = n.TransmitterAudit()
		}
		if until == table1End {
			r.report = n.Report()
			r.events = int64(k.Fired())
			if err == nil && r.report.DeliveredPackets == 0 {
				err = errors.New("no packet delivered")
			}
			if err == nil && want != nil && (r.report != want.report || r.events != want.events) {
				err = fmt.Errorf("%v leg differs from the first run with the same seed", nc.Metric)
			}
		}
		r.durs = append(r.durs, d.Seconds())
		o.done(d, err)
	}
	return r
}

// updateTx recovers the exact routing-update transmission count from the
// report's per-trunk rate.
func updateTx(r network.Report, g *topology.Graph) int64 {
	return int64(math.Round(r.UpdatesPerTrunkSec * float64(g.NumTrunks()) * r.Duration))
}

func (r legResult) fingerprint(fp *fingerprint, g *topology.Graph) {
	p := r.report
	fp.count(p.Metric+".events", r.events)
	fp.count("offered", p.OfferedPackets)
	fp.count("delivered", p.DeliveredPackets)
	fp.count("buffer", p.BufferDrops)
	fp.count("loop", p.LoopDrops)
	fp.count("noroute", p.NoRouteDrops)
	fp.count("originated", p.UpdatesOriginated)
	fp.count("update_tx", updateTx(p, g))
	fp.count("spf", p.SPFRecomputes)
	fp.float(p.RoundTripDelayMs, p.ActualPathHops, p.MeanLinkUtilization, p.MaxLinkUtilization, p.DelayMsP95)
}

// studyRunner runs whole before/after studies, keeping the first
// run of each leg as the reference later runs must reproduce.
type studyRunner struct {
	g     *topology.Graph
	legs  []table1Leg
	seed  int64
	hp    *heapPeak
	plant bool
	first []*legResult
}

func newStudyRunner(cfg config) *studyRunner {
	g, legs := table1Inputs()
	return &studyRunner{g: g, legs: legs, seed: cfg.seed, hp: newHeapPeak(), plant: cfg.plant,
		first: make([]*legResult, len(legs))}
}

// study runs both legs in order; prepare, when non-nil, adjusts each leg's
// configuration and returns the hook to call once its network exists.
func (sr *studyRunner) study(o *ops,
	prepare func(i int, nc *network.Config) func(*network.Network)) []legResult {
	var out []legResult
	for i, leg := range sr.legs {
		nc := leg.config(sr.g, sr.seed)
		var onNew func(*network.Network)
		if prepare != nil {
			onNew = prepare(i, &nc)
		}
		r := runLeg(nc, o, sr.hp, &sr.plant, sr.first[i], onNew)
		if sr.first[i] == nil {
			sr.first[i] = &r
		}
		out = append(out, r)
	}
	return out
}

func (sr *studyRunner) fingerprint() *fingerprint {
	fp := newFingerprint()
	for _, r := range sr.first {
		r.fingerprint(fp, sr.g)
	}
	return fp
}

func timeTable1(cfg config) outcome {
	sr := newStudyRunner(cfg)
	var o ops
	var setups []float64
	var offered int64
	var measDurs []float64
	start := time.Now()
	for !timingDone(&o, start, cfg.seconds) {
		for _, r := range sr.study(&o, nil) {
			setups = append(setups, r.setup)
			offered += r.measOffered
			measDurs = append(measDurs, r.measDurs...)
		}
	}
	return outcome{
		ops: o,
		values: map[string]float64{
			"setup_s":      median(setups),
			"pkts_per_s":   pktsPerSec(offered, measDurs),
			"op_p50_s":     median(o.durs),
			"op_p90_s":     quantile(o.durs, 0.9),
			"peak_heap_mb": sr.hp.mb(),
		},
		fp: sr.fingerprint(),
	}
}

// costCall is one cost-module Update as the capturing decorator saw it.
type costCall struct {
	at     sim.Time
	link   topology.LinkID
	delay  float64
	cost   float64
	report bool
}

// costCapture is the ModuleFactory decorator's shared state: every link's
// boot cost and every Update call, stamped with the kernel's clock.
type costCapture struct {
	kind    node.MetricKind
	kernel  *sim.Kernel
	initial []float64
	calls   []costCall
}

type capturedModule struct {
	node.CostModule
	link topology.LinkID
	c    *costCapture
}

func (m *capturedModule) Update(delay float64) (float64, bool) {
	cost, rep := m.CostModule.Update(delay)
	m.c.calls = append(m.c.calls, costCall{m.c.kernel.Now(), m.link, delay, cost, rep})
	return cost, rep
}

func newCostCapture(g *topology.Graph, kind node.MetricKind) *costCapture {
	return &costCapture{kind: kind, initial: make([]float64, g.NumLinks())}
}

func (c *costCapture) factory(l topology.Link) node.CostModule {
	mod := node.NewCostModule(c.kind, l.Type, l.PropDelay)
	c.initial[l.ID] = mod.Cost()
	return &capturedModule{CostModule: mod, link: l.ID, c: c}
}

// updates rebuilds the flooded-update stream: each UpdateOriginate record
// carries the origin's out-link costs as its modules last reported them.
func (c *costCapture) updates(g *topology.Graph, ring *trace.Ring) ([]update, error) {
	evs := ring.OfKind(trace.UpdateOriginate)
	if n := ring.Count(trace.UpdateOriginate); n != int64(len(evs)) {
		return nil, fmt.Errorf("trace ring kept %d of %d originations", len(evs), n)
	}
	cur := append([]float64(nil), c.initial...)
	seq := make([]uint64, g.NumNodes())
	ups := make([]update, 0, len(evs))
	j := 0
	for _, e := range evs {
		for ; j < len(c.calls) && c.calls[j].at <= e.At; j++ {
			cur[c.calls[j].link] = c.calls[j].cost
		}
		links := g.Out(e.Node)
		costs := make([]float64, len(links))
		for i, l := range links {
			costs[i] = cur[l]
		}
		seq[e.Node]++
		ups = append(ups, update{origin: e.Node, seq: seq[e.Node], links: links, costs: costs, timed: true})
	}
	return ups, nil
}

// periods counts node measurement periods: runs of calls sharing an
// instant and an origin node.
func (c *costCapture) periods(g *topology.Graph) int64 {
	var n int64
	for i, call := range c.calls {
		if i == 0 || call.at != c.calls[i-1].at || g.Link(call.link).From != g.Link(c.calls[i-1].link).From {
			n++
		}
	}
	return n
}

// replayModules feeds the captured measurements through fresh modules of
// the same kind, timing the Update calls in bulk (a per-call timer costs
// as much as the call), and checks that they reproduce every captured
// output.
func replayModules(g *topology.Graph, kind node.MetricKind, calls []costCall) (float64, error) {
	mods := make([]node.CostModule, g.NumLinks())
	for _, l := range g.Links() {
		mods[l.ID] = node.NewCostModule(kind, l.Type, l.PropDelay)
	}
	costs := make([]float64, len(calls))
	reps := make([]bool, len(calls))
	t0 := time.Now()
	for i := range calls {
		costs[i], reps[i] = mods[calls[i].link].Update(calls[i].delay)
	}
	sec := time.Since(t0).Seconds()
	for i, c := range calls {
		if costs[i] != c.cost || reps[i] != c.report {
			return sec, fmt.Errorf("cost module replay diverged at call %d on link %d", i, c.link)
		}
	}
	return sec, nil
}

// traceTable1 alternates untraced and traced studies until the budget is
// spent (at least one of each), then replays the first traced study's
// update stream through the flooding and SPF layers.
func traceTable1(cfg config) outcome {
	sr := newStudyRunner(cfg)
	sr.hp = nil // peak heap is an end-to-end metric
	g := sr.g
	var o, traced ops
	var untracedDurs, tracedDurs []float64
	var events, measEvents, measOffered int64
	var wall, cpu float64
	var rt runtimeSample
	var captures []*costCapture
	var rings []*trace.Ring
	start := time.Now()
	for len(tracedDurs) == 0 || !deadline(start, cfg.seconds) {
		t0, c0, rt0 := time.Now(), cpuSeconds(), readRuntime()
		for _, r := range sr.study(&o, nil) {
			untracedDurs = append(untracedDurs, r.durs...)
			events += r.events
			measEvents += r.measEvents
			measOffered += r.measOffered
		}
		wall += time.Since(t0).Seconds()
		cpu += cpuSeconds() - c0
		rt = rt.add(readRuntime().sub(rt0))

		keep := captures == nil
		for _, r := range sr.study(&traced, func(i int, nc *network.Config) func(*network.Network) {
			c := newCostCapture(g, nc.Metric)
			ring := trace.NewRing(table1RingCap)
			nc.ModuleFactory, nc.Trace = c.factory, ring
			if keep {
				captures, rings = append(captures, c), append(rings, ring)
			}
			return func(n *network.Network) { c.kernel = n.Kernel() }
		}) {
			tracedDurs = append(tracedDurs, r.durs...)
		}
	}
	o.absorb(traced)

	v := zeroLayers()
	fp := sr.fingerprint()
	var st replayStats
	var costCalls, periods int64
	var costSec float64
	for i, c := range captures {
		ups, err := c.updates(g, rings[i])
		if err == nil {
			st = st.add(replayUpdates(g, c.initial, ups))
			var sec float64
			sec, err = replayModules(g, c.kind, c.calls)
			costSec += sec
		}
		o.done(0, err)
		costCalls += int64(len(c.calls))
		periods += c.periods(g)
	}
	st.fingerprint(fp)
	fp.count("costmod.updates", costCalls)

	var rep network.Report
	var updTx, studyEvents int64
	for _, r := range sr.first {
		rep.OfferedPackets += r.report.OfferedPackets
		rep.DeliveredPackets += r.report.DeliveredPackets
		rep.BufferDrops += r.report.BufferDrops
		rep.SPFRecomputes += r.report.SPFRecomputes
		updTx += updateTx(r.report, g)
		studyEvents += r.events
	}
	studyOps := float64(len(sr.legs) * table1SliceOps)
	v["sim.events_per_op"] = ratio(float64(studyEvents), studyOps)
	v["sim.events_per_pkt"] = ratio(float64(measEvents), float64(measOffered))
	v["sim.ns_per_event"] = ratio(sum(untracedDurs)*1e9, float64(events))
	v["network.offered"] = float64(rep.OfferedPackets)
	v["network.delivered_ratio"] = ratio(float64(rep.DeliveredPackets), float64(rep.OfferedPackets))
	v["network.buffer_drops"] = float64(rep.BufferDrops)
	v["network.update_tx"] = float64(updTx)
	v["network.spf_recomputes"] = float64(rep.SPFRecomputes)
	v["costmod.updates"] = float64(costCalls)
	v["costmod.report_ratio"] = ratio(float64(st.originated), float64(periods))
	v["costmod.ns_per_update"] = ratio(costSec*1e9, float64(costCalls))
	st.layerValues(v)
	v["spf.compute_ns"] = computeNs(g)
	v["shard.cpu_per_wall"] = ratio(cpu, wall)
	v["runtime.gc_cpu_frac"] = rt.gcFrac()
	v["runtime.allocs_per_event"] = ratio(float64(rt.allocObjects), float64(events))
	v["runtime.alloc_mb_per_op"] = ratio(float64(rt.allocBytes)/(1<<20), float64(len(untracedDurs)))
	v["trace.overhead_frac"] = ratio(median(tracedDurs), median(untracedDurs)) - 1
	return outcome{ops: o, values: v, fp: fp}
}
