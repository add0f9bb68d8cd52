package main

// hier1k-hnspf: the 1024-node study leg of EXPERIMENTS.md — the sharded
// runner in adaptive mode on topology.Hierarchical(32, 32, seed), HN-SPF,
// 2 pkt/s per node (heavy load), 3 uniform destinations per node, 2
// shards. One operation is a half-second simulated slice between the
// end of the first measurement wave (20 s) and 50 s; set-up is shard.New.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
)

const (
	hierRegions   = 32
	hierPerRegion = 32
	hierPktRate   = 2.0
	hierDests     = 3
	hierShards    = 2
	// hierWarm ends the first measurement wave: every node has measured
	// once (at 10 s plus its stagger) and the ease-in floods have started.
	hierWarm = 20 * sim.Second
	// hierEnd closes the timed window. Until about 50 s every node floods
	// at every measurement period as HN-SPF eases its links in from the
	// maximum cost; after it floods come only in 50-second refresh waves.
	// Timing the ease-in keeps every slice of a run doing the same kind of
	// work, so the latency percentiles do not depend on how far into the
	// simulation a fast or slow run gets.
	hierEnd   = 50 * sim.Second
	hierSlice = 500 * sim.Millisecond
	// hierSetups is how many extra builds the timing run makes for set-up
	// samples, beside one per pass; setup_s is their median.
	hierSetups = 3
)

func hierConfig(g *topology.Graph, seed int64, shards, sample int) shard.Config {
	return shard.Config{
		Graph:         g,
		Shards:        shards,
		Seed:          seed,
		PktRate:       hierPktRate,
		Dests:         hierDests,
		Adaptive:      true,
		Metric:        node.HNSPF,
		MeasureSample: sample,
	}
}

// newShard builds the simulation; a configuration error is a benchmark
// bug, so it ends the run without a result.
func newShard(cfg shard.Config) (*shard.Sim, float64) {
	t0 := time.Now()
	s, err := shard.New(cfg)
	d := time.Since(t0).Seconds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	return s, d
}

// checkShard is one operation's output check: the runner's own audit,
// then every shard ledger and their composition (the planted imbalance is
// injected into this snapshot), then delivered traffic.
func checkShard(s *shard.Sim, plant *bool) error {
	if err := s.Audit(); err != nil {
		return err
	}
	ledgers := s.Ledgers()
	if *plant {
		ledgers[0].Generated++
		*plant = false
	}
	for i, l := range ledgers {
		if err := l.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := shard.Compose(ledgers).Err(); err != nil {
		return err
	}
	if s.Report().Delivered == 0 {
		return errors.New("no packet delivered")
	}
	return nil
}

func hierFingerprint(fp *fingerprint, s *shard.Sim) {
	r := s.Report()
	fp.count("events", int64(s.Fired()))
	fp.count("generated", r.Generated)
	fp.count("delivered", r.Delivered)
	fp.count("buffer", r.BufferDrops)
	fp.count("noroute", r.NoRouteDrops)
	fp.count("loop", r.LoopDrops)
	fp.count("inflight", r.InFlight)
	fp.count("originated", r.Originated)
	fp.count("ctrl_generated", r.CtrlGenerated)
	fp.count("ctrl_consumed", r.CtrlConsumed)
	fp.float(r.AvgDelay, r.AvgHops)
}

// timeHier1k runs whole passes — build, warm up, then the timed slices up
// to hierEnd — until the budget is spent. A slice late in the window costs
// up to half again as much as an early one, so a run that stopped inside a
// pass would weigh them by how fast the machine was.
func timeHier1k(cfg config) outcome {
	g := topology.Hierarchical(hierRegions, hierPerRegion, cfg.seed)
	hp := newHeapPeak()
	var setups []float64
	for i := 0; i < hierSetups; i++ {
		_, d := newShard(hierConfig(g, cfg.seed, hierShards, 0))
		setups = append(setups, d)
	}
	var o ops
	plant := cfg.plant
	fp := newFingerprint()
	var pkts int64
	start := time.Now()
	for pass := 0; !timingDone(&o, start, cfg.seconds); pass++ {
		// Collect the previous pass while nothing is timed: the new 200 MB
		// simulation then grows the heap goal during set-up and warm-up,
		// and no collection cycle lands in a timed slice.
		runtime.GC()
		s, d := newShard(hierConfig(g, cfg.seed, hierShards, 0))
		setups = append(setups, d)
		s.Run(hierWarm)
		gen0 := s.Generated()
		for until := hierWarm + hierSlice; until <= hierEnd; until += hierSlice {
			t := time.Now()
			s.Run(until)
			d := time.Since(t)
			o.done(d, checkShard(s, &plant))
			if pass == 0 && until == hierEnd {
				hierFingerprint(fp, s)
			}
		}
		pkts += s.Generated() - gen0
		hp.probe()
		runtime.KeepAlive(s)
	}
	return outcome{
		ops: o,
		values: map[string]float64{
			"setup_s":      median(setups),
			"pkts_per_s":   pktsPerSec(pkts, o.durs),
			"op_p50_s":     median(o.durs),
			"op_p90_s":     quantile(o.durs, 0.9),
			"peak_heap_mb": hp.mb(),
		},
		fp: fp,
	}
}

// hierPhase is one simulation of the traced run, timed over its slices.
type hierPhase struct {
	durs      []float64
	report    shard.Report
	events    int64 // kernel events in the timed slices
	generated int64 // user packets generated in the timed slices
	cpu       float64
	rt        runtimeSample
	lookahead sim.Time
	cut       int       // trunks whose ends lie in different shards
	initial   []float64 // boot link costs (traced phase only)
	trace     string    // merged trace text (traced phase only)
}

// runHierPhase builds a simulation, warms it up, and runs nOps checked
// slices. final, when non-nil, adds a check on the last slice's report.
func runHierPhase(cfg shard.Config, nOps int, o *ops, plant *bool, final func(shard.Report) error) hierPhase {
	runtime.GC() // start each phase from a collected heap
	var p hierPhase
	s, _ := newShard(cfg)
	if cfg.MeasureSample > 0 {
		p.initial = make([]float64, cfg.Graph.NumLinks())
		for l := range p.initial {
			p.initial[l] = s.LinkCost(topology.LinkID(l))
		}
	}
	p.lookahead = s.Lookahead()
	part := s.PartitionOf()
	for t := 0; t < cfg.Graph.NumTrunks(); t++ {
		l := cfg.Graph.Link(topology.LinkID(2 * t))
		if part[l.From] != part[l.To] {
			p.cut++
		}
	}
	s.Run(hierWarm)
	ev0, gen0, cpu0, rt0 := s.Fired(), s.Generated(), cpuSeconds(), readRuntime()
	for i := 1; i <= nOps; i++ {
		t := time.Now()
		s.Run(hierWarm + sim.Time(i)*hierSlice)
		d := time.Since(t)
		err := checkShard(s, plant)
		if i == nOps && err == nil && final != nil {
			err = final(s.Report())
		}
		o.done(d, err)
		p.durs = append(p.durs, d.Seconds())
	}
	p.cpu = cpuSeconds() - cpu0
	p.rt = readRuntime().sub(rt0)
	p.events = int64(s.Fired() - ev0)
	p.generated = s.Generated() - gen0
	p.report = s.Report()
	if cfg.MeasureSample > 0 {
		p.trace = s.TraceText()
	}
	return p
}

// hierTrace is the update stream and cost-module inputs parsed from a
// MeasureSample=1 trace.
type hierTrace struct {
	ups        []update
	meas       []costCall // every measurement, in trace order
	timedMeas  int64      // measurements after warm-up
	timedPer   int64      // node measurement periods after warm-up
	originated int64      // originations over the whole trace
}

// parseHierTrace rebuilds the flooded updates from the merged trace: the
// "meas" records carry each link's reported cost (printed to 6 significant
// digits) and the "originate" records the origin and sequence number; an
// update carries its origin's out-link costs as last measured.
func parseHierTrace(g *topology.Graph, initial []float64, text string) (hierTrace, error) {
	var ht hierTrace
	ids := make(map[string]topology.NodeID, g.NumNodes())
	for id, n := range g.Nodes() {
		ids[n.Name] = topology.NodeID(id)
	}
	cur := append([]float64(nil), initial...)
	var lastAt sim.Time = -1
	lastNode := topology.NodeID(-1)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || (f[2] != "meas" && f[2] != "originate") {
			continue
		}
		secs, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "s"), 64)
		if err != nil {
			return ht, fmt.Errorf("trace time %q: %v", f[0], err)
		}
		at := sim.FromSeconds(secs)
		id, ok := ids[f[1]]
		if !ok {
			return ht, fmt.Errorf("trace names unknown node %q", f[1])
		}
		kv := map[string]string{}
		for _, x := range f[3:] {
			if k, v, ok := strings.Cut(x, "="); ok {
				kv[k] = v
			}
		}
		timed := at > hierWarm
		switch f[2] {
		case "meas":
			link, err1 := strconv.Atoi(kv["link"])
			avg, err2 := strconv.ParseFloat(kv["avg"], 64)
			cost, err3 := strconv.ParseFloat(kv["cost"], 64)
			if err := errors.Join(err1, err2, err3); err != nil {
				return ht, fmt.Errorf("trace line %q: %v", line, err)
			}
			cur[link] = cost
			ht.meas = append(ht.meas, costCall{at: at, link: topology.LinkID(link), delay: avg})
			if timed {
				ht.timedMeas++
				if at != lastAt || id != lastNode {
					ht.timedPer++
				}
			}
			lastAt, lastNode = at, id
		case "originate":
			seq, err1 := strconv.ParseUint(kv["seq"], 10, 64)
			n, err2 := strconv.Atoi(kv["links"])
			if err := errors.Join(err1, err2); err != nil {
				return ht, fmt.Errorf("trace line %q: %v", line, err)
			}
			links := g.Out(id)
			if n != len(links) {
				return ht, fmt.Errorf("trace line %q: %d links, node has %d", line, n, len(links))
			}
			costs := make([]float64, len(links))
			for i, l := range links {
				costs[i] = cur[l]
			}
			ht.ups = append(ht.ups, update{origin: id, seq: seq, links: links, costs: costs, timed: timed})
			ht.originated++
		}
	}
	return ht, nil
}

// replayHierModules feeds every traced measurement through a fresh HN-SPF
// module per link and returns the bulk Update time in seconds.
func replayHierModules(g *topology.Graph, meas []costCall) float64 {
	mods := make([]node.CostModule, g.NumLinks())
	for _, l := range g.Links() {
		mods[l.ID] = node.NewCostModule(node.HNSPF, l.Type, l.PropDelay)
	}
	t0 := time.Now()
	for i := range meas {
		mods[meas[i].link].Update(meas[i].delay)
	}
	return time.Since(t0).Seconds()
}

// traceHier1k runs the same simulated span three times — untraced on 2
// shards, traced on 2 shards, untraced on 1 shard — and then replays the
// traced run's update stream. Its length scales with --seconds but is a
// fixed simulated span for a given value, so its counts are deterministic.
func traceHier1k(cfg config) outcome {
	g := topology.Hierarchical(hierRegions, hierPerRegion, cfg.seed)
	nOps := min(max(int(cfg.seconds), 1), int((hierEnd-hierWarm)/hierSlice))
	var o ops
	plant := cfg.plant
	a := runHierPhase(hierConfig(g, cfg.seed, hierShards, 0), nOps, &o, &plant, nil)
	same := func(what string) func(shard.Report) error {
		return func(r shard.Report) error {
			if r != a.report {
				return fmt.Errorf("%s report differs from the 2-shard run's:\n%s\nwant\n%s", what, r, a.report)
			}
			return nil
		}
	}
	b := runHierPhase(hierConfig(g, cfg.seed, hierShards, 1), nOps, &o, &plant, same("traced"))
	c := runHierPhase(hierConfig(g, cfg.seed, 1, 0), nOps, &o, &plant, same("1-shard"))

	v := zeroLayers()
	fp := newFingerprint()
	fp.count("events", a.events)
	fp.count("generated", a.report.Generated)
	fp.count("delivered", a.report.Delivered)
	fp.count("buffer", a.report.BufferDrops)
	fp.count("originated", a.report.Originated)
	fp.count("ctrl_generated", a.report.CtrlGenerated)
	fp.float(a.report.AvgDelay, a.report.AvgHops)

	ht, err := parseHierTrace(g, b.initial, b.trace)
	if err == nil && ht.originated != b.report.Originated {
		err = fmt.Errorf("trace holds %d originations, report %d", ht.originated, b.report.Originated)
	}
	o.done(0, err)
	b.trace = ""
	runtime.GC()
	st := replayUpdates(g, b.initial, ht.ups)
	costSec := replayHierModules(g, ht.meas)
	st.fingerprint(fp)
	fp.count("costmod.updates", ht.timedMeas)

	v["sim.events_per_op"] = ratio(float64(a.events), float64(nOps))
	v["sim.events_per_pkt"] = ratio(float64(a.events), float64(a.generated))
	v["sim.ns_per_event"] = ratio(sum(a.durs)*1e9, float64(a.events))
	v["network.offered"] = float64(a.report.Generated)
	v["network.delivered_ratio"] = ratio(float64(a.report.Delivered), float64(a.report.Generated))
	v["network.buffer_drops"] = float64(a.report.BufferDrops)
	v["network.update_tx"] = float64(a.report.CtrlGenerated)
	v["network.spf_recomputes"] = float64(st.recomputes)
	v["costmod.updates"] = float64(ht.timedMeas)
	v["costmod.report_ratio"] = ratio(float64(st.originated), float64(ht.timedPer))
	v["costmod.ns_per_update"] = ratio(costSec*1e9, float64(len(ht.meas)))
	st.layerValues(v)
	v["spf.compute_ns"] = computeNs(g)
	v["shard.cpu_per_wall"] = ratio(a.cpu, sum(a.durs))
	v["shard.speedup"] = ratio(sum(c.durs), sum(a.durs))
	v["shard.lookahead_ms"] = a.lookahead.Milliseconds()
	v["shard.cut_trunks"] = float64(a.cut)
	v["runtime.gc_cpu_frac"] = a.rt.gcFrac()
	v["runtime.allocs_per_event"] = ratio(float64(a.rt.allocObjects), float64(a.events))
	v["runtime.alloc_mb_per_op"] = ratio(float64(a.rt.allocBytes)/(1<<20), float64(nOps))
	v["trace.overhead_frac"] = ratio(median(b.durs), median(a.durs)) - 1
	return outcome{ops: o, values: v, fp: fp}
}
