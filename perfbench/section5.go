package main

// section5-hier96: the §5 figure job — equilibrium.New followed by the
// Figure 7–12 queries (ShedCosts, ResponseSeries, Equilibrium,
// EquilibriumSweep for HN-SPF, D-SPF and min-hop, Cobweb) — on a generated
// 96-node hierarchical map (topology.Hierarchical(8, 12, 1)) under uniform
// traffic with every entry jittered by ±50% from the seed. The map is
// fixed because its random chords change the build's work by several
// percent from seed to seed; the seed varies the demand instead. One
// operation is one full analysis; set-up is generating the graph and the
// matrix. A 128-node map takes ~0.4 s per
// analysis on 2 cores, too slow for the 100 operations a run needs for a
// p90 with ten samples beyond it.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/equilibrium"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const (
	s5Regions   = 8
	s5PerRegion = 12
	s5TotalBPS  = 400_000 // the figures' §5 load
	s5Workers   = 2
	s5MapSeed   = 1
	s5Jitter    = 0.5
	s5Setups    = 25
)

func section5Inputs(seed int64) (*topology.Graph, *traffic.Matrix) {
	g := topology.Hierarchical(s5Regions, s5PerRegion, s5MapSeed)
	return g, traffic.Uniform(g, s5TotalBPS).Perturb(rand.New(rand.NewSource(seed)), s5Jitter)
}

// analysis is one §5 figure job's timings and results.
type analysis struct {
	mo           *equilibrium.Model
	build, query time.Duration
	values       []float64 // every plotted number, in a fixed order
	err          error     // first out-of-range equilibrium
}

// analyse builds the model and runs the Figure 7–12 queries with the
// parameters cmd/figures uses, checking that every equilibrium is finite
// and in range.
func analyse(g *topology.Graph, m *traffic.Matrix) analysis {
	var a analysis
	t0 := time.Now()
	mo := equilibrium.New(g, m, equilibrium.WithWorkers(s5Workers))
	t1 := time.Now()
	a.mo, a.build = mo, t1.Sub(t0)

	hn := equilibrium.HNSPFMap(topology.T56, 0)
	ds := equilibrium.DSPFMap(topology.T56, 0)
	hop := core.NewModule(topology.T56, 0).Floor()
	hnOpt := equilibrium.CobwebOptions{Averaging: true, LimitUp: (hop/2 + 1) / hop, LimitDown: (hop / 2) / hop}
	var eqs [][2]float64 // (cost, utilization) pairs
	for _, s := range mo.ShedCosts() {
		a.values = append(a.values, float64(s.RouteLength), s.Mean, s.StdDev, s.Min, s.Max, float64(s.Count))
	}
	r := mo.ResponseSeries(9, 0.25)
	a.values = append(a.values, r.Y...)
	for _, f := range []float64{0.5, 1.0, 1.5, 2.0} {
		for _, mm := range []equilibrium.MetricMap{hn, ds} {
			c, u := mo.Equilibrium(mm, f)
			eqs = append(eqs, [2]float64{c, u})
		}
	}
	var sweeps []float64
	for _, mm := range []equilibrium.MetricMap{hn, ds, equilibrium.MinHopMap()} {
		sweeps = append(sweeps, mo.EquilibriumSweep("", mm, 4.0, 0.1).Y...)
	}
	eq, _ := mo.Equilibrium(ds, 1.0)
	var webs []equilibrium.CobwebPoint
	webs = append(webs, mo.Cobweb(ds, 1.0, eq, 30, equilibrium.CobwebOptions{})...)
	webs = append(webs, mo.Cobweb(ds, 1.0, eq+1.5, 30, equilibrium.CobwebOptions{})...)
	webs = append(webs, mo.Cobweb(hn, 1.0, 3, 30, hnOpt)...)
	webs = append(webs, mo.Cobweb(hn, 0.3, 3, 30, hnOpt)...)
	a.query = time.Since(t1)

	for _, e := range eqs {
		a.values = append(a.values, e[0], e[1])
		a.check(e[0], e[1])
	}
	for _, u := range sweeps {
		a.values = append(a.values, u)
		a.check(1, u)
	}
	for _, w := range webs {
		a.values = append(a.values, w.Cost, w.Utilization)
		a.check(w.Cost, w.Utilization)
	}
	return a
}

// check records an error unless cost is a finite reported cost of at
// least the ambient hop and utilization lies in [0, 1].
func (a *analysis) check(cost, util float64) {
	if a.err != nil {
		return
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost < 1 || math.IsNaN(util) || util < 0 || util > 1 {
		a.err = fmt.Errorf("equilibrium out of range: cost %v, utilization %v", cost, util)
	}
}

func (a analysis) fingerprint() *fingerprint {
	fp := newFingerprint()
	fp.count("values", int64(len(a.values)))
	fp.float(a.values...)
	return fp
}

// s5Runner runs analyses as checked operations; every analysis must
// reproduce the first one bit for bit. With hp set, every s5ProbeEvery-th
// operation probes the heap while its model is alive.
type s5Runner struct {
	g     *topology.Graph
	m     *traffic.Matrix
	hp    *heapPeak
	first *fingerprint
}

const s5ProbeEvery = 10

func (r *s5Runner) op(o *ops) analysis {
	a := analyse(r.g, r.m)
	err := a.err
	fp := a.fingerprint()
	if r.first == nil {
		r.first = fp
	} else if err == nil && fp.String() != r.first.String() {
		err = fmt.Errorf("analysis differs from the first one: %s vs %s", fp, r.first)
	}
	o.done(a.build+a.query, err)
	if r.hp != nil && o.attempted%s5ProbeEvery == 1 {
		r.hp.probe()
		runtime.KeepAlive(a.mo)
	}
	return a
}

func timeSection5(cfg config) outcome {
	r := s5Runner{hp: newHeapPeak()}
	var setups []float64
	for i := 0; i < s5Setups; i++ {
		t0 := time.Now()
		r.g, r.m = section5Inputs(cfg.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	var o ops
	start := time.Now()
	for !timingDone(&o, start, cfg.seconds) {
		r.op(&o)
	}
	return outcome{
		ops: o,
		values: map[string]float64{
			"setup_s":      median(setups),
			"pkts_per_s":   ratio(s5PktsPerAnalysis(r.m), median(o.durs)),
			"op_p50_s":     median(o.durs),
			"op_p90_s":     quantile(o.durs, 0.9),
			"peak_heap_mb": r.hp.mb(),
		},
		fp: r.first,
	}
}

// s5PktsPerAnalysis is the packet count one analysis covers: the matrix's
// offered packets over one 10-second measurement period, the step in
// which §5's dynamics move. It turns analyses per second into the
// pkts_per_s the simulation workloads report.
func s5PktsPerAnalysis(m *traffic.Matrix) float64 {
	return m.Total() / network.ClampedMeanPktBits() * node.MeasurementPeriod.Seconds()
}

// traceSection5 alternates untimed-span and traced analyses until the
// budget is spent; the traced ones time the model build and the queries
// as separate spans.
func traceSection5(cfg config) outcome {
	var r s5Runner
	r.g, r.m = section5Inputs(cfg.seed)
	var o, traced ops
	var builds, queries []float64
	var cpu, wall float64
	var rt runtimeSample
	start := time.Now()
	for traced.attempted == 0 || !deadline(start, cfg.seconds) {
		t0, c0, rt0 := time.Now(), cpuSeconds(), readRuntime()
		r.op(&o)
		wall += time.Since(t0).Seconds()
		cpu += cpuSeconds() - c0
		rt = rt.add(readRuntime().sub(rt0))
		a := r.op(&traced)
		builds = append(builds, a.build.Seconds())
		queries = append(queries, a.query.Seconds())
	}
	untraced := o.durs
	o.absorb(traced)

	v := zeroLayers()
	v["spf.compute_ns"] = computeNs(r.g)
	v["shard.cpu_per_wall"] = ratio(cpu, wall)
	v["equilibrium.build_s"] = median(builds)
	v["equilibrium.query_ms"] = median(queries) * 1e3
	v["runtime.gc_cpu_frac"] = rt.gcFrac()
	v["runtime.alloc_mb_per_op"] = ratio(float64(rt.allocBytes)/(1<<20), float64(len(untraced)))
	v["trace.overhead_frac"] = ratio(median(traced.durs), median(untraced)) - 1
	return outcome{ops: o, values: v, fp: r.first}
}
