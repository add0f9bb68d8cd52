// Package equilibrium implements the paper's §5 analysis of SPF behaviour:
// the per-link shed-cost statistics (Figure 7), the Network Response Map of
// the "average link" (Figure 8), the metric maps (Figures 4 and 5), the
// fixed-point equilibrium of reported cost and traffic (Figures 9 and 10),
// and the cobweb dynamic-behaviour iteration (Figures 11 and 12).
//
// The model follows §5.1 exactly: all links except the one under
// consideration report the same ambient value (one "hop"); for each
// source-destination route we compute the reported cost (in hops) at which
// the route moves off the link, with ties always broken in favor of using
// the link. Aggregating over all links gives the average link's response.
//
// The build fans out over links: each directed link's thresholds depend
// only on shortest paths with that one link priced out, so links are
// embarrassingly parallel. Because every cost is one hop, the distances
// are breadth-first searches: one ambient all-pairs hop matrix per build,
// plus one search without the link per source whose shortest path the
// link can extend (see linkBuilder.build). A bounded worker pool (default
// GOMAXPROCS, see WithWorkers) processes links off a shared counter; every
// worker owns its search scratch and writes only its link's routes/base
// slots, so the result is identical — bit for bit — to a sequential build.
package equilibrium

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/spf"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Model holds the per-route shed thresholds for every link of a network.
type Model struct {
	g *topology.Graph
	m *traffic.Matrix

	// For each directed link, the routes that use it at ambient cost:
	// (shed threshold w* in hops, route length in hops, traffic in bps),
	// sorted by ascending threshold.
	routes [][]routeStat

	// base traffic per link at ambient cost (bps).
	base []float64

	// Prefix-sum response tables: one per link plus the all-links
	// aggregate, so response queries bisect instead of rescanning routes.
	tables   []responseTable
	allTable responseTable
	allBase  float64
}

type routeStat struct {
	shedAt float64 // largest cost (hops) at which the route still uses the link
	length int     // route length (hops) through the link at ambient cost
	rate   float64 // bps
}

// Option configures the model build.
type Option func(*config)

type config struct {
	workers int
}

// WithWorkers sets the number of goroutines the build fans the per-link
// computations over. The default is GOMAXPROCS; 1 forces a fully
// sequential build. The result does not depend on the worker count.
func WithWorkers(n int) Option {
	if n < 1 {
		panic("equilibrium: workers must be at least 1")
	}
	return func(c *config) { c.workers = n }
}

// New builds the model for a topology and traffic matrix. For every
// directed link L = (u,v) and source-destination pair it derives the
// threshold
//
//	w* = d(s,t | ¬L) − d(s,u | ¬L) − d(v,t | ¬L)
//
// — the largest cost of L (in hops) at which the s→t route still crosses L
// (ties in favor of L), with d the hop distance on the graph without L.
// Pairs with w* < 1 never use the link.
func New(g *topology.Graph, m *traffic.Matrix, opts ...Option) *Model {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if m.NumNodes() != g.NumNodes() {
		panic("equilibrium: matrix size mismatch")
	}
	cfg := config{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	nl := g.NumLinks()
	mod := &Model{
		g:      g,
		m:      m,
		routes: make([][]routeStat, nl),
		base:   make([]float64, nl),
		tables: make([]responseTable, nl),
	}
	// Ambient hop distances, shared read-only by the workers and dropped
	// when New returns.
	hops := spf.AllPairsHops(g)

	workers := cfg.workers
	if workers > nl {
		workers = nl
	}
	if workers < 1 {
		workers = 1
	}
	// Workers claim links off a shared counter. Each worker writes only
	// routes[li], base[li] and tables[li] for the links it claimed — the
	// slots are disjoint, so no synchronization beyond the WaitGroup is
	// needed and the outcome matches a sequential build exactly.
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.Store(p)
				}
			}()
			b := newLinkBuilder(g, m, hops)
			for {
				li := int(next.Add(1)) - 1
				if li >= nl {
					return
				}
				routes, base := b.build(topology.LinkID(li))
				mod.routes[li] = routes
				mod.base[li] = base
				mod.tables[li] = newResponseTable(routes)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}

	// Aggregate table for the average-link response: concatenating every
	// link's routes in link order keeps the build order — and hence the
	// floating-point sums — independent of the worker count.
	total := 0
	for _, rs := range mod.routes {
		total += len(rs)
	}
	all := make([]routeStat, 0, total)
	for _, rs := range mod.routes {
		all = append(all, rs...)
	}
	slices.SortStableFunc(all, byShedAt)
	mod.allTable = newResponseTable(all)
	for _, b := range mod.base {
		mod.allBase += b
	}
	return mod
}

// byShedAt orders routes by ascending shed threshold.
func byShedAt(a, b routeStat) int { return cmp.Compare(a.shedAt, b.shedAt) }

// linkBuilder is one worker's scratch state: the shared ambient hop
// matrix and the BFS distance row and queue for one source with the link
// under consideration removed.
type linkBuilder struct {
	g     *topology.Graph
	m     *traffic.Matrix
	hops  [][]int // ambient d(s,t)
	dist  []int   // d(s,t | ¬L) for the current source, -1 when unreachable
	queue []topology.NodeID
}

func newLinkBuilder(g *topology.Graph, m *traffic.Matrix, hops [][]int) *linkBuilder {
	return &linkBuilder{
		g:     g,
		m:     m,
		hops:  hops,
		dist:  make([]int, g.NumNodes()),
		queue: make([]topology.NodeID, g.NumNodes()),
	}
}

// build computes one link's route thresholds and base traffic. With unit
// costs, d(s,u | ¬L) = d(s,u) and d(v,t | ¬L) = d(v,t): a shortest path
// to u never leaves u over L, and one from v never enters v over it. Both
// come from the ambient matrix, finite everywhere because New accepts only
// connected graphs of paired trunks. Only d(s,t | ¬L) needs a search
// without L, and only from sources where L continues a shortest path
// (d(s,v) = d(s,u)+1); from any other source d(s,t | ¬L) ≤ d(s,v) +
// d(v,t) ≤ d(s,u) + d(v,t), so w* ≤ 0 for every t. The routes come out in
// (source, destination) order, then sorted by threshold — the same order
// for any worker assignment.
func (b *linkBuilder) build(lid topology.LinkID) ([]routeStat, float64) {
	link := b.g.Link(lid)
	fromV := b.hops[link.To]
	var routes []routeStat
	var base float64
	for s, row := range b.hops {
		toU := row[link.From]
		if row[link.To] != toU+1 {
			continue
		}
		src := topology.NodeID(s)
		spf.HopsInto(b.g, src, lid, b.dist, b.queue)
		for t, toT := range b.dist {
			if s == t {
				continue
			}
			rate := b.m.Rate(src, topology.NodeID(t))
			if rate <= 0 {
				continue
			}
			a := toU + fromV[t]
			wstar := math.Inf(1) // L is a bridge for s→t
			if toT >= 0 {
				if toT-a < 1 {
					continue // never uses the link
				}
				wstar = float64(toT - a)
			}
			routes = append(routes, routeStat{shedAt: wstar, length: a + 1, rate: rate})
			base += rate
		}
	}
	slices.SortStableFunc(routes, byShedAt)
	return routes, base
}

// responseTable answers "traffic remaining at reported cost w" queries in
// O(log R) over a threshold-sorted route set. A route with threshold w*
// contributes its full rate while w ≤ w*, rate·(w*+1−w) while w* < w <
// w*+1, and nothing beyond — so the remaining traffic is
//
//	Σ_{w* ≥ w} rate  +  Σ_{w−1 < w* < w} rate·(w*+1−w)
//
// Both sums are contiguous runs of the sorted thresholds; prefix sums of
// rate and rate·w* turn each into two lookups around a binary search.
type responseTable struct {
	shed     []float64 // sorted thresholds
	rateCum  []float64 // rateCum[i] = Σ rate[0:i], length len(shed)+1
	rshedCum []float64 // rshedCum[i] = Σ (rate·shedAt)[0:i]
}

func newResponseTable(routes []routeStat) responseTable {
	t := responseTable{
		shed:     make([]float64, len(routes)),
		rateCum:  make([]float64, len(routes)+1),
		rshedCum: make([]float64, len(routes)+1),
	}
	for i, r := range routes {
		t.shed[i] = r.shedAt
		t.rateCum[i+1] = t.rateCum[i] + r.rate
		t.rshedCum[i+1] = t.rshedCum[i] + r.rate*r.shedAt
	}
	return t
}

// remain returns the absolute traffic (bps) still on the link at cost w.
func (t *responseTable) remain(w float64) float64 {
	n := len(t.shed)
	// Routes in [i1, i2) are in the partial band w−1 < w* < w; routes from
	// i2 on keep their full rate.
	i1 := sort.Search(n, func(i int) bool { return t.shed[i] > w-1 })
	i2 := sort.Search(n, func(i int) bool { return t.shed[i] >= w })
	full := t.rateCum[n] - t.rateCum[i2]
	partial := (t.rshedCum[i2] - t.rshedCum[i1]) + (1-w)*(t.rateCum[i2]-t.rateCum[i1])
	return full + partial
}

// ShedStat is one row of Figure 7: for routes of a given length, the
// reported cost (hops) needed to shed them.
type ShedStat struct {
	RouteLength int
	Mean        float64
	StdDev      float64
	Min         float64
	Max         float64
	Count       int64
}

// ShedCosts aggregates, per route length, the reported cost needed to shed
// each route (w* + 1: the first integer cost at which the route leaves,
// given ties favor the link) — Figure 7. Lengths with no routes are
// omitted; results are sorted by length.
func (mo *Model) ShedCosts() []ShedStat {
	byLen := map[int]*stats.Welford{}
	for _, rs := range mo.routes {
		for _, r := range rs {
			w := byLen[r.length]
			if w == nil {
				w = &stats.Welford{}
				byLen[r.length] = w
			}
			w.Add(r.shedAt + 1)
		}
	}
	lengths := make([]int, 0, len(byLen))
	for l := range byLen {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	out := make([]ShedStat, 0, len(lengths))
	for _, l := range lengths {
		w := byLen[l]
		out = append(out, ShedStat{
			RouteLength: l,
			Mean:        w.Mean(),
			StdDev:      w.StdDev(),
			Min:         w.Min(),
			Max:         w.Max(),
			Count:       w.N(),
		})
	}
	return out
}

// MeanShedCost returns the average reported cost needed to shed a route,
// over all routes of all links (the paper: "The average reported cost
// needed to shed all routes is four hops").
func (mo *Model) MeanShedCost() float64 {
	var w stats.Welford
	for _, rs := range mo.routes {
		for _, r := range rs {
			w.Add(r.shedAt + 1)
		}
	}
	return w.Mean()
}

// Response returns the Network Response Map (Figure 8): the traffic
// remaining on the average link when it reports cost w (in hops),
// normalized so the ambient-cost traffic is 1.
//
// A single link's response is a staircase: a route with threshold w* stays
// through cost w* (ties in favor) and is gone at w*+1. Individual links
// differ from the "average link" (§5.2), so the aggregate curve the paper
// plots is smooth; we model that by shedding each route linearly between
// w* and w*+1, which matches the staircase at every integer and half-
// integer point of Figure 8 (Response(1.5) is exactly midway between "all
// ties kept at cost 1" and "all ties lost at cost 2") and keeps the map
// continuous so the §5.3 fixed point is well-defined.
func (mo *Model) Response(w float64) float64 {
	if mo.allBase == 0 {
		return 0
	}
	return mo.allTable.remain(w) / mo.allBase
}

// ResponseSeries samples the response map over [1, wMax] at the given
// step, for plotting.
func (mo *Model) ResponseSeries(wMax, step float64) *stats.Series {
	s := stats.NewSeries("network response")
	for w := 1.0; w <= wMax+1e-9; w += step {
		s.Add(w, mo.Response(w))
	}
	return s
}

// LinkResponse is Response restricted to one link: the fraction of ITS
// base traffic it keeps at reported cost w. §5.2: "The characteristics of
// individual links differ from the 'average' link"; this exposes that
// spread. Links with no base traffic return 0.
func (mo *Model) LinkResponse(l topology.LinkID, w float64) float64 {
	if mo.base[l] == 0 {
		return 0
	}
	return mo.tables[l].remain(w) / mo.base[l]
}

// ResponseSpread returns the per-link spread of the response at cost w:
// mean, standard deviation, min and max of LinkResponse over links that
// carry base traffic.
func (mo *Model) ResponseSpread(w float64) stats.Welford {
	var agg stats.Welford
	for l := range mo.routes {
		if mo.base[l] > 0 {
			agg.Add(mo.LinkResponse(topology.LinkID(l), w))
		}
	}
	return agg
}

// MaxShedCost returns the largest shed threshold over all routes — the
// cost beyond which the average link is guaranteed bare ("if a link
// reports more than eight hops, then it will shed all of its routes").
func (mo *Model) MaxShedCost() float64 {
	if n := len(mo.allTable.shed); n > 0 {
		return mo.allTable.shed[n-1]
	}
	return 0
}

// BaseTraffic returns the ambient-cost traffic of link l in bps.
func (mo *Model) BaseTraffic(l topology.LinkID) float64 { return mo.base[l] }

// MeanBaseTraffic returns the ambient-cost traffic of the average link.
func (mo *Model) MeanBaseTraffic() float64 {
	return mo.allBase / float64(len(mo.base))
}
