// Package flowmodel is the fluid (flow-level) companion to the
// packet-level simulator: it assigns a traffic matrix to single-path SPF
// routes under a given set of link costs, accumulates per-link
// utilizations, and predicts average path delay from the M/M/1 model plus
// propagation. The §5 equilibrium analysis reasons about one "average
// link"; this model evaluates a *specific* cost assignment on the whole
// network — the tool for questions like "what would the network-wide delay
// be if every link reported its floor cost?", and the analytic cross-check
// for the simulator's measurements.
package flowmodel

import (
	"math"

	"repro/internal/queueing"
	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Assignment is the result of routing a matrix over a topology with fixed
// link costs.
type Assignment struct {
	g *topology.Graph

	// LinkBPS is the traffic assigned to each link in bits/second.
	LinkBPS []float64

	// Weighted path statistics over all source-destination flows.
	HopMean     float64
	DelayMean   float64 // seconds, one-way, M/M/1 + propagation
	Unreachable float64 // bps of demand with no route
	saturated   bool
}

// Assign routes every matrix entry on the SPF shortest path under cost and
// returns the resulting assignment. Costs must be positive and finite.
func Assign(g *topology.Graph, m *traffic.Matrix, cost spf.CostFunc) *Assignment {
	if m.NumNodes() != g.NumNodes() {
		panic("flowmodel: matrix size mismatch")
	}
	a := &Assignment{g: g, LinkBPS: make([]float64, g.NumLinks())}
	var ws spf.Workspace
	weight := assignInto(&ws, a.LinkBPS, &a.Unreachable, g, m, 1, cost, math.Inf(1))
	// The rate-weighted path sums collapse onto the per-link loads by
	// exchanging the order of summation: Σ_flows rate·|path| = Σ_links
	// load(l), and Σ_flows rate·Σ_{l∈path} delay(l) = Σ_links load(l)·delay(l).
	// No per-flow path storage is needed.
	var hops, delay float64
	for l, bps := range a.LinkBPS {
		if bps == 0 {
			continue
		}
		hops += bps
		delay += bps * a.LinkDelay(topology.LinkID(l))
	}
	if weight > 0 {
		a.HopMean = hops / weight
		a.DelayMean = delay / weight
	}
	return a
}

// assignInto routes m (scaled by scale) over SPF trees under cost into the
// per-link accumulator linkBPS, reusing ws across roots so the routing pass
// is allocation-free after warmup. Demand whose shortest path costs maxDist
// or more (no route at all, or only a route through a penalized dead link)
// is added to unroutable instead. Returns the total routed rate.
func assignInto(ws *spf.Workspace, linkBPS []float64, unroutable *float64,
	g *topology.Graph, m *traffic.Matrix, scale float64, cost spf.CostFunc, maxDist float64) float64 {
	var weight float64
	for s := 0; s < g.NumNodes(); s++ {
		src := topology.NodeID(s)
		tree := spf.ComputeInto(ws, g, src, cost)
		for d := 0; d < g.NumNodes(); d++ {
			dst := topology.NodeID(d)
			rate := m.Rate(src, dst) * scale
			if rate <= 0 {
				continue
			}
			if tree.Dist(dst) >= maxDist {
				*unroutable += rate
				continue
			}
			for l := tree.Parent(dst); l != topology.NoLink; l = tree.Parent(g.Link(l).From) {
				linkBPS[l] += rate
			}
			weight += rate
		}
	}
	return weight
}

// Utilization returns a link's assigned utilization (may exceed 1 when the
// assignment oversubscribes it).
func (a *Assignment) Utilization(l topology.LinkID) float64 {
	return a.LinkBPS[l] / a.g.Link(l).Type.Bandwidth()
}

// LinkDelay returns the predicted one-way delay of a link in seconds:
// M/M/1 queueing+transmission at the assigned utilization (capped at 99%
// so oversubscription yields a large finite number) plus propagation.
func (a *Assignment) LinkDelay(l topology.LinkID) float64 {
	lnk := a.g.Link(l)
	rho := a.Utilization(l)
	if rho > 0.99 {
		rho = 0.99
		a.saturated = true
	}
	return queueing.MM1Delay(queueing.ServiceTime(lnk.Type.Bandwidth()), rho) + lnk.PropDelay
}

// Saturated reports whether any link was driven past 99% utilization (the
// delay prediction is then a lower bound — a real network would drop).
func (a *Assignment) Saturated() bool {
	// LinkDelay sets the flag lazily; make sure every link was looked at.
	for l := range a.LinkBPS {
		a.LinkDelay(topology.LinkID(l))
	}
	return a.saturated
}

// MaxUtilization returns the highest link utilization in the assignment.
func (a *Assignment) MaxUtilization() float64 {
	max := 0.0
	for l := range a.LinkBPS {
		if u := a.Utilization(topology.LinkID(l)); u > max {
			max = u
		}
	}
	return max
}

// FloorCosts returns the cost function of an idle network under a metric's
// floor costs — what every link advertises when unloaded. metricFloor maps
// a link to its floor cost.
func FloorCosts(g *topology.Graph, metricFloor func(topology.Link) float64) spf.CostFunc {
	costs := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		c := metricFloor(l)
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			panic("flowmodel: floor cost must be positive and finite")
		}
		costs[i] = c
	}
	return func(l topology.LinkID) float64 { return costs[l] }
}
