// Package spf implements the route computation of the May 1979 ARPANET
// algorithm (§2.2): each PSN knows the full topology and every link's cost,
// and builds a shortest-path-first (Dijkstra) tree to all other nodes. The
// revised metric changed none of this — only the link costs changed — so
// this package is shared by D-SPF, HN-SPF and min-hop routing.
//
// IncrementalRouter additionally implements the PSN's *incremental* SPF:
// "the algorithm... attempts to perform only incremental adjustments
// necessitated by a link cost change, e.g., if a routing update reports an
// increase in the cost for a link not in the tree, the algorithm does not
// recompute any part of the tree."
package spf

import (
	"math"

	"repro/internal/topology"
)

// Infinite is the distance reported for unreachable nodes.
var Infinite = math.Inf(1)

// CostFunc returns the current cost of a link. Costs must be positive.
type CostFunc func(topology.LinkID) float64

// Tree is a shortest-path tree rooted at one PSN. It answers next-hop,
// distance and path queries toward every destination.
type Tree struct {
	root    topology.NodeID
	dist    []float64
	parent  []topology.LinkID // link entering each node on its shortest path
	nextHop []topology.LinkID // first link out of root toward each node
}

// Compute runs Dijkstra's algorithm from root over g with the given link
// costs. Every link's cost is evaluated and validated once per computation;
// a non-positive or non-finite cost panics: the metrics all guarantee a
// positive floor ("the bias term... effectively serves to prevent an idle
// line from reporting a zero delay value").
//
// Tie-breaking is deterministic: among equal-cost paths the one whose last
// relaxation came first wins, and relaxations scan links in ID order. The
// model layer relies on this determinism.
//
// The returned Tree is freshly allocated and never mutated afterwards;
// callers that run many computations should reuse a Workspace via
// ComputeInto instead.
func Compute(g *topology.Graph, root topology.NodeID, cost CostFunc) *Tree {
	return ComputeInto(NewWorkspace(), g, root, cost)
}

// Root returns the tree's root node.
func (t *Tree) Root() topology.NodeID { return t.root }

// Dist returns the cost of the shortest path from the root to dst
// (Infinite if unreachable, 0 for the root itself).
func (t *Tree) Dist(dst topology.NodeID) float64 { return t.dist[dst] }

// Reachable reports whether dst is reachable from the root.
func (t *Tree) Reachable(dst topology.NodeID) bool { return !math.IsInf(t.dist[dst], 1) }

// NextHop returns the first link on the shortest path from the root to
// dst, or NoLink for the root itself and unreachable nodes. This is what
// the PSN's forwarding table contains — single-path, destination-based.
func (t *Tree) NextHop(dst topology.NodeID) topology.LinkID { return t.nextHop[dst] }

// Parent returns the link entering dst on its shortest path from the root.
func (t *Tree) Parent(dst topology.NodeID) topology.LinkID { return t.parent[dst] }

// Path returns the links of the shortest path from the root to dst in
// order, or nil if unreachable or dst is the root.
func (t *Tree) Path(g *topology.Graph, dst topology.NodeID) []topology.LinkID {
	if dst == t.root || !t.Reachable(dst) {
		return nil
	}
	var rev []topology.LinkID
	for n := dst; n != t.root; {
		l := t.parent[n]
		rev = append(rev, l)
		n = g.Link(l).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Hops returns the number of links on the shortest path to dst, or -1 if
// unreachable.
func (t *Tree) Hops(g *topology.Graph, dst topology.NodeID) int {
	if dst == t.root {
		return 0
	}
	if !t.Reachable(dst) {
		return -1
	}
	h := 0
	for n := dst; n != t.root; {
		h++
		n = g.Link(t.parent[n]).From
	}
	return h
}

// UsesLink reports whether the shortest path from the root to dst crosses
// the given link.
func (t *Tree) UsesLink(g *topology.Graph, dst topology.NodeID, link topology.LinkID) bool {
	if dst == t.root || !t.Reachable(dst) {
		return false
	}
	for n := dst; n != t.root; {
		l := t.parent[n]
		if l == link {
			return true
		}
		n = g.Link(l).From
	}
	return false
}

// InTree reports whether link carries any shortest path of the tree, i.e.
// it is some node's parent link.
func (t *Tree) InTree(link topology.LinkID) bool {
	for _, p := range t.parent {
		if p == link {
			return true
		}
	}
	return false
}

// HopTree computes the min-hop tree from root (all links cost 1), the
// Table 1 "minimum path" indicator.
func HopTree(g *topology.Graph, root topology.NodeID) *Tree {
	return Compute(g, root, func(topology.LinkID) float64 { return 1 })
}

// HopsInto is the unit-cost case of Compute without the heap: a
// breadth-first search from root over every link of g except skip
// (topology.NoLink skips none). It writes each node's min-hop distance
// into dist, -1 where unreachable; the distances equal HopTree's. dist and
// queue are caller-owned scratch of at least g.NumNodes() entries, so
// repeated searches allocate nothing.
func HopsInto(g *topology.Graph, root topology.NodeID, skip topology.LinkID, dist []int, queue []topology.NodeID) {
	dist = dist[:g.NumNodes()]
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue[0] = root
	for head, tail := 0, 1; head < tail; head++ {
		u := queue[head]
		for _, lid := range g.Out(u) {
			if v := g.Link(lid).To; dist[v] < 0 && lid != skip {
				dist[v] = dist[u] + 1
				queue[tail] = v
				tail++
			}
		}
	}
}

// AllPairsHops returns the min-hop distance matrix as [src][dst] hop
// counts (-1 when unreachable).
func AllPairsHops(g *topology.Graph) [][]int {
	n := g.NumNodes()
	m := make([][]int, n)
	queue := make([]topology.NodeID, n)
	for s := range m {
		m[s] = make([]int, n)
		HopsInto(g, topology.NodeID(s), topology.NoLink, m[s], queue)
	}
	return m
}
