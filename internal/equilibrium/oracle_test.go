package equilibrium

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// dijkstraLink is the reference per-link pass: it prices L out with a cost
// larger than any simple path, runs a weighted Dijkstra from the link head
// and from every source, maps distances that had to cross L back to +Inf,
// and applies the w* formula to every source-destination pair.
func dijkstraLink(g *topology.Graph, m *traffic.Matrix, lid topology.LinkID) ([]routeStat, float64) {
	n := g.NumNodes()
	huge := float64(10 * n)
	cost := func(l topology.LinkID) float64 {
		if l == lid {
			return huge
		}
		return 1
	}
	clean := func(d float64) float64 {
		if d >= huge {
			return math.Inf(1)
		}
		return d
	}
	link := g.Link(lid)
	ws := spf.NewWorkspace()
	fromV := make([]float64, n)
	tv := spf.ComputeInto(ws, g, link.To, cost)
	for t := range fromV {
		fromV[t] = clean(tv.Dist(topology.NodeID(t)))
	}
	var routes []routeStat
	var base float64
	for s := 0; s < n; s++ {
		ts := spf.ComputeInto(ws, g, topology.NodeID(s), cost)
		toU := clean(ts.Dist(link.From))
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			rate := m.Rate(topology.NodeID(s), topology.NodeID(t))
			if rate <= 0 {
				continue
			}
			dst := clean(ts.Dist(topology.NodeID(t)))
			a := toU + fromV[t]
			if math.IsInf(dst, 1) && math.IsInf(a, 1) {
				continue
			}
			wstar := dst - a
			if wstar < 1 {
				continue
			}
			routes = append(routes, routeStat{shedAt: wstar, length: int(a) + 1, rate: rate})
			base += rate
		}
	}
	sort.SliceStable(routes, func(a, b int) bool { return routes[a].shedAt < routes[b].shedAt })
	return routes, base
}

// bridged is a 5-ring with a 3-node tail hanging off node 0 and a second
// 4-ring joined to the tail's end by one trunk: every tail trunk is a
// bridge, so some thresholds are +Inf.
func bridged() *topology.Graph {
	g := topology.New()
	node := func(i int) topology.NodeID { return g.AddNode(fmt.Sprintf("N%d", i)) }
	ids := make([]topology.NodeID, 12)
	for i := range ids {
		ids[i] = node(i)
	}
	for i := 0; i < 5; i++ {
		g.AddTrunk(ids[i], ids[(i+1)%5], topology.T56)
	}
	g.AddTrunk(ids[0], ids[5], topology.T56)
	g.AddTrunk(ids[5], ids[6], topology.T56)
	g.AddTrunk(ids[6], ids[7], topology.T56)
	g.AddTrunk(ids[7], ids[8], topology.T56)
	for i := 8; i < 12; i++ {
		g.AddTrunk(ids[i], ids[8+(i-7)%4], topology.T56)
	}
	return g
}

// hier96 is the 96-node hierarchical map and jittered uniform demand the
// section-5 benchmark workload analyses.
func hier96() (*topology.Graph, *traffic.Matrix) {
	g := topology.Hierarchical(8, 12, 1)
	return g, traffic.Uniform(g, 400000).Perturb(rand.New(rand.NewSource(4242)), 0.5)
}

// TestBuildMatchesDijkstraOracle: the hop-count build must reproduce the
// weighted-Dijkstra formula bit for bit — every link's routes (threshold,
// length, rate, order) and base traffic.
func TestBuildMatchesDijkstraOracle(t *testing.T) {
	type tc struct {
		name string
		g    *topology.Graph
		m    *traffic.Matrix
	}
	hg, hm := hier96()
	bg := bridged()
	cases := []tc{
		{"arpanet1987", topology.Arpanet(), traffic.Gravity(topology.Arpanet(), topology.ArpanetWeights(), 400000)},
		{"milnet", topology.Milnet(), traffic.Gravity(topology.Milnet(), topology.MilnetWeights(), 400000)},
		{"hier96", hg, hm},
		{"bridged", bg, traffic.Uniform(bg, 100000)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mo := New(c.g, c.m)
			infs := 0
			for li := range mo.routes {
				routes, base := dijkstraLink(c.g, c.m, topology.LinkID(li))
				if !reflect.DeepEqual(mo.routes[li], routes) {
					t.Fatalf("link %d: routes differ from the Dijkstra oracle:\n got %v\nwant %v", li, mo.routes[li], routes)
				}
				if mo.base[li] != base {
					t.Fatalf("link %d: base %v, oracle %v", li, mo.base[li], base)
				}
				for _, r := range routes {
					if math.IsInf(r.shedAt, 1) {
						infs++
					}
				}
			}
			if c.name == "bridged" && infs == 0 {
				t.Fatal("bridged graph produced no +Inf threshold")
			}
		})
	}
}
