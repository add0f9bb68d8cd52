package spf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// diamond builds A-B-D / A-C-D with configurable costs:
//
//	A --ab--> B --bd--> D
//	A --ac--> C --cd--> D
func diamond() (*topology.Graph, map[string]topology.LinkID) {
	g := topology.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	c, d := g.AddNode("C"), g.AddNode("D")
	ids := map[string]topology.LinkID{}
	ids["ab"], ids["ba"] = g.AddTrunk(a, b, topology.T56)
	ids["ac"], ids["ca"] = g.AddTrunk(a, c, topology.T56)
	ids["bd"], ids["db"] = g.AddTrunk(b, d, topology.T56)
	ids["cd"], ids["dc"] = g.AddTrunk(c, d, topology.T56)
	return g, ids
}

func unit(topology.LinkID) float64 { return 1 }

func TestComputeLine(t *testing.T) {
	g := topology.Line(4, topology.T56)
	tree := Compute(g, 0, unit)
	if tree.Root() != 0 {
		t.Error("root wrong")
	}
	for d := 0; d < 4; d++ {
		if got := tree.Dist(topology.NodeID(d)); got != float64(d) {
			t.Errorf("Dist(%d) = %v, want %d", d, got, d)
		}
		if got := tree.Hops(g, topology.NodeID(d)); got != d {
			t.Errorf("Hops(%d) = %v, want %d", d, got, d)
		}
	}
	// Next hop toward every non-root node is the single outgoing link 0→1.
	first, _ := g.FindTrunk(0, 1)
	for d := 1; d < 4; d++ {
		if tree.NextHop(topology.NodeID(d)) != first {
			t.Errorf("NextHop(%d) should be the 0→1 link", d)
		}
	}
	if tree.NextHop(0) != topology.NoLink {
		t.Error("NextHop(root) should be NoLink")
	}
	if tree.Hops(g, 0) != 0 {
		t.Error("Hops(root) should be 0")
	}
}

func TestComputeRespectsCosts(t *testing.T) {
	g, ids := diamond()
	d := g.MustLookup("D")
	// Make the B route expensive: traffic must go via C.
	cost := func(l topology.LinkID) float64 {
		if l == ids["ab"] || l == ids["ba"] {
			return 10
		}
		return 1
	}
	tree := Compute(g, g.MustLookup("A"), cost)
	if got := tree.Dist(d); got != 2 {
		t.Errorf("Dist(D) = %v, want 2 (via C)", got)
	}
	if tree.NextHop(d) != ids["ac"] {
		t.Error("path should start with A→C")
	}
	path := tree.Path(g, d)
	if len(path) != 2 || path[0] != ids["ac"] || path[1] != ids["cd"] {
		t.Errorf("Path = %v, want [ac cd]", path)
	}
	if !tree.UsesLink(g, d, ids["cd"]) || tree.UsesLink(g, d, ids["bd"]) {
		t.Error("UsesLink wrong")
	}
}

func TestComputeDeterministicTieBreak(t *testing.T) {
	g, _ := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	// Equal costs: two 2-hop paths. The choice must be stable across runs.
	t1 := Compute(g, a, unit)
	for i := 0; i < 10; i++ {
		t2 := Compute(g, a, unit)
		if t1.NextHop(d) != t2.NextHop(d) {
			t.Fatal("tie-breaking is not deterministic")
		}
	}
}

func TestComputePanicsOnBadCost(t *testing.T) {
	g := topology.Line(2, topology.T56)
	for name, c := range map[string]float64{
		"zero": 0, "negative": -1, "nan": math.NaN(), "inf": math.Inf(1),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("cost %v should panic", c)
				}
			}()
			Compute(g, 0, func(topology.LinkID) float64 { return c })
		})
	}
}

func TestUnreachable(t *testing.T) {
	// Build a connected graph then make one node unreachable is impossible
	// via builders; use two components through a direct graph.
	g := topology.New()
	g.AddNode("A")
	g.AddNode("B")
	g.AddNode("C")
	g.AddTrunk(0, 1, topology.T56)
	// C is isolated.
	tree := Compute(g, 0, unit)
	if tree.Reachable(2) {
		t.Error("isolated node should be unreachable")
	}
	if tree.Hops(g, 2) != -1 {
		t.Error("Hops to unreachable should be -1")
	}
	if tree.Path(g, 2) != nil {
		t.Error("Path to unreachable should be nil")
	}
	if tree.UsesLink(g, 2, 0) {
		t.Error("UsesLink to unreachable should be false")
	}
}

func TestTreeHereditary(t *testing.T) {
	// §4.1: "shortest-paths are hereditary (every subpath of a shortest
	// path is also a shortest path)". Check on the ARPANET graph: for every
	// destination, the path through parent p has Dist(p) + cost(parent
	// link) == Dist(d).
	g := topology.Arpanet()
	cost := func(l topology.LinkID) float64 { return 1 + float64(l%7) }
	tree := Compute(g, 0, cost)
	for d := 1; d < g.NumNodes(); d++ {
		dst := topology.NodeID(d)
		pl := tree.Parent(dst)
		p := g.Link(pl).From
		if math.Abs(tree.Dist(p)+cost(pl)-tree.Dist(dst)) > 1e-9 {
			t.Errorf("subpath optimality violated at node %d", d)
		}
	}
}

func TestInTree(t *testing.T) {
	g := topology.Line(3, topology.T56)
	tree := Compute(g, 0, unit)
	l01, _ := g.FindTrunk(0, 1)
	l10 := g.Link(l01).Reverse()
	if !tree.InTree(l01) {
		t.Error("forward link should be in tree")
	}
	if tree.InTree(l10) {
		t.Error("reverse link should not be in tree rooted at 0")
	}
}

func TestAllPairsHops(t *testing.T) {
	g := topology.Ring(6, topology.T56)
	m := AllPairsHops(g)
	if m[0][3] != 3 {
		t.Errorf("opposite nodes on a 6-ring = %d hops, want 3", m[0][3])
	}
	if m[0][1] != 1 || m[0][5] != 1 {
		t.Error("ring neighbors should be 1 hop")
	}
	if m[2][2] != 0 {
		t.Error("self distance should be 0")
	}
	// Symmetry for a symmetric topology.
	for s := range m {
		for d := range m[s] {
			if m[s][d] != m[d][s] {
				t.Errorf("asymmetric hop count %d→%d", s, d)
			}
		}
	}
}

// TestHopsIntoMatchesDijkstra: with every link but skip at cost 1 and skip
// priced above any simple path, Dijkstra's distances are the breadth-first
// hop counts, -1 where only the skipped link reaches a node. Checked from
// every root, for no skip and for each link in turn.
func TestHopsIntoMatchesDijkstra(t *testing.T) {
	for _, g := range []*topology.Graph{topology.Arpanet(), topology.Line(5, topology.T56), topology.Random(20, 2.5, 3)} {
		n := g.NumNodes()
		huge := float64(10 * n)
		dist, queue := make([]int, n), make([]topology.NodeID, n)
		ws := NewWorkspace()
		for skip := topology.NoLink; int(skip) < g.NumLinks(); skip++ {
			cost := func(l topology.LinkID) float64 {
				if l == skip {
					return huge
				}
				return 1
			}
			for root := 0; root < n; root++ {
				HopsInto(g, topology.NodeID(root), skip, dist, queue)
				tree := ComputeInto(ws, g, topology.NodeID(root), cost)
				for v, h := range dist {
					want := tree.Dist(topology.NodeID(v))
					if want >= huge {
						want = -1
					}
					if float64(h) != want {
						t.Fatalf("%d nodes, skip %d: hops %d→%d = %d, Dijkstra %v", n, skip, root, v, h, want)
					}
				}
			}
		}
	}
}

// TestHopsIntoAllocFree: the search runs entirely in caller scratch.
func TestHopsIntoAllocFree(t *testing.T) {
	g := topology.Arpanet()
	dist, queue := make([]int, g.NumNodes()), make([]topology.NodeID, g.NumNodes())
	if a := testing.AllocsPerRun(100, func() { HopsInto(g, 3, 7, dist, queue) }); a != 0 {
		t.Errorf("HopsInto allocates %v times per search", a)
	}
}

// Property: Dijkstra on random graphs satisfies the triangle inequality
// dist(d) <= dist(u) + cost(u→d) for every link.
func TestDijkstraProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := topology.Random(12, 3, seed)
		cost := func(l topology.LinkID) float64 { return 1 + float64((int64(l)*seed%7+7)%7) }
		tree := Compute(g, 0, cost)
		for _, l := range g.Links() {
			if tree.Dist(l.To) > tree.Dist(l.From)+cost(l.ID)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
