package spf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func unitCosts(g *topology.Graph) []float64 { return fill(g, 1) }

func fill(g *topology.Graph, c float64) []float64 {
	cs := make([]float64, g.NumLinks())
	for i := range cs {
		cs[i] = c
	}
	return cs
}

// TestIncrementalMatchesScratchSimple drives the diamond through batches
// of cost changes; after every batch the repaired tree must agree with a
// from-scratch Dijkstra and route A→D the expected way.
func TestIncrementalMatchesScratchSimple(t *testing.T) {
	type batch struct {
		links   []string
		costs   []float64
		dist    float64
		nextHop string
	}
	for _, tc := range []struct {
		name    string
		batches []batch
	}{
		// Price the in-tree B path up, then lower it below the C path.
		{"raise then lower B path", []batch{
			{[]string{"ab", "bd"}, []float64{10, 10}, 2, "ac"},
			{[]string{"ab", "bd"}, []float64{0.4, 0.4}, 0.8, "ab"},
		}},
		// A single strong decrease pulls the route back to B.
		{"strong decrease re-attracts", []batch{
			{[]string{"ab"}, []float64{10}, 2, "ac"},
			{[]string{"ab"}, []float64{0.1}, 1.1, "ab"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ids := diamond()
			a, d := g.MustLookup("A"), g.MustLookup("D")
			r := NewIncrementalRouter(g, a, unitCosts(g))
			costs := unitCosts(g)
			if r.Tree().Dist(d) != 2 {
				t.Fatalf("initial dist = %v", r.Tree().Dist(d))
			}
			for i, b := range tc.batches {
				links := make([]topology.LinkID, len(b.links))
				for j, name := range b.links {
					links[j] = ids[name]
					costs[ids[name]] = b.costs[j]
				}
				r.UpdateBatch(links, b.costs)
				scratch := Compute(g, a, func(l topology.LinkID) float64 { return costs[l] })
				for n := 0; n < g.NumNodes(); n++ {
					if got, want := r.Tree().Dist(topology.NodeID(n)), scratch.Dist(topology.NodeID(n)); math.Abs(got-want) > 1e-12 {
						t.Errorf("batch %d: dist(%d) = %v, scratch says %v", i, n, got, want)
					}
				}
				if got := r.Tree().Dist(d); math.Abs(got-b.dist) > 1e-12 {
					t.Errorf("batch %d: dist(D) = %v, want %v", i, got, b.dist)
				}
				if r.Tree().NextHop(d) != ids[b.nextHop] {
					t.Errorf("batch %d: route should go via %s", i, b.nextHop)
				}
			}
		})
	}
}

// skipStep is one cost update applied to a router, with the number of
// skips and incremental repairs it must add.
type skipStep struct {
	name          string
	links         []topology.LinkID
	costs         []float64
	skips, repair int64
}

// walkSkipSteps applies each step as one batch and checks the counters:
// no step may fall back to a full recomputation, and a step that repairs
// nothing must leave A's route to d where it was.
func walkSkipSteps(t *testing.T, r *IncrementalRouter, d topology.NodeID, steps []skipStep) {
	t.Helper()
	for _, step := range steps {
		full0, inc0, skip0, _ := r.Stats()
		hop0 := r.Tree().NextHop(d)
		r.UpdateBatch(step.links, step.costs)
		full, inc, skip, _ := r.Stats()
		if full != full0 {
			t.Errorf("%s: ran a full recomputation", step.name)
		}
		if inc-inc0 != step.repair || skip-skip0 != step.skips {
			t.Errorf("%s: repairs +%d skips +%d, want +%d +%d",
				step.name, inc-inc0, skip-skip0, step.repair, step.skips)
		}
		if step.repair == 0 && r.Tree().NextHop(d) != hop0 {
			t.Errorf("%s: an absorbed update moved the route", step.name)
		}
	}
}

// TestRouterIncrementalSkips walks §2.2's example on the reverse of A's
// first hop toward D: an increase on an out-of-tree link is absorbed, so
// is a decrease that cannot improve any path, and an unchanged cost is not
// even counted. The contrast case, an increase on the in-tree link, must
// repair and move the route.
func TestRouterIncrementalSkips(t *testing.T) {
	g, _ := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	r := NewIncrementalRouter(g, a, unitCosts(g))
	inTree := r.Tree().NextHop(d)
	notInTree := g.Link(inTree).Reverse()
	walkSkipSteps(t, r, d, []skipStep{
		{"out-of-tree increase", []topology.LinkID{notInTree}, []float64{5}, 1, 0},
		{"harmless decrease", []topology.LinkID{notInTree}, []float64{4}, 1, 0},
		{"unchanged cost", []topology.LinkID{notInTree}, []float64{4}, 0, 0},
		{"in-tree increase", []topology.LinkID{inTree}, []float64{10}, 0, 1},
	})
	if r.Tree().NextHop(d) == inTree {
		t.Error("route should have moved off the expensive link")
	}
}

// TestIncrementalSkipsNoEffectUpdates raises the equal-cost forward link
// into D that lost the tie: it is out of the tree, so the update is
// absorbed, and repeating it is a no-op that is not counted. Lowering it
// back to the tie is a decrease that creates no strictly shorter path: it
// is absorbed too, and D keeps its parent link.
func TestIncrementalSkipsNoEffectUpdates(t *testing.T) {
	g, ids := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	r := NewIncrementalRouter(g, a, unitCosts(g))
	unused := ids["cd"]
	if r.Tree().Parent(d) == ids["cd"] {
		unused = ids["bd"]
	}
	parent := r.Tree().Parent(d)
	walkSkipSteps(t, r, d, []skipStep{
		{"out-of-tree increase", []topology.LinkID{unused}, []float64{7}, 1, 0},
		{"unchanged cost", []topology.LinkID{unused}, []float64{7}, 0, 0},
		{"equal-cost decrease", []topology.LinkID{unused}, []float64{1}, 1, 0},
	})
	if r.Tree().Parent(d) != parent {
		t.Error("an equal-cost decrease moved D's parent link")
	}
}

// TestRouterUpdateBatch prices the whole B path up in one batch, which
// must move A's route to D onto C, and then applies a batch of pure
// no-ops, which must neither repair nor count as skipped.
func TestRouterUpdateBatch(t *testing.T) {
	g, ids := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	r := NewIncrementalRouter(g, a, unitCosts(g))
	full0, _, _, _ := r.Stats()
	before := r.Recomputes()
	r.UpdateBatch([]topology.LinkID{ids["ab"], ids["bd"]}, []float64{10, 10})
	if r.Recomputes() == before {
		t.Error("batch pricing the whole B path up must repair the tree")
	}
	if full, _, _, _ := r.Stats(); full != full0 {
		t.Error("batch should repair incrementally, not recompute from scratch")
	}
	if r.Tree().NextHop(d) != ids["ac"] {
		t.Error("route should be via C")
	}
	walkSkipSteps(t, r, d, []skipStep{
		{"no-op batch", []topology.LinkID{ids["ab"], ids["bd"], ids["cd"]}, []float64{10, 10, 1}, 0, 0},
	})
}

func TestIncrementalSubtreeDetach(t *testing.T) {
	// Line 0-1-2-3: raising link 1→2 detaches {2,3}; they must re-attach
	// through the same (now expensive) link since there is no alternative.
	g := topology.Line(4, topology.T56)
	r := NewIncrementalRouter(g, 0, unitCosts(g))
	l12, _ := g.FindTrunk(1, 2)
	r.Update(l12, 5)
	if got := r.Tree().Dist(3); got != 1+5+1 {
		t.Errorf("dist(3) = %v, want 7", got)
	}
	if !r.Tree().Reachable(3) {
		t.Error("node 3 must stay reachable")
	}
}

func TestIncrementalPanics(t *testing.T) {
	g, _ := diamond()
	r := NewIncrementalRouter(g, 0, unitCosts(g))
	for name, fn := range map[string]func(){
		"bad initial":    func() { NewIncrementalRouter(g, 0, make([]float64, g.NumLinks())) },
		"wrong len":      func() { NewIncrementalRouter(g, 0, []float64{1}) },
		"bad update":     func() { r.Update(0, math.Inf(1)) },
		"batch mismatch": func() { r.UpdateBatch([]topology.LinkID{0}, nil) },
		"batch bad cost": func() { r.UpdateBatch([]topology.LinkID{0}, []float64{math.NaN()}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		})
	}
}

// TestRouterPanics rejects negative costs, both as the initial cost of
// every link and as a single update.
func TestRouterPanics(t *testing.T) {
	g, _ := diamond()
	r := NewIncrementalRouter(g, 0, unitCosts(g))
	for name, fn := range map[string]func(){
		"bad initial": func() { NewIncrementalRouter(g, 0, fill(g, -1)) },
		"bad cost":    func() { r.Update(0, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		})
	}
}

// Property: after any sequence of single-link updates on random graphs,
// the incremental tree's distances equal a from-scratch Dijkstra, and its
// parent pointers are self-consistent (dist[from] + cost == dist[to]).
func TestIncrementalEquivalenceProperty(t *testing.T) {
	f := func(seed int64, updates []uint16) bool {
		return incrementalMatchesScratch(topology.Random(10, 2.5, seed), 1, 37, updates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the same agreement when every link starts above the cost
// floor, so the update stream mixes decreases with increases from the
// first update on.
func TestRouterMatchesScratchProperty(t *testing.T) {
	f := func(seed int64, updates []uint16) bool {
		return incrementalMatchesScratch(topology.Random(8, 2.5, seed), 3, 29, updates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func incrementalMatchesScratch(g *topology.Graph, initial float64, span uint16, updates []uint16) bool {
	r := NewIncrementalRouter(g, 0, fill(g, initial))
	costs := fill(g, initial)
	for _, u := range updates {
		l := topology.LinkID(int(u) % g.NumLinks())
		c := 1 + float64(u%span)
		r.Update(l, c)
		costs[l] = c
	}
	scratch := Compute(g, 0, func(l topology.LinkID) float64 { return costs[l] })
	for d := 0; d < g.NumNodes(); d++ {
		dst := topology.NodeID(d)
		if math.Abs(scratch.Dist(dst)-r.Tree().Dist(dst)) > 1e-9 {
			return false
		}
		if dst == 0 {
			continue
		}
		pl := r.Tree().Parent(dst)
		if pl == topology.NoLink {
			if scratch.Reachable(dst) {
				return false
			}
			continue
		}
		from := g.Link(pl).From
		if math.Abs(r.Tree().Dist(from)+costs[pl]-r.Tree().Dist(dst)) > 1e-9 {
			return false
		}
	}
	return true
}

// Property: next hops always follow a shortest path (the first link's far
// end has dist = cost of that link from the root side).
func TestIncrementalNextHopConsistencyProperty(t *testing.T) {
	f := func(seed int64, updates []uint16) bool {
		g := topology.Random(8, 3, seed)
		r := NewIncrementalRouter(g, 0, unitCosts(g))
		for _, u := range updates {
			r.Update(topology.LinkID(int(u)%g.NumLinks()), 1+float64(u%19))
		}
		t := r.Tree()
		for d := 1; d < g.NumNodes(); d++ {
			dst := topology.NodeID(d)
			if !t.Reachable(dst) {
				continue
			}
			nh := t.NextHop(dst)
			if nh == topology.NoLink || g.Link(nh).From != 0 {
				return false
			}
			// Walk parents to the root; the first hop must match NextHop.
			cur := dst
			var first topology.LinkID
			for cur != 0 {
				first = t.Parent(cur)
				cur = g.Link(first).From
			}
			if first != nh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalCheaperThanFull(t *testing.T) {
	// The point of the incremental algorithm: repairs touch fewer nodes
	// than |V| for local changes. Run many random updates on the ARPANET
	// graph and check the average repair footprint is well under a full
	// recomputation.
	g := topology.Arpanet()
	costs := make([]float64, g.NumLinks())
	for i := range costs {
		costs[i] = 30
	}
	r := NewIncrementalRouter(g, 0, costs)
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		l := topology.LinkID(rnd.Intn(g.NumLinks()))
		r.Update(l, 30+float64(rnd.Intn(60)))
	}
	full, inc, skipped, touched := r.Stats()
	if full != 1 {
		t.Errorf("full recomputations = %d, want only the initial one", full)
	}
	if inc == 0 || skipped == 0 {
		t.Errorf("expected a mix of repairs (%d) and skips (%d)", inc, skipped)
	}
	avgTouched := float64(touched) / float64(inc)
	if avgTouched >= float64(g.NumNodes()) {
		t.Errorf("average repair touched %.1f nodes — no better than full SPF (%d)",
			avgTouched, g.NumNodes())
	}
	t.Logf("repairs %d, skips %d, avg nodes touched %.1f of %d", inc, skipped, avgTouched, g.NumNodes())
}
