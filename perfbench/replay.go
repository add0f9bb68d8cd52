package main

// Replay of a captured routing-update stream through the flooding and SPF
// layers. The engines call these layers from inside their event loops, so
// the traced runs capture the exact stream of flooded updates at public
// boundaries (trace records plus the costs the cost modules reported) and
// replay it here, timing the layer calls on the workload's own inputs:
//
//   - flooding: every update floods breadth-first over all trunks (all are
//     up in these workloads), each receipt going through the receiving
//     node's flooding.Dedup.Accept and each accepted copy through
//     flooding.AppendForwardLinks, exactly the calls the engines make;
//   - spf: every node applies every update it accepted through its own
//     spf.IncrementalRouter.UpdateBatch, in origination order.
//
// One update's flood completes before the next starts, so copies of
// concurrent floods do not interleave as they do on the simulated trunks.
// Copy and duplicate counts are unaffected (sequence numbers are per
// origin and an origin's floods do not overtake each other); a node may
// apply two concurrent updates in the other order, which can change the
// size of a repair but not the resulting tree's distances.

import (
	"time"

	"repro/internal/flooding"
	"repro/internal/spf"
	"repro/internal/topology"
)

// update is one originated routing update.
type update struct {
	origin topology.NodeID
	seq    uint64
	links  []topology.LinkID
	costs  []float64
	timed  bool // originated inside the workload's timed window
}

// replayStats are the layer counts and busy times over the timed updates.
type replayStats struct {
	originated int64
	copies     int64 // update copies sent (one per forward link per accepting node)
	dups       int64 // receipts Dedup rejected
	floodSec   float64

	batches     int64 // UpdateBatch calls
	entries     int64 // link entries in those batches
	incremental int64
	skipped     int64
	touched     int64
	recomputes  int64 // full plus incremental, over every update replayed
	spfSec      float64
}

func (st replayStats) add(b replayStats) replayStats {
	return replayStats{
		originated:  st.originated + b.originated,
		copies:      st.copies + b.copies,
		dups:        st.dups + b.dups,
		floodSec:    st.floodSec + b.floodSec,
		batches:     st.batches + b.batches,
		entries:     st.entries + b.entries,
		incremental: st.incremental + b.incremental,
		skipped:     st.skipped + b.skipped,
		touched:     st.touched + b.touched,
		recomputes:  st.recomputes + b.recomputes,
		spfSec:      st.spfSec + b.spfSec,
	}
}

// apply is one node's application of one accepted update.
type apply struct {
	node topology.NodeID
	u    int32
}

// replayUpdates replays ups (in origination order, untimed updates first)
// over g, starting every router from the initial cost database.
func replayUpdates(g *topology.Graph, initial []float64, ups []update) replayStats {
	var st replayStats
	n := g.NumNodes()
	dedup := make([]*flooding.Dedup, n)
	routers := make([]*spf.IncrementalRouter, n)
	for i := range dedup {
		dedup[i] = flooding.NewDedup(n)
		routers[i] = spf.NewIncrementalRouter(g, topology.NodeID(i), initial)
	}
	firstTimed := len(ups)
	for i := range ups {
		if ups[i].timed {
			firstTimed = i
			break
		}
	}

	// Pass 1: flooding. It records who applies what for pass 2.
	var applies []apply
	var queue, fwd []topology.LinkID
	flood := func(i int) (copies, dups int64) {
		u := &ups[i]
		dedup[u.origin].Accept(u.origin, u.seq)
		applies = append(applies, apply{u.origin, int32(i)})
		fwd = flooding.AppendForwardLinks(fwd[:0], g, u.origin, topology.NoLink)
		queue = append(queue[:0], fwd...)
		copies = int64(len(fwd))
		for h := 0; h < len(queue); h++ {
			l := queue[h]
			v := g.Link(l).To
			if !dedup[v].Accept(u.origin, u.seq) {
				dups++
				continue
			}
			applies = append(applies, apply{v, int32(i)})
			fwd = flooding.AppendForwardLinks(fwd[:0], g, v, l)
			queue = append(queue, fwd...)
			copies += int64(len(fwd))
		}
		return copies, dups
	}
	for i := 0; i < firstTimed; i++ {
		flood(i)
	}
	warmApplies := len(applies)
	t0 := time.Now()
	for i := firstTimed; i < len(ups); i++ {
		c, d := flood(i)
		st.copies += c
		st.dups += d
	}
	st.floodSec = time.Since(t0).Seconds()
	st.originated = int64(len(ups) - firstTimed)

	// Pass 2: SPF, in the order pass 1 delivered the updates.
	for _, a := range applies[:warmApplies] {
		u := &ups[a.u]
		routers[a.node].UpdateBatch(u.links, u.costs)
	}
	_, inc0, skip0, touch0 := sumStats(routers)
	t0 = time.Now()
	for _, a := range applies[warmApplies:] {
		u := &ups[a.u]
		routers[a.node].UpdateBatch(u.links, u.costs)
	}
	st.spfSec = time.Since(t0).Seconds()
	full, inc, skip, touch := sumStats(routers)
	st.incremental, st.skipped, st.touched = inc-inc0, skip-skip0, touch-touch0
	st.recomputes = full + inc
	st.batches = int64(len(applies) - warmApplies)
	for _, a := range applies[warmApplies:] {
		st.entries += int64(len(ups[a.u].links))
	}
	return st
}

func sumStats(rs []*spf.IncrementalRouter) (full, incremental, skipped, touched int64) {
	for _, r := range rs {
		f, i, s, t := r.Stats()
		full += f
		incremental += i
		skipped += s
		touched += t
	}
	return
}

// layerValues fills the flooding and spf per-layer metrics from a replay.
func (st replayStats) layerValues(v map[string]float64) {
	v["flooding.originated"] = float64(st.originated)
	v["flooding.copies"] = float64(st.copies)
	v["flooding.dup_ratio"] = ratio(float64(st.dups), float64(st.copies))
	v["flooding.ns_per_copy"] = ratio(st.floodSec*1e9, float64(st.copies))
	v["spf.batches"] = float64(st.batches)
	v["spf.incremental_ratio"] = ratio(float64(st.incremental), float64(st.entries))
	v["spf.skip_ratio"] = ratio(float64(st.skipped), float64(st.entries))
	v["spf.touched_per_batch"] = ratio(float64(st.touched), float64(st.batches))
	v["spf.ns_per_batch"] = ratio(st.spfSec*1e9, float64(st.batches))
}

// fingerprint adds the replay's exact counts.
func (st replayStats) fingerprint(fp *fingerprint) {
	fp.count("flood.originated", st.originated)
	fp.count("flood.copies", st.copies)
	fp.count("flood.dups", st.dups)
	fp.count("spf.batches", st.batches)
	fp.count("spf.incremental", st.incremental)
	fp.count("spf.skipped", st.skipped)
	fp.count("spf.touched", st.touched)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// computeNs times one full Dijkstra (spf.ComputeInto) per root of g at the
// ambient cost of one per link, repeating rounds for at least 50 ms, and
// returns nanoseconds per computation.
func computeNs(g *topology.Graph) float64 {
	ws := spf.NewWorkspace()
	unit := func(topology.LinkID) float64 { return 1 }
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < 50*time.Millisecond {
		for r := 0; r < g.NumNodes(); r++ {
			spf.ComputeInto(ws, g, topology.NodeID(r), unit)
		}
		calls += g.NumNodes()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}
