package main

// The -shards mode: run the conservative-sync sharded simulator on a
// generated large topology instead of the Table 1 study.
//
//	arpanetsim -shards 4 -topology hier:32x32 -seconds 30
//	arpanetsim -shards 2 -topology waxman:500 -rate 2 -dests 4
//	arpanetsim -shards 4 -topology hier:32x32 -adaptive -metric hnspf
//
// By default the sharded runner uses static per-epoch routing; -adaptive
// switches it to the full measurement → flood → incremental-SPF plane
// under the chosen -metric, which is how the hier:32x32 Table-1-style
// study in EXPERIMENTS.md is produced. BF-1969 is a distance-vector
// protocol implemented only by the packet-level engine, so that leg runs
// unsharded over the identical offered traffic.
//
// -scenario, -background and the Table 1 study's flags (-traffic, -growth,
// -warmup, -seeds, -json, -background-epoch) are rejected in this mode, as
// is -metric without -adaptive.

import (
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// parseGenTopology builds a generated topology from a "hier:RxP" or
// "waxman:N" spec.
func parseGenTopology(spec string, seed int64) (*topology.Graph, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("topology %q: want hier:<regions>x<perRegion> or waxman:<nodes>", spec)
	}
	switch kind {
	case "hier":
		rs, ps, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("topology %q: want hier:<regions>x<perRegion>", spec)
		}
		regions, err := strconv.Atoi(rs)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %v", spec, err)
		}
		per, err := strconv.Atoi(ps)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %v", spec, err)
		}
		if regions < 2 || per < 3 {
			return nil, fmt.Errorf("topology %q: need >= 2 regions and >= 3 nodes per region", spec)
		}
		return topology.Hierarchical(regions, per, seed), nil
	case "waxman":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %v", spec, err)
		}
		if n < 2 {
			return nil, fmt.Errorf("topology %q: need >= 2 nodes", spec)
		}
		return topology.Waxman(n, 0.6, 0.12, seed, topology.T56, topology.T112), nil
	default:
		return nil, fmt.Errorf("topology %q: unknown generator %q (want hier or waxman)", spec, kind)
	}
}

// tableOnlyFlags are the Table 1 study's flags, which the sharded runner
// has no use for; shardOnlyFlags are the reverse.
var (
	tableOnlyFlags = []string{"traffic", "growth", "warmup", "seeds", "json", "background-epoch"}
	shardOnlyFlags = []string{"rate", "dests", "radius"}
)

// checkShardFlags rejects flag combinations that would otherwise be
// ignored without a word: the sharded runner has no fault scripts, no
// fluid background and none of the Table 1 study's knobs, its static
// routing takes no -metric, and -adaptive and its traffic knobs exist only
// for it. set holds the flags given explicitly on the command line.
func checkShardFlags(shards int, adaptive bool, metric, scenario string, backgroundK float64, set map[string]bool) error {
	if shards <= 0 {
		if adaptive {
			return errors.New("-adaptive requires -shards (the Table 1 study is always adaptive)")
		}
		for _, f := range shardOnlyFlags {
			if set[f] {
				return fmt.Errorf("-%s requires -shards (it sets the sharded runner's traffic)", f)
			}
		}
		if set["background-epoch"] && backgroundK == 0 {
			return errors.New("-background-epoch requires -background (there is no fluid background to re-route)")
		}
		return nil
	}
	switch {
	case scenario != "":
		return errors.New("-scenario cannot be combined with -shards (fault scripts run on the Table 1 engine only)")
	case backgroundK != 0:
		return errors.New("-background cannot be combined with -shards (the fluid background runs on the Table 1 engine only)")
	case !adaptive && metric != "both":
		return fmt.Errorf("-metric %s requires -adaptive with -shards (static routing uses fixed link costs)", metric)
	}
	for _, f := range tableOnlyFlags {
		if set[f] {
			return fmt.Errorf("-%s cannot be combined with -shards (it applies to the Table 1 study only)", f)
		}
	}
	return nil
}

func runSharded(shards int, topoSpec string, rate float64, dests, radius int, seconds float64, seed int64, adaptive bool, metricName string) {
	g, err := parseGenTopology(topoSpec, seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg := shard.Config{
		Graph:      g,
		Shards:     shards,
		Seed:       seed,
		PktRate:    rate,
		Dests:      dests,
		DestRadius: radius,
	}
	if adaptive {
		switch metricName {
		case "hnspf":
			cfg.Metric = node.HNSPF
		case "dspf", "both": // "both" is the Table-1-study default; D-SPF here
			cfg.Metric = node.DSPF
		case "minhop":
			cfg.Metric = node.MinHop
		case "bf1969":
			runShardedBF1969(g, cfg, seconds)
			return
		default:
			log.Fatalf("unknown -metric %q for -adaptive (want hnspf, dspf, minhop, or bf1969)", metricName)
		}
		cfg.Adaptive = true
	}
	s, err := shard.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sharded run: %d nodes, %d trunks, %d shards", g.NumNodes(), g.NumTrunks(), shards)
	if adaptive {
		fmt.Printf(", adaptive %v", cfg.Metric)
	}
	if la := s.Lookahead(); la > 0 {
		fmt.Printf(", lookahead %v", la)
	}
	fmt.Println()
	s.Run(sim.FromSeconds(seconds))
	if err := s.Audit(); err != nil {
		log.Fatalf("conservation audit failed: %v", err)
	}
	fmt.Print(s.Report().String())
	fmt.Printf("events      %d\n", s.Fired())
}

// runShardedBF1969 is the BF-1969 leg of the large-topology study. The 1969
// metric is distance-vector — periodic neighbor table exchanges, not
// link-state floods — and only the packet-level engine implements it, so it
// runs on one kernel. To stay comparable, it offers the exact traffic the
// sharded runs do: a throwaway static shard.Sim draws the per-node
// destination sets from the same seed, and the matrix reproduces the
// sharded source rate exactly (network divides the matrix total by the
// clamped mean packet size to recover pkt/s).
func runShardedBF1969(g *topology.Graph, cfg shard.Config, seconds float64) {
	cfg.Shards = 1
	probe, err := shard.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := traffic.NewMatrix(g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		ds := probe.DestsOf(topology.NodeID(id))
		for _, d := range ds {
			m.Set(topology.NodeID(id), d, cfg.PktRate*network.ClampedMeanPktBits()/float64(len(ds)))
		}
	}
	fmt.Printf("unsharded run: %d nodes, %d trunks, Bellman-Ford 1969 (distance-vector; no shard barrier)\n",
		g.NumNodes(), g.NumTrunks())
	n := network.New(network.Config{Graph: g, Matrix: m, Metric: node.BF1969, Seed: cfg.Seed})
	n.Run(sim.FromSeconds(seconds))
	if err := n.Conservation().Err(); err != nil {
		log.Fatalf("conservation audit failed: %v", err)
	}
	fmt.Print(n.Report().String())
}
