package main

import (
	"strings"
	"testing"
)

func TestCheckShardFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shards     int
		adaptive   bool
		metric     string
		scenario   string
		background float64
		set        []string // flags given explicitly
		wantErr    string   // "" = accepted
	}{
		{"table1 default", 0, false, "both", "", 0, nil, ""},
		{"table1 metric, scenario, background", 0, false, "hnspf", "x.scn", 28000, nil, ""},
		{"table1 study flags", 0, false, "both", "", 28000,
			[]string{"traffic", "growth", "warmup", "seeds", "json", "background", "background-epoch"}, ""},
		{"adaptive without shards", 0, true, "hnspf", "", 0, nil, "-adaptive requires -shards"},
		{"rate without shards", 0, false, "both", "", 0, []string{"rate"}, "-rate requires -shards"},
		{"dests without shards", 0, false, "both", "", 0, []string{"dests"}, "-dests requires -shards"},
		{"radius without shards", 0, false, "both", "", 0, []string{"radius"}, "-radius requires -shards"},
		{"background-epoch without background", 0, false, "both", "", 0,
			[]string{"background-epoch"}, "-background-epoch requires -background"},
		{"background-epoch with explicit zero background", 0, false, "both", "", 0,
			[]string{"background", "background-epoch"}, "-background-epoch requires -background"},
		{"static shards", 2, false, "both", "", 0, nil, ""},
		{"shards traffic flags", 2, false, "both", "", 0, []string{"rate", "dests", "radius", "seed", "seconds", "topology"}, ""},
		{"adaptive shards", 2, true, "hnspf", "", 0, nil, ""},
		{"adaptive shards, default metric", 2, true, "both", "", 0, nil, ""},
		{"static shards with metric", 2, false, "hnspf", "", 0, nil, "-metric hnspf requires -adaptive"},
		{"static shards with unknown metric", 2, false, "nosuch", "", 0, nil, "-metric nosuch requires -adaptive"},
		{"shards with scenario", 2, true, "hnspf", "x.scn", 0, nil, "-scenario cannot be combined with -shards"},
		{"shards with background", 2, false, "both", "", 28000, nil, "-background cannot be combined with -shards"},
		{"shards with traffic", 2, false, "both", "", 0, []string{"traffic"}, "-traffic cannot be combined with -shards"},
		{"shards with growth", 2, true, "hnspf", "", 0, []string{"growth"}, "-growth cannot be combined with -shards"},
		{"shards with warmup", 2, false, "both", "", 0, []string{"warmup"}, "-warmup cannot be combined with -shards"},
		{"shards with seeds", 2, false, "both", "", 0, []string{"seeds"}, "-seeds cannot be combined with -shards"},
		{"shards with json", 2, false, "both", "", 0, []string{"json"}, "-json cannot be combined with -shards"},
		{"shards with background-epoch", 2, false, "both", "", 0,
			[]string{"background-epoch"}, "-background-epoch cannot be combined with -shards"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := checkShardFlags(tc.shards, tc.adaptive, tc.metric, tc.scenario, tc.background, set)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("error = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}
