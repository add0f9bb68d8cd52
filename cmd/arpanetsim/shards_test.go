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
		wantErr    string // "" = accepted
	}{
		{"table1 default", 0, false, "both", "", 0, ""},
		{"table1 metric, scenario, background", 0, false, "hnspf", "x.scn", 28000, ""},
		{"adaptive without shards", 0, true, "hnspf", "", 0, "-adaptive requires -shards"},
		{"static shards", 2, false, "both", "", 0, ""},
		{"adaptive shards", 2, true, "hnspf", "", 0, ""},
		{"adaptive shards, default metric", 2, true, "both", "", 0, ""},
		{"static shards with metric", 2, false, "hnspf", "", 0, "-metric hnspf requires -adaptive"},
		{"static shards with unknown metric", 2, false, "nosuch", "", 0, "-metric nosuch requires -adaptive"},
		{"shards with scenario", 2, true, "hnspf", "x.scn", 0, "-scenario cannot be combined with -shards"},
		{"shards with background", 2, false, "both", "", 28000, "-background cannot be combined with -shards"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkShardFlags(tc.shards, tc.adaptive, tc.metric, tc.scenario, tc.background)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("error = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}
