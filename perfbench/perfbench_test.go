package main

// The benchmark's self-test: each workload runs briefly in both modes, and
// the printed result must match BENCHMARK.json's contract; a planted
// unbalanced ledger must be counted as a failed operation.
//
//	cd perfbench && go test .

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	var names []string
	for _, w := range loadBenchmarkFile(t).Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Fatalf("workloads %s, BENCHMARK.json lists %s", got, want)
	}
}

// TestPrintedMetricsMatchBenchmarkFile runs every workload briefly, timed
// and traced, and checks the last output line against the contract.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.5", "--trace", string(rune('0' + trace))}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json lists %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%v: metric %s missing", args, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%v: metric %s unit %q, BENCHMARK.json says %q", args, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestPlantedImbalanceCountsAsFailure corrupts one operation's ledger
// snapshot in each simulation workload: exactly that operation must fail
// and the run must go on.
func TestPlantedImbalanceCountsAsFailure(t *testing.T) {
	for _, tc := range []struct {
		name    string
		run     func(config) outcome
		seconds float64 // enough for several operations after set-up
	}{
		{"table1-arpanet", timeTable1, 0.5},
		{"hier1k-hnspf", timeHier1k, 6},
	} {
		out := tc.run(config{seed: 3, seconds: tc.seconds, plant: true})
		if out.ops.failed != 1 || out.ops.attempted < 2 {
			t.Errorf("%s: attempted=%d failed=%d, want one failure among several operations (first error: %v)",
				tc.name, out.ops.attempted, out.ops.failed, out.ops.firstErr)
		}
		if out.ops.firstErr == nil || !strings.Contains(out.ops.firstErr.Error(), "violated") {
			t.Errorf("%s: first error %v does not name the ledger", tc.name, out.ops.firstErr)
		}
	}
}
