// Command perfbench is the repository benchmark. One invocation runs one
// workload, in one process, as a closed loop of operations, one at a time:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it times the workload and prints the end-to-end metrics;
// with --trace 1 it makes the separate traced run that prints the
// per-layer metrics. Every operation's output is checked, and a failed
// check counts as a failed operation without stopping the run. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The workload seed generates every input (topology, traffic, engine
// seed); the engines see only those inputs. See README.md for the
// workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // wall-clock budget of the timed loop
	// plant corrupts the ledger snapshot of the first operation, so the
	// self-test can show that an unbalanced ledger is counted as a failed
	// operation. Never set by the command line.
	plant bool
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	ops    ops
	values map[string]float64
	fp     *fingerprint
}

type metricSpec struct{ name, unit string }

// The end-to-end metrics, printed by every --trace 0 run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pkts_per_s", "pkts/s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"peak_heap_mb", "MB"},
}

// The per-layer metrics, printed by every --trace 1 run. A layer a
// workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	{"sim.events_per_op", "events"},
	{"sim.events_per_pkt", "events/pkt"},
	{"sim.ns_per_event", "ns"},
	{"network.offered", "pkts"},
	{"network.delivered_ratio", "ratio"},
	{"network.buffer_drops", "pkts"},
	{"network.update_tx", "copies"},
	{"network.spf_recomputes", "count"},
	{"costmod.updates", "count"},
	{"costmod.report_ratio", "ratio"},
	{"costmod.ns_per_update", "ns"},
	{"flooding.originated", "count"},
	{"flooding.copies", "copies"},
	{"flooding.dup_ratio", "ratio"},
	{"flooding.ns_per_copy", "ns"},
	{"spf.batches", "count"},
	{"spf.incremental_ratio", "ratio"},
	{"spf.skip_ratio", "ratio"},
	{"spf.touched_per_batch", "nodes"},
	{"spf.ns_per_batch", "ns"},
	{"spf.compute_ns", "ns"},
	{"shard.cpu_per_wall", "ratio"},
	{"shard.speedup", "ratio"},
	{"shard.lookahead_ms", "ms"},
	{"shard.cut_trunks", "count"},
	{"equilibrium.build_s", "s"},
	{"equilibrium.query_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_event", "allocs"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill in
// the layers it exercises.
func zeroLayers() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		v[s.name] = 0
	}
	return v
}

// workload is one benchmark workload: its timing run and its traced run.
type workload struct {
	timed  func(config) outcome
	traced func(config) outcome
}

var workloads = map[string]workload{
	"table1-arpanet":  {timeTable1, traceTable1},
	"hier1k-hnspf":    {timeHier1k, traceHier1k},
	"section5-hier96": {timeSection5, traceSection5},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the arguments, runs the workload and prints its report; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; generates every input")
	seconds := fs.Float64("seconds", 25, "wall-clock seconds the timed loop runs")
	trace := fs.Int("trace", 0, "0 = end-to-end timing run, 1 = traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds}
	specs, runFn := endToEnd, w.timed
	if *trace == 1 {
		specs, runFn = perLayer, w.traced
	}
	out := runFn(cfg)
	if err := report(stdout, *name, cfg, *trace, specs, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable lines and, last, the JSON result. Every
// metric in specs must have been measured, and nothing else.
func report(w io.Writer, name string, cfg config, trace int, specs []metricSpec, out outcome) error {
	if len(out.values) != len(specs) {
		return fmt.Errorf("%s measured %d metrics, want %d", name, len(out.values), len(specs))
	}
	res := jsonResult{
		Correct:   out.ops.failed == 0 && out.ops.attempted > 0,
		Attempted: out.ops.attempted,
		Failed:    out.ops.failed,
		Metrics:   map[string]jsonMetric{},
	}
	fmt.Fprintf(w, "workload %s seed=%d trace=%d seconds=%g\n", name, cfg.seed, trace, cfg.seconds)
	for _, s := range specs {
		v, ok := out.values[s.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", name, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s measured %s = %v", name, s.name, v)
		}
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
		line := fmt.Sprintf("  %-26s %14.6g %s", s.name, v, s.unit)
		if strings.HasPrefix(s.name, "op_p") {
			line += fmt.Sprintf("  (n=%d operations)", len(out.ops.durs))
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "fingerprint %s seed=%d trace=%d: %s\n", name, cfg.seed, trace, out.fp)
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", out.ops.attempted, out.ops.failed)
	if out.ops.firstErr != nil {
		fmt.Fprintf(w, "first failed check: %v\n", out.ops.firstErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}
