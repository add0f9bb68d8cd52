// Command arpanetlint runs the domain-aware static-analysis suite of
// internal/analysis over the repository: determinism (detdrift, now
// interprocedural), pool-safety (poolsafe), sim.Handle discipline
// (handlecheck), float comparison hygiene (floatexact), domain error
// checking (errcheck-lite, with auto-fix), hot-path allocation freedom
// (allocfree) and shard-barrier invariants (shardsafe).
//
//	arpanetlint ./...                   # whole repo (the CI lint job)
//	arpanetlint -rules detdrift ./internal/sim
//	arpanetlint -json ./... > lint.json
//	arpanetlint -list                   # one-line rule catalog
//	arpanetlint -explain allocfree      # long-form rule documentation
//	arpanetlint -diff ./...             # dry-run: show auto-fixes as a diff
//	arpanetlint -fix ./...              # apply auto-fixes in place
//	arpanetlint -schema                 # print the -json schema version
//
// Findings go to stdout as file:line:col: rule: message (hint); the exit
// status is 1 when anything is found (including package load errors),
// 2 on a driver error (bad flag, unknown rule, no module), and 0 on a
// clean tree. Suppress an intentional site with
// "// lint:ignore <rule> <reason>" on the line or the line above; a
// deliberate hot-path allocation takes "// lint:alloc <reason>". Stale
// or malformed suppressions are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arpanetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit the machine-readable result schema")
		ruleList = fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
		list     = fs.Bool("list", false, "print the rule catalog and exit")
		explain  = fs.String("explain", "", "print long-form documentation for a rule (or 'all') and exit")
		fix      = fs.Bool("fix", false, "apply machine-applicable fixes in place")
		diff     = fs.Bool("diff", false, "dry run: print machine-applicable fixes as a diff, change nothing")
		schema   = fs.Bool("schema", false, "print the -json schema version and exit")
		chdir    = fs.String("C", "", "run as if started in this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *schema {
		fmt.Fprintln(stdout, analysis.ResultVersion)
		return 0
	}
	if *list {
		for _, r := range analysis.AllRules() {
			fmt.Fprintf(stdout, "%-14s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	if *explain != "" {
		return explainRules(*explain, stdout, stderr)
	}
	dir := *chdir
	if dir == "" {
		dir = "."
	}
	var names []string
	if *ruleList != "" {
		for _, n := range strings.Split(*ruleList, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	patterns := fs.Args()
	l, err := analysis.NewLoader(dir)
	if err != nil {
		fmt.Fprintf(stderr, "arpanetlint: %v\n", err)
		return 2
	}
	res, err := analysis.AnalyzeWith(l, patterns, names)
	if err != nil {
		fmt.Fprintf(stderr, "arpanetlint: %v\n", err)
		return 2
	}
	if *fix || *diff {
		return applyFixes(l.Root, res, *fix, stdout, stderr)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "arpanetlint: %v\n", err)
			return 2
		}
	} else {
		for _, e := range res.Errors {
			fmt.Fprintf(stdout, "load error: %s\n", e)
		}
		for _, d := range res.Findings {
			fmt.Fprintln(stdout, d.String())
		}
		if !res.Clean() {
			fmt.Fprintf(stdout, "arpanetlint: %d finding(s), %d load error(s)\n",
				len(res.Findings), len(res.Errors))
		}
	}
	if res.Clean() {
		return 0
	}
	return 1
}

// explainRules prints the long-form documentation for one rule, a
// comma-separated list, or 'all'.
func explainRules(sel string, stdout, stderr io.Writer) int {
	byName := map[string]analysis.Rule{}
	var order []string
	for _, r := range analysis.AllRules() {
		byName[r.Name()] = r
		order = append(order, r.Name())
	}
	var names []string
	if sel == "all" {
		names = order
	} else {
		for _, n := range strings.Split(sel, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	for i, n := range names {
		r, ok := byName[n]
		if !ok {
			fmt.Fprintf(stderr, "arpanetlint: unknown rule %q (try -list)\n", n)
			return 2
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%s — %s\n", r.Name(), r.Doc())
		if ex, ok := r.(analysis.Explainer); ok {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, ex.Explain())
		}
	}
	return 0
}

// applyFixes runs the -fix / -diff tail: collect fixes from the findings,
// then either write them (-fix) or print them as a diff (-diff). The exit
// status still reflects the findings, so -fix in CI fails the build while
// leaving the remediation behind.
func applyFixes(root string, res analysis.Result, write bool, stdout, stderr io.Writer) int {
	files, n, err := analysis.ApplyFixes(root, res.Findings)
	if err != nil {
		fmt.Fprintf(stderr, "arpanetlint: %v\n", err)
		return 2
	}
	if write {
		if err := analysis.WriteFixes(root, files); err != nil {
			fmt.Fprintf(stderr, "arpanetlint: %v\n", err)
			return 2
		}
		var names []string
		for f := range files {
			names = append(names, f)
		}
		sort.Strings(names)
		for _, f := range names {
			fmt.Fprintf(stdout, "fixed: %s\n", f)
		}
	} else {
		d, err := analysis.DiffFixes(root, files)
		if err != nil {
			fmt.Fprintf(stderr, "arpanetlint: %v\n", err)
			return 2
		}
		fmt.Fprint(stdout, d)
	}
	fixable := n
	fmt.Fprintf(stdout, "arpanetlint: %d finding(s), %d auto-fixable, %d load error(s)\n",
		len(res.Findings), fixable, len(res.Errors))
	if res.Clean() {
		return 0
	}
	return 1
}
