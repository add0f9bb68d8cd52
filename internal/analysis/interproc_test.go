package analysis_test

// Acceptance probes for the interprocedural layer: each new rule must
// demonstrably catch a bug planted (by overlay, without touching the
// tree) in the real packages it guards, the program layer must tolerate
// broken packages, and the errcheck-lite auto-fix must round-trip to a
// clean, gofmt-stable tree.

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestInjectedHotPathAllocCaught: a closure allocation planted in a
// kernel hot function (registered via the lint:hotpath directive in the
// overlay itself) must be an allocfree finding with the exact message.
func TestInjectedHotPathAllocCaught(t *testing.T) {
	root := moduleRoot(t)
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.Overlay = map[string][]byte{
		filepath.Join(root, "internal", "sim", "zz_injected.go"): []byte(
			"package sim\n\n// lint:hotpath zzInjectedHot\n\n" +
				"func zzInjectedHot(n int) func() int {\n" +
				"\tgrow := make([]int, n)\n" +
				"\treturn func() int { return len(grow) }\n" +
				"}\n"),
	}
	res, err := analysis.AnalyzeWith(l, []string{"internal/sim"}, []string{"allocfree"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("overlay failed to load: %v", res.Errors)
	}
	want := map[string]bool{
		"hot path allocates: make([]int)":            false,
		"hot path allocates: closure capturing grow": false,
	}
	for _, d := range res.Findings {
		if d.Rule != "allocfree" || d.File != "internal/sim/zz_injected.go" {
			t.Errorf("finding outside the injected file: %s", d)
			continue
		}
		if _, ok := want[d.Message]; !ok {
			t.Errorf("unexpected message: %q", d.Message)
			continue
		}
		want[d.Message] = true
	}
	for msg, got := range want {
		if !got {
			t.Errorf("injected hot-path allocation not caught: want %q; findings %v", msg, res.Findings)
		}
	}
}

// TestInjectedPostExportMutationCaught: a write through a shared
// *flooding.Update planted in internal/shard must be a shardsafe
// finding with the exact message.
func TestInjectedPostExportMutationCaught(t *testing.T) {
	root := moduleRoot(t)
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.Overlay = map[string][]byte{
		filepath.Join(root, "internal", "shard", "zz_injected.go"): []byte(
			"package shard\n\nimport \"repro/internal/flooding\"\n\n" +
				"func zzInjectedMutate(u *flooding.Update) {\n" +
				"\tu.Costs[0] = 0\n" +
				"}\n"),
	}
	res, err := analysis.AnalyzeWith(l, []string{"internal/shard"}, []string{"shardsafe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("overlay failed to load: %v", res.Errors)
	}
	const wantMsg = "write to shared flooding.Update payload u.Costs[...]" +
		" — updates are immutable once published across the shard barrier"
	found := false
	for _, d := range res.Findings {
		if d.Rule == "shardsafe" && d.File == "internal/shard/zz_injected.go" && d.Message == wantMsg {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected post-export mutation not caught; findings: %v", res.Findings)
	}
}

// TestInjectedCrossFunctionDriftCaught: a wall-clock read hidden one
// call away in a non-deterministic package (internal/topology) must
// surface as a detdrift finding at the call site inside internal/sim,
// with the witness naming the transitive source.
func TestInjectedCrossFunctionDriftCaught(t *testing.T) {
	root := moduleRoot(t)
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.Overlay = map[string][]byte{
		filepath.Join(root, "internal", "topology", "zz_injected.go"): []byte(
			"package topology\n\nimport \"time\"\n\n" +
				"func ZZStamp() int64 { return time.Now().UnixNano() }\n"),
		filepath.Join(root, "internal", "sim", "zz_injected.go"): []byte(
			"package sim\n\nimport \"repro/internal/topology\"\n\n" +
				"func zzInjectedDrift() int64 { return topology.ZZStamp() }\n"),
	}
	res, err := analysis.AnalyzeWith(l, []string{"internal/sim"}, []string{"detdrift"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("overlay failed to load: %v", res.Errors)
	}
	found := false
	for _, d := range res.Findings {
		if d.Rule == "detdrift" && d.File == "internal/sim/zz_injected.go" &&
			strings.Contains(d.Message, "call to ZZStamp reaches the wall clock") &&
			strings.Contains(d.Message, "time.Now") {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected cross-function wall-clock read not caught; findings: %v", res.Findings)
	}
}

// TestProgramToleratesBrokenPackage: building the interprocedural
// program over a load set that includes a package with type errors must
// not panic, and must still produce the other packages' findings.
func TestProgramToleratesBrokenPackage(t *testing.T) {
	root := moduleRoot(t)
	res, err := analysis.Analyze(root, []string{
		"internal/analysis/testdata/src/broken",
		"internal/analysis/testdata/src/detdrift2",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Fatal("broken package's type error not surfaced")
	}
	interproc := false
	for _, d := range res.Findings {
		if strings.HasPrefix(d.File, "internal/analysis/testdata/src/broken") {
			t.Errorf("finding in the broken package: %s", d)
		}
		if d.Rule == "detdrift" && strings.Contains(d.Message, "call to Stamp") {
			interproc = true
		}
	}
	if !interproc {
		t.Error("broken package poisoned the program: detdrift2's interprocedural finding is gone")
	}
}

// TestFixRoundTrip: the errcheck-lite auto-fix applied to a discarded
// target call must yield a gofmt-stable tree that re-lints clean.
func TestFixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", "module fixmod\n\ngo 1.22\n")
	writeFile("fixmod.go", `package fixmod

import "errors"

func ScheduleAt(at int64) (int, error) {
	if at < 0 {
		return 0, errors.New("past")
	}
	return int(at), nil
}

func run() {
	ScheduleAt(5)
}
`)
	res, err := analysis.Analyze(dir, []string{"./..."}, []string{"errcheck-lite"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 || res.Findings[0].Fix == nil {
		t.Fatalf("want one auto-fixable finding, got %v", res.Findings)
	}
	files, n, err := analysis.ApplyFixes(dir, res.Findings)
	if err != nil || n != 1 {
		t.Fatalf("ApplyFixes: n=%d err=%v", n, err)
	}
	fixed, ok := files["fixmod.go"]
	if !ok {
		t.Fatalf("fix did not touch fixmod.go: %v", files)
	}
	formatted, err := format.Source(fixed)
	if err != nil {
		t.Fatalf("fixed source does not parse: %v\n%s", err, fixed)
	}
	if !bytes.Equal(formatted, fixed) {
		t.Errorf("fixed source is not gofmt-stable:\n--- applied ---\n%s--- gofmt ---\n%s", fixed, formatted)
	}
	if !strings.Contains(string(fixed), "if _, err := ScheduleAt(5); err != nil {") {
		t.Errorf("fix did not produce the checked idiom:\n%s", fixed)
	}
	if err := analysis.WriteFixes(dir, files); err != nil {
		t.Fatal(err)
	}
	res2, err := analysis.Analyze(dir, []string{"./..."}, []string{"errcheck-lite"})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Clean() {
		t.Errorf("tree not clean after applying fixes: %v findings, %v errors", res2.Findings, res2.Errors)
	}
}

// BenchmarkLintRepo measures one full-repo lint. CI runs it with
// -benchtime 1x as a runtime smoke line.
func BenchmarkLintRepo(b *testing.B) {
	root := moduleRoot(b)
	for i := 0; i < b.N; i++ {
		res, err := analysis.Analyze(root, []string{"./..."}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Clean() {
			b.Fatalf("repo not clean: %v %v", res.Findings, res.Errors)
		}
	}
}

// analyzeNodeOverlay lints internal/node under one rule with overlay files
// planted in the package directory. Each value is either a whole file or,
// for line.go, the real file with one edit applied (old → new; the edit
// must apply, so the probe cannot silently stop testing anything).
func analyzeNodeOverlay(t *testing.T, rule string, files map[string]string, lineEdit [2]string) []analysis.Diagnostic {
	t.Helper()
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal", "node")
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.Overlay = map[string][]byte{}
	for name, src := range files {
		l.Overlay[filepath.Join(dir, name)] = []byte(src)
	}
	if lineEdit[0] != "" {
		src, err := os.ReadFile(filepath.Join(dir, "line.go"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(src, []byte(lineEdit[0])) {
			t.Fatalf("line.go no longer contains %q; update the probe", lineEdit[0])
		}
		l.Overlay[filepath.Join(dir, "line.go")] = bytes.Replace(src, []byte(lineEdit[0]), []byte(lineEdit[1]), 1)
	}
	res, err := analysis.AnalyzeWith(l, []string{"internal/node"}, []string{rule})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("overlay failed to load: %v", res.Errors)
	}
	return res.Findings
}

// requireFinding fails unless findings hold one of rule in file whose
// message contains msg.
func requireFinding(t *testing.T, findings []analysis.Diagnostic, rule, file, msg string) {
	t.Helper()
	for _, d := range findings {
		if d.Rule == rule && d.File == file && strings.Contains(d.Message, msg) {
			return
		}
	}
	t.Fatalf("no %s finding in %s containing %q; findings: %v", rule, file, msg, findings)
}

// TestInjectedMissingTxFloorCaught: deleting the 1-tick transmit floor
// from node.Line.Start must be a shardsafe finding at line.go — the
// sharded engine's lookahead contract runs through that schedule call,
// so the file carries the lint:shardsafe directive.
func TestInjectedMissingTxFloorCaught(t *testing.T) {
	findings := analyzeNodeOverlay(t, "shardsafe", nil,
		[2]string{"\tif tx < 1 {\n\t\ttx = 1\n\t}\n", ""})
	requireFinding(t, findings, "shardsafe", "internal/node/line.go",
		"schedule timestamp uses a FromSeconds-derived delay without the 1-tick floor")
}

// TestInjectedLineFinishAllocCaught: an allocation planted in
// node.Line.Finish, the per-packet completion both engines run, must be
// an allocfree finding — Line's start/finish/scan are registered roots.
func TestInjectedLineFinishAllocCaught(t *testing.T) {
	const sig = "func (l *Line) Finish(now sim.Time) *Packet {\n"
	findings := analyzeNodeOverlay(t, "allocfree", nil,
		[2]string{sig, sig + "\t_ = make([]int, 1)\n"})
	requireFinding(t, findings, "allocfree", "internal/node/line.go", "hot path allocates: make([]int)")
}

// TestInjectedNodeWallClockCaught: internal/node is a deterministic
// package, so a wall-clock read planted there must be a detdrift finding.
func TestInjectedNodeWallClockCaught(t *testing.T) {
	findings := analyzeNodeOverlay(t, "detdrift", map[string]string{
		"zz_injected.go": "package node\n\nimport \"time\"\n\n" +
			"func zzInjectedClock() int64 { return time.Now().UnixNano() }\n",
	}, [2]string{})
	requireFinding(t, findings, "detdrift", "internal/node/zz_injected.go", "wall-clock time.Now")
}
