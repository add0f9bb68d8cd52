// Package analysis is a stdlib-only static-analysis framework for the
// simulator's domain invariants. The last three PRs made the simulator
// allocation-free and byte-deterministic; every one of those properties is
// a *convention* — one stray time.Now, one map-range feeding the event
// queue, one read of a pooled packet after Release, and reproducibility or
// the conservation ledger silently breaks. The rules here make those
// conventions mechanical, so the whole bug class is caught at lint time
// instead of one instance per fuzzing campaign.
//
// The framework deliberately uses nothing outside the standard library
// (go/parser, go/types, go/importer): the module has zero external
// dependencies and the linter must not be the first. Packages are loaded
// by Loader (load.go), rules implement Rule, and cmd/arpanetlint is the
// multichecker CLI.
//
// Findings can be suppressed at the site with
//
//	// lint:ignore <rule>[,<rule>...] <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory; a bare suppression does not suppress and is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a rule violation at a position, with a hint
// describing the idiomatic fix.
type Diagnostic struct {
	Rule     string         `json:"rule"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"` // module-root-relative path
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	Hint     string         `json:"hint,omitempty"`
	Package  string         `json:"package"` // import path of the offending package
	Severity string         `json:"severity"`
	// Fix, when present, is a machine-applicable remediation (see fix.go).
	Fix *Fix `json:"fix,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
	if d.Hint != "" {
		s += " (" + d.Hint + ")"
	}
	return s
}

// Rule is one domain check. Check is called once per loaded package; the
// rule decides for itself whether the package is in scope.
type Rule interface {
	// Name is the rule identifier used in diagnostics and lint:ignore.
	Name() string
	// Doc is a one-line description of the invariant the rule protects.
	Doc() string
	// Check inspects one package and reports findings through pass.Report.
	Check(pass *Pass)
}

// Explainer is an optional Rule extension: long-form documentation for
// `arpanetlint -explain <rule>` — what the rule proves, what it
// deliberately does not, and how to suppress it.
type Explainer interface {
	Explain() string
}

// Pass carries one package through one rule.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	rule string
	out  *[]Diagnostic
}

// Report records a finding at pos. Findings in generated files are
// dropped: the generator, not the generated text, is the thing to fix.
func (p *Pass) Report(pos token.Pos, msg, hint string) {
	p.ReportWithFix(pos, msg, hint, nil)
}

// ReportWithFix is Report with an attached machine-applicable fix.
func (p *Pass) ReportWithFix(pos token.Pos, msg, hint string, fix *Fix) {
	position := p.Fset.Position(pos)
	if p.Pkg.Generated[position.Filename] {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Rule:     p.rule,
		Pos:      position,
		File:     p.Pkg.relPath(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  msg,
		Hint:     hint,
		Package:  p.Pkg.Path,
		Severity: "error",
		Fix:      fix,
	})
}

// TypeOf returns the type of e, or nil when unknown (e.g. in a package
// that failed to type-check).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// AllRules returns the full rule suite in a fixed order.
func AllRules() []Rule {
	return []Rule{
		&DetDrift{},
		&PoolSafe{},
		&HandleCheck{},
		&FloatExact{},
		&ErrCheckLite{},
		&AllocFree{},
		&ShardSafe{},
	}
}

// RulesByName filters AllRules by a comma-separated selection; an unknown
// name is an error so a typo cannot silently lint nothing.
func RulesByName(names []string) ([]Rule, error) {
	all := AllRules()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]Rule, len(all))
	for _, r := range all {
		byName[r.Name()] = r
	}
	var out []Rule
	for _, n := range names {
		r, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q", n)
		}
		out = append(out, r)
	}
	return out, nil
}

// Run applies the rules to every package, filters suppressed findings,
// and returns the survivors sorted by position. Suppressions without a
// reason are reported under the pseudo-rule "lint". The program for
// interprocedural rules is built from the given packages alone; use
// RunProgram when dependency packages are loaded and should contribute
// effect summaries.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	return RunProgram(NewProgram(pkgs), pkgs, rules)
}

// RunProgram is Run with a caller-built Program (typically spanning the
// analyzed packages plus every loaded dependency).
func RunProgram(prog *Program, pkgs []*Package, rules []Rule) []Diagnostic {
	for _, r := range rules {
		if pr, ok := r.(ProgramRule); ok {
			pr.Prepare(prog)
		}
	}
	ranRules := map[string]bool{}
	for _, r := range rules {
		ranRules[r.Name()] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			// A package that failed to load is reported by the driver's
			// caller; running rules over half-typed syntax produces noise.
			continue
		}
		for _, r := range rules {
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, rule: r.Name(), out: &diags}
			r.Check(pass)
		}
		diags = append(diags, pkg.badSuppressions()...)
	}
	diags = filterSuppressed(diags, pkgs)
	// Stale detection must run after filtering: a directive is live exactly
	// when it silenced a finding above (or blessed an effect summary).
	for _, pkg := range pkgs {
		if len(pkg.Errors) == 0 {
			diags = append(diags, pkg.staleSuppressions(ranRules)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}
