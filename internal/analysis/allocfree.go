package analysis

// AllocFree is the static twin of TestSteadyStateZeroAllocs: registered
// hot packages must introduce no allocation-bearing constructs on their
// hot paths. Each registered package names root functions (the kernel's
// schedule/fire surface, the packet pool and queue operations, the SPF
// compute paths, the shard data plane); every function statically
// reachable from a root inside the package is a hot function, and inside
// hot functions the rule flags:
//
//   - make/new and map/slice composite literals
//   - &T{} (a heap escape in every case the compiler cannot disprove)
//   - append (growth is an allocation; amortized growth is blessed)
//   - closures that capture variables (escaping FuncLits); immediately
//     invoked and directly deferred closures are exempt — the compiler
//     stack-allocates both
//   - string concatenation and string<->[]byte/[]rune conversions
//   - interface boxing of non-pointer-shaped values (pointers, funcs,
//     chans and maps convert to an interface without allocating;
//     everything else is heap-boxed)
//   - map writes (insertion can grow the table)
//   - go statements and variadic calls that build an argument slice
//   - calls to in-module functions whose effect summary allocates, and
//     calls out of the module that cannot be proven allocation-free
//     (math and math/bits are safelisted)
//
// Allocations on panic paths are exempt: a panic is the end of the run,
// not a per-event cost. Deliberate amortized allocation — slot-store
// growth, queue doubling, pool refill — is blessed site-by-site (or for
// a whole function, on its declaration line) with
//
//	// lint:alloc <reason>
//
// and a blessed site does not taint callers' summaries.
//
// What the rule deliberately does not prove: allocations behind dynamic
// dispatch (interface method calls and function values have no static
// edge) and compiler escape decisions (&T{} that stays on the stack is
// still flagged). The runtime twin owns the first; blessings document the
// second.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotScopes registers the hot packages and their root functions, named
// "Func" or "Type.Method" (receiver pointer-ness ignored). A fixture or
// overlay can extend the set with a file directive
//
//	// lint:hotpath root[,root...]
var hotScopes = []struct {
	suffix string
	roots  []string
}{
	{"internal/sim", []string{
		"Kernel.Schedule", "Kernel.ScheduleAt", "Kernel.ScheduleCall",
		"Kernel.ScheduleCallAt", "Kernel.ScheduleTailCallAt",
		"Kernel.Step", "Kernel.Run", "Kernel.RunUntil", "Kernel.NextEventTime",
		"Handle.Cancel", "Handle.Pending", "tickerFire",
	}},
	{"internal/node", []string{
		"PacketPool.Get", "PacketPool.Put",
		"Queue.Push", "Queue.Pop", "Queue.Scan",
		"Measurement.Record", "Measurement.Take",
		"Line.Start", "Line.Finish", "Line.Scan",
	}},
	{"internal/spf", []string{
		"ComputeInto", "HopsInto", "IncrementalRouter.Update", "IncrementalRouter.UpdateBatch",
		"Tree.NextHop", "Tree.Dist",
	}},
	{"internal/shard", []string{
		"shardState.source", "shardState.handlePacket", "shardState.txDone",
		"shardState.drain", "shardState.importWire", "shardState.deliverArrival",
		"lnode.adaptiveNextHop",
	}},
}

// allocSafePkgs are external packages hot paths may call freely: pure
// arithmetic, no allocation on any path.
var allocSafePkgs = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// AllocFree proves registered hot paths allocation-free. See the package
// registry above.
type AllocFree struct {
	prog *Program
}

// Name implements Rule.
func (*AllocFree) Name() string { return "allocfree" }

// Doc implements Rule.
func (*AllocFree) Doc() string {
	return "no allocation-bearing constructs on registered hot paths (static twin of the zero-alloc tests)"
}

// Explain implements Explainer.
func (*AllocFree) Explain() string {
	return `allocfree proves registered hot packages allocation-free at lint time.

It walks every function reachable (by static calls, within the package)
from the registered hot roots — the sim kernel's schedule/dispatch path,
the node pool, queues and output line, the SPF workspace, and the shard
engine's per-tick path — and flags each construct that the compiler must
or may heap-allocate: make/new/append, map and slice literals, &T{} that
escapes, string concatenation and conversions, closures that escape,
interface boxing of value-shaped operands, variadic argument slices, and
go statements. Calls to functions in the same module are judged by their
computed effect summary, so an allocation two calls deep surfaces at the
hot root with a nested witness chain.

What it deliberately does not prove: it has no escape analysis, so it
over-approximates — &T{} passed only downward still counts, and calls
out of the module (fmt, sort with an interface) are "cannot be proven
allocation-free" rather than traced. Dynamic dispatch through interfaces
or function values is invisible to the static call graph; the runtime
zero-alloc benchmarks (TestSteadyStateZeroAllocs) own that residue.

Suppress a deliberate, amortized allocation at its source with
"// lint:alloc <reason>" (sugar for lint:ignore allocfree). A blessing
on a function's declaration line blesses the whole function. Fixture
packages register extra roots with "// lint:hotpath Func[,Type.Method]".`
}

// Prepare implements ProgramRule.
func (a *AllocFree) Prepare(prog *Program) { a.prog = prog }

// hotRoots returns the root specs for pkg: the registry entry for its
// import-path suffix plus any lint:hotpath directives in its files.
func hotRoots(pkg *Package) []string {
	var roots []string
	for _, s := range hotScopes {
		if strings.HasSuffix(pkg.Path, s.suffix) {
			roots = append(roots, s.roots...)
		}
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				t := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if rest, ok := strings.CutPrefix(t, "lint:hotpath"); ok {
					for _, r := range strings.Split(strings.TrimSpace(rest), ",") {
						if r = strings.TrimSpace(r); r != "" {
							roots = append(roots, r)
						}
					}
				}
			}
		}
	}
	return roots
}

// matchesRoot reports whether fi matches a "Func" or "Type.Method" spec.
func matchesRoot(fi *FuncInfo, spec string) bool {
	name := fi.Obj.Name()
	recvType, method, hasRecv := strings.Cut(spec, ".")
	if !hasRecv {
		return fi.Decl.Recv == nil && name == spec
	}
	if name != method {
		return false
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == recvType
}

// Check implements Rule.
func (a *AllocFree) Check(pass *Pass) {
	if a.prog == nil {
		return
	}
	roots := hotRoots(pass.Pkg)
	if len(roots) == 0 {
		return
	}
	var pkgFuncs []*FuncInfo
	for _, fi := range a.prog.funcs {
		if fi.Pkg == pass.Pkg {
			pkgFuncs = append(pkgFuncs, fi)
		}
	}
	sort.Slice(pkgFuncs, func(i, j int) bool { return pkgFuncs[i].Decl.Pos() < pkgFuncs[j].Decl.Pos() })

	// BFS the in-package call graph from the roots; cross-package callees
	// are judged at the call site through their summaries instead.
	reachable := map[*types.Func]*FuncInfo{}
	var queue []*FuncInfo
	for _, fi := range pkgFuncs {
		for _, spec := range roots {
			if matchesRoot(fi, spec) {
				if reachable[fi.Obj] == nil {
					reachable[fi.Obj] = fi
					queue = append(queue, fi)
				}
				break
			}
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, callee := range fi.Calls {
			ci := a.prog.FuncOf(callee)
			if ci == nil || ci.Pkg != pass.Pkg || reachable[callee] != nil {
				continue
			}
			reachable[callee] = ci
			queue = append(queue, ci)
		}
	}

	var hot []*FuncInfo
	for _, fi := range pkgFuncs {
		if reachable[fi.Obj] != nil {
			hot = append(hot, fi)
		}
	}
	for _, fi := range hot {
		declPos := pass.Fset.Position(fi.Decl.Pos())
		if pass.Pkg.suppressed("allocfree", declPos.Filename, declPos.Line) {
			continue // whole function blessed (amortized by design)
		}
		walkAllocs(a.prog, pass.Pkg, fi.Decl, func(pos token.Pos, what, hint string) {
			pass.Report(pos, "hot path allocates: "+what, hint)
		})
	}
}

const allocHint = "preallocate, pool, or bless deliberate amortized growth with \"// lint:alloc <reason>\""

// walkAllocs emits every allocation-bearing construct in the function
// body, excluding panic paths. Shared by the rule (reporting) and the
// summary builder (effect propagation); blessing is applied by each
// caller, not here.
func walkAllocs(prog *Program, pkg *Package, decl *ast.FuncDecl, emit func(pos token.Pos, what, hint string)) {
	exempt := panicRanges(pkg, decl.Body)
	skip := func(pos token.Pos) bool {
		for _, r := range exempt {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	info := pkg.Info
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if skip(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			walkCallAllocs(prog, pkg, n, emit)
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				emit(n.Pos(), "map literal", allocHint)
			case *types.Slice:
				emit(n.Pos(), "slice literal", allocHint)
			}
			checkCompositeBoxing(pkg, n, emit)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					emit(n.Pos(), "&"+typeName(info.TypeOf(n.X))+"{} escapes to the heap", allocHint)
					return false // the literal itself is part of this finding
				}
			}
		case *ast.FuncLit:
			if pos, capt := capturedBy(pkg, n); capt != "" {
				if !stackSafeFuncLit(decl.Body, n) {
					emit(pos, "closure capturing "+capt, allocHint)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				emit(n.Pos(), "string concatenation", allocHint)
			}
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if idx, ok := ast.Unparen(n.Lhs[i]).(*ast.IndexExpr); ok {
					if t := info.TypeOf(idx.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							emit(n.Pos(), "map write may grow the table", allocHint)
						}
					}
				}
				if what, ok := boxes(pkg, info.TypeOf(n.Lhs[i]), n.Rhs[i]); ok && n.Tok == token.ASSIGN {
					emit(n.Rhs[i].Pos(), what, allocHint)
				}
			}
		case *ast.GoStmt:
			emit(n.Pos(), "go statement (goroutine + escaping closure)", allocHint)
		case *ast.ReturnStmt:
			checkReturnBoxing(pkg, decl, n, emit)
		case *ast.SendStmt:
			if t := info.TypeOf(n.Chan); t != nil {
				if ch, ok := t.Underlying().(*types.Chan); ok {
					if what, ok := boxes(pkg, ch.Elem(), n.Value); ok {
						emit(n.Value.Pos(), what, allocHint)
					}
				}
			}
		}
		return true
	})
}

// walkCallAllocs handles the call-shaped allocation sources: make/new,
// append, conversions, boxing at argument positions, variadic slices, and
// callee effects.
func walkCallAllocs(prog *Program, pkg *Package, call *ast.CallExpr, emit func(pos token.Pos, what, hint string)) {
	info := pkg.Info

	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		if what, boxed := boxes(pkg, dst, call.Args[0]); boxed {
			emit(call.Pos(), what, allocHint)
			return
		}
		if dst != nil && src != nil {
			du, su := dst.Underlying(), src.Underlying()
			if isString(du) && isByteOrRuneSlice(su) {
				emit(call.Pos(), "string conversion copies the slice", allocHint)
			}
			if isByteOrRuneSlice(du) && isString(su) {
				emit(call.Pos(), typeName(dst)+" conversion copies the string", allocHint)
			}
		}
		return
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				emit(call.Pos(), "make("+typeName(info.TypeOf(call))+")", allocHint)
			case "new":
				emit(call.Pos(), "new("+strings.TrimPrefix(typeName(info.TypeOf(call)), "*")+")", allocHint)
			case "append":
				emit(call.Pos(), "append may grow its backing array", allocHint)
			}
			return
		}
	}

	callee := staticCallee(info, call)
	if callee == nil {
		// Dynamic dispatch: no static edge; the runtime zero-alloc test
		// owns the callee's body. The call itself allocates nothing.
	} else if fi := prog.FuncOf(callee); fi != nil {
		if fi.Sum.Allocates {
			emit(call.Pos(), "call to "+callee.Name()+" which allocates ("+fi.Sum.AllocWitness+")",
				"make the callee allocation-free or bless its growth at the source")
		}
	} else if cp := callee.Pkg(); cp != nil && !allocSafePkgs[cp.Path()] {
		emit(call.Pos(), "call to "+cp.Path()+"."+callee.Name()+" cannot be proven allocation-free",
			"hot paths may only call in-module code and the math safelist; move it off the hot path or bless it")
	}

	// Boxing at argument positions, and the variadic argument slice.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		emit(call.Pos(), "variadic call builds an argument slice", allocHint)
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if what, boxed := boxes(pkg, pt, arg); boxed {
			emit(arg.Pos(), what, allocHint)
		}
	}
}

// checkReturnBoxing flags concrete values returned into interface results.
func checkReturnBoxing(pkg *Package, decl *ast.FuncDecl, ret *ast.ReturnStmt, emit func(pos token.Pos, what, hint string)) {
	if decl.Type.Results == nil || len(ret.Results) == 0 {
		return
	}
	var resTypes []types.Type
	for _, field := range decl.Type.Results.List {
		t := pkg.Info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resTypes = append(resTypes, t)
		}
	}
	if len(ret.Results) != len(resTypes) {
		return
	}
	for i, res := range ret.Results {
		if what, ok := boxes(pkg, resTypes[i], res); ok {
			emit(res.Pos(), what, allocHint)
		}
	}
}

// checkCompositeBoxing flags concrete values stored into interface-typed
// fields or elements of a composite literal.
func checkCompositeBoxing(pkg *Package, lit *ast.CompositeLit, emit func(pos token.Pos, what, hint string)) {
	t := pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Name() == key.Name {
					if what, boxed := boxes(pkg, u.Field(i).Type(), kv.Value); boxed {
						emit(kv.Value.Pos(), what, allocHint)
					}
					break
				}
			}
		}
	case *types.Slice:
		for _, elt := range lit.Elts {
			if what, boxed := boxes(pkg, u.Elem(), elt); boxed {
				emit(elt.Pos(), what, allocHint)
			}
		}
	}
}

// boxes reports whether storing src into a destination of type dst boxes
// a non-pointer-shaped value into an interface.
func boxes(pkg *Package, dst types.Type, src ast.Expr) (string, bool) {
	if dst == nil {
		return "", false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return "", false
	}
	st := pkg.Info.TypeOf(src)
	if st == nil {
		return "", false
	}
	if _, ok := st.Underlying().(*types.Interface); ok {
		return "", false // interface to interface: no box
	}
	switch u := st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return "", false // pointer-shaped: the interface holds it directly
	case *types.Basic:
		if u.Kind() == types.UntypedNil {
			return "", false
		}
		if u.Info()&types.IsUntyped != 0 && pkg.Info.Types[src].Value != nil {
			// An untyped constant still boxes, but name its default type.
			return "interface boxing of constant " + typeName(types.Default(st)), true
		}
	}
	return "interface boxing of " + typeName(st), true
}

// capturedBy returns the name of a variable the FuncLit captures from its
// enclosing function, or "" when it captures nothing (a capture-free
// closure is a static function value and allocates nothing).
func capturedBy(pkg *Package, lit *ast.FuncLit) (token.Pos, string) {
	var name string
	pos := lit.Pos()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Pkg() == nil {
			return true
		}
		// Captured: declared outside the literal but not at package scope.
		if v.Pos() < lit.Pos() && v.Parent() != v.Pkg().Scope() {
			name = v.Name()
			pos = id.Pos()
		}
		return name == ""
	})
	if name == "" {
		return lit.Pos(), ""
	}
	return pos, name
}

// stackSafeFuncLit reports whether the literal is immediately invoked or
// directly deferred — both forms the compiler keeps on the stack.
func stackSafeFuncLit(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	safe := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if ast.Unparen(n.Call.Fun) == lit {
				safe = true
			}
		case *ast.CallExpr:
			if ast.Unparen(n.Fun) == lit {
				safe = true
			}
		}
		return !safe
	})
	return safe
}

// panicRanges collects source ranges whose allocations are exempt: the
// arguments of panic calls, and blocks that end in a panic (error-message
// construction on a path that terminates the run).
func panicRanges(pkg *Package, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	isPanic := func(s ast.Stmt) bool {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		_, builtin := pkg.Info.Uses[id].(*types.Builtin)
		return builtin && id.Name == "panic"
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			if len(n.List) > 0 && isPanic(n.List[len(n.List)-1]) {
				out = append(out, [2]token.Pos{n.Pos(), n.End()})
			}
		case *ast.ExprStmt:
			if isPanic(n) {
				out = append(out, [2]token.Pos{n.Pos(), n.End()})
			}
		}
		return true
	})
	return out
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func typeName(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
