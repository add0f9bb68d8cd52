package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolSafe is a flow-sensitive, intra-function check that a pooled object
// (a *node.Packet, a recycled event entry) is not
// read, written, re-queued, or released again after it has been returned
// to its pool. This is exactly the bug class the conservation ledger of
// PR 3 catches only at runtime — and only when a fuzzing campaign happens
// to drive the broken path.
//
// A call releases its argument when the argument is a pointer-typed
// identifier and the callee is
//   - a method named Put or Release on a receiver whose type name
//     contains "Pool" (node.PacketPool.Put), or
//   - a method whose name starts with "put", "recycle" or "release"
//     (Kernel.recycle) taking that single pointer.
//
// The analysis walks each statement sequence in order: a release marks the
// variable; any later use in the same straight-line sequence is reported
// until a plain reassignment (p = pool.Get()) clears it. Branch bodies
// inherit the state but do not leak releases back out (an if-body release
// may not execute), so the check has no false positives from control flow
// it cannot see — at the cost of missing cross-branch bugs, which the
// runtime ledger still owns.
type PoolSafe struct{}

// Name implements Rule.
func (*PoolSafe) Name() string { return "poolsafe" }

// Doc implements Rule.
func (*PoolSafe) Doc() string {
	return "no use, re-queue, or double release of a pooled object after it is released"
}

// Check implements Rule.
func (p *PoolSafe) Check(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			st := &poolState{pass: pass, released: map[*types.Var]releaseSite{}}
			st.walkSeq(fd.Body.List)
			return true
		})
	}
}

type releaseSite struct {
	pos  token.Pos
	line int
}

type poolState struct {
	pass     *Pass
	released map[*types.Var]releaseSite
}

func (st *poolState) clone() *poolState {
	c := &poolState{pass: st.pass, released: make(map[*types.Var]releaseSite, len(st.released))}
	for k, v := range st.released {
		c.released[k] = v
	}
	return c
}

// walkSeq processes one statement sequence in execution order.
func (st *poolState) walkSeq(stmts []ast.Stmt) {
	for _, s := range stmts {
		st.walkStmt(s)
	}
}

func (st *poolState) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st.checkUses(rhs)
		}
		// A write through a released pointer (p.f = x) is a use; a plain
		// reassignment of the variable itself re-acquires it.
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if v, ok := st.pass.ObjectOf(id).(*types.Var); ok {
					delete(st.released, v)
				}
				continue
			}
			st.checkUses(lhs)
		}
		for _, rhs := range s.Rhs {
			st.recordReleases(rhs)
		}
	case *ast.ExprStmt:
		st.checkUsesExceptReleaseArg(s.X)
		st.recordReleases(s.X)
	case *ast.BlockStmt:
		st.walkSeq(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		st.checkUses(s.Cond)
		st.clone().walkStmt(s.Body)
		if s.Else != nil {
			st.clone().walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		if s.Cond != nil {
			st.checkUses(s.Cond)
		}
		body := st.clone()
		body.walkStmt(s.Body)
		if s.Post != nil {
			body.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		st.checkUses(s.X)
		st.clone().walkStmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		if s.Tag != nil {
			st.checkUses(s.Tag)
		}
		for _, c := range s.Body.List {
			st.clone().walkStmt(c)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			st.clone().walkStmt(c)
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			st.checkUses(e)
		}
		st.walkSeq(s.Body)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			st.clone().walkStmt(c)
		}
	case *ast.CommClause:
		if s.Comm != nil {
			st.clone().walkStmt(s.Comm)
		}
		st.walkSeq(s.Body)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			st.checkUses(e)
		}
	case *ast.DeferStmt:
		// defer pool.Put(p) releases at function exit; later straight-line
		// uses are fine, so record nothing, but the arguments themselves
		// must not already be released.
		st.checkUses(s.Call)
	case *ast.GoStmt:
		st.checkUses(s.Call)
	case *ast.SendStmt:
		st.checkUses(s.Chan)
		st.checkUses(s.Value)
	case *ast.IncDecStmt:
		st.checkUses(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st.checkUses(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		st.walkStmt(s.Stmt)
	}
}

// releaseTarget returns the variable a call releases, or nil.
func (st *poolState) releaseTarget(call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := st.pass.ObjectOf(arg).(*types.Var)
	if !ok {
		return nil
	}
	if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
		return nil
	}
	name := sel.Sel.Name
	lower := strings.ToLower(name)
	poolMethod := (name == "Put" || name == "Release") && receiverNameContains(st.pass, sel, "Pool")
	freeish := strings.HasPrefix(lower, "put") || strings.HasPrefix(lower, "recycle") ||
		strings.HasPrefix(lower, "release")
	if !poolMethod && !(freeish && isMethodCall(st.pass, sel)) {
		return nil
	}
	return v
}

func receiverNameContains(pass *Pass, sel *ast.SelectorExpr, substr string) bool {
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && strings.Contains(named.Obj().Name(), substr)
}

func isMethodCall(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Pkg.Info.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

// recordReleases scans an expression for release calls and marks their
// targets. Double release is reported here: the pool's own runtime panic
// ("packet released twice") fires only when the path actually runs.
func (st *poolState) recordReleases(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		v := st.releaseTarget(call)
		if v == nil {
			return true
		}
		if prev, ok := st.released[v]; ok {
			st.pass.Report(call.Pos(),
				fmt.Sprintf("pooled %s released twice (first released on line %d)", v.Name(), prev.line),
				"a double release aliases two live objects later; release exactly once at the terminal site")
			return true
		}
		pos := st.pass.Fset.Position(call.Pos())
		st.released[v] = releaseSite{pos: call.Pos(), line: pos.Line}
		return true
	})
}

// checkUses reports every read or write of a released variable inside e.
func (st *poolState) checkUses(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := st.pass.ObjectOf(id).(*types.Var)
		if !ok {
			return true
		}
		if site, ok := st.released[v]; ok {
			st.pass.Report(id.Pos(),
				fmt.Sprintf("pooled %s used after release on line %d", v.Name(), site.line),
				"the pool may already have recycled it into another live object; "+
					"read fields before the release or re-acquire with Get")
		}
		return true
	})
}

// checkUsesExceptReleaseArg checks uses but skips the argument of a
// release call itself (pp.Put(p) is the release, not a use-after).
func (st *poolState) checkUsesExceptReleaseArg(e ast.Expr) {
	if call, ok := e.(*ast.CallExpr); ok && st.releaseTarget(call) != nil {
		// Still check the receiver expression (pp in pp.Put(p)).
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			st.checkUses(sel.X)
		}
		return
	}
	st.checkUses(e)
}
