package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagation enforces the cancellation invariant PR 4 threaded
// through the compute stack: once a context enters a function, it flows
// to every callee that can accept one, and fresh root contexts are never
// minted in the middle of a request. Concretely:
//
//  1. context.Background()/context.TODO() are banned outside package
//     main, _test.go files, and the documented non-ctx wrapper pattern:
//     a function whose whole body is one delegation passing a fresh root
//     as the first argument of a context-accepting function, as in
//     `return FooCtx(context.Background(), args...)`. The callee does
//     not have to share the wrapper's name — the module's convenience
//     chains (TileAll → TileAllWorkers → TileAllCtx) put the Background
//     in the middle rung.
//  2. A function that takes a context.Context must not call a module
//     function G without one when a sibling GCtx exists — that drops the
//     caller's deadline on the floor for the duration of G. These
//     findings carry a suggested fix (apply with d2t2vet -fix) that
//     rewrites the call site to the Ctx sibling with the in-scope
//     context as its first argument.
//  3. A function with a Ctx sibling that is not the documented wrapper
//     is flagged: duplicated logic next to a cancellable twin drifts,
//     and the wrapper shape is what licenses its context.Background().
//
// Sibling lookups go through go/types (see CtxVariant), so the check
// crosses package boundaries; module membership of callees is decided by
// the run's call-graph node set, so d2t2vet over ./... sees every
// function the module declares.
var CtxPropagation = &Analyzer{
	Name: "ctxpropagation",
	Doc:  "flags dropped contexts: Background()/TODO() outside main/tests/wrappers, and calls that bypass a callee's Ctx sibling",
	Run:  runCtxPropagation,
}

func runCtxPropagation(p *Pass) {
	if p.Pkg.Name() == "main" {
		return
	}
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.checkCtxFunc(fd, fn)
		}
	}
}

func (p *Pass) checkCtxFunc(fd *ast.FuncDecl, fn *types.Func) {
	var (
		delegated    *types.Func
		licensedRoot *ast.CallExpr
	)
	if CtxParamIndex(fn) < 0 {
		// Only a function with no ctx of its own can be the wrapper; with
		// a ctx in scope, minting a root is always dropping the caller's.
		delegated, licensedRoot = delegatedCtxCallee(p, fd)
	}
	sib := CtxVariant(fn)
	if CtxParamIndex(fn) < 0 && sib != nil {
		if delegated != nil && strings.EqualFold(delegated.Name(), fn.Name()+"Ctx") {
			return // the documented wrapper of its own Ctx sibling
		}
		p.ReportRangef(fd.Name.Pos(), fd.Name.End(),
			"%s has context-accepting sibling %s but is not the documented wrapper (single `return %s(context.Background(), ...)`); duplicated logic will drift from the cancellable path",
			fn.Name(), sib.Name(), sib.Name())
	}

	// Rule 1: no fresh root contexts outside the wrapper pattern. A
	// delegating wrapper's own root (licensedRoot) is the one exemption:
	// it is handed straight to a cancellable callee, never used mid-path.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if call == licensedRoot {
			return true
		}
		if name := rootContextFunc(p.Info, call); name != "" {
			p.ReportNodef(call,
				"context.%s() in library code detaches this path from the caller's deadline; accept a ctx parameter (or add the documented non-ctx wrapper)", name)
		}
		return true
	})

	// Rule 2: with a ctx in scope, never call around a callee's Ctx
	// sibling. The nearest enclosing ctx parameter (function or closure)
	// names the fix's first argument.
	p.checkCtxThreading(fd.Body, ctxParamName(p, fd.Type))
}

// checkCtxThreading walks body flagging calls to module functions that
// have a Ctx sibling, when ctxName (possibly rebound by nested closures
// with their own ctx parameter) is in scope.
func (p *Pass) checkCtxThreading(body *ast.BlockStmt, ctxName string) {
	var walk func(n ast.Node, ctxName string) bool
	walk = func(n ast.Node, ctxName string) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			inner := ctxName
			if name := ctxParamName(p, e.Type); name != "" {
				inner = name
			}
			ast.Inspect(e.Body, func(m ast.Node) bool { return walk(m, inner) })
			return false
		case *ast.CallExpr:
			if ctxName == "" {
				return true
			}
			callee := CalleeOf(p.Info, e)
			if callee == nil || CtxParamIndex(callee) >= 0 {
				return true
			}
			sib := CtxVariant(callee)
			if sib == nil {
				return true
			}
			// Module membership: either side of the pair is declared in
			// the analyzed packages.
			if p.Graph == nil || (!p.Graph.Declares(callee) && !p.Graph.Declares(sib)) {
				return true
			}
			p.ReportFixf(e, p.ctxSiblingFix(e, sib, ctxName),
				"call to %s drops the in-scope context %q; call %s(%s, ...) so cancellation reaches it",
				callee.Name(), ctxName, sib.Name(), ctxName)
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return walk(n, ctxName) })
}

// ctxSiblingFix rewrites `G(args...)` to `GCtx(ctx, args...)`. Returns
// nil when the callee name token cannot be located (nothing to edit).
func (p *Pass) ctxSiblingFix(call *ast.CallExpr, sib *types.Func, ctxName string) *SuggestedFix {
	name := calleeNameIdent(call)
	if name == nil {
		return nil
	}
	insert := ctxName
	if len(call.Args) > 0 {
		insert += ", "
	}
	return &SuggestedFix{
		Message: "call the " + sib.Name() + " sibling with " + ctxName,
		Edits: []TextEdit{
			p.Edit(name.Pos(), name.End(), sib.Name()),
			p.Edit(call.Lparen+1, call.Lparen+1, insert),
		},
	}
}

// delegatedCtxCallee matches the documented non-ctx wrapper shape: the
// entire body is one return (or, for void functions, one call)
// delegating to a context-accepting function with context.Background()
// or context.TODO() as first argument. It returns the callee and the
// fresh-root call licensed by the shape, or nils. The callee may be an
// unexported fan-in core (ForEachScratch → forEachScratchCtx) or a
// different rung of a convenience chain (TileAllWorkers → TileAllCtx);
// whether its name pairs with the wrapper's is the caller's concern.
func delegatedCtxCallee(p *Pass, fd *ast.FuncDecl) (*types.Func, *ast.CallExpr) {
	if len(fd.Body.List) != 1 {
		return nil, nil
	}
	var call *ast.CallExpr
	switch st := fd.Body.List[0].(type) {
	case *ast.ReturnStmt:
		if len(st.Results) != 1 {
			return nil, nil
		}
		call, _ = st.Results[0].(*ast.CallExpr)
	case *ast.ExprStmt:
		call, _ = st.X.(*ast.CallExpr)
	}
	if call == nil || len(call.Args) == 0 {
		return nil, nil
	}
	callee := CalleeOf(p.Info, call)
	if callee == nil || CtxParamIndex(callee) != 0 {
		return nil, nil
	}
	first, ok := call.Args[0].(*ast.CallExpr)
	if !ok || rootContextFunc(p.Info, first) == "" {
		return nil, nil
	}
	return callee, first
}

// rootContextFunc returns "Background" or "TODO" when call is
// context.Background() or context.TODO(), else "".
func rootContextFunc(info *types.Info, call *ast.CallExpr) string {
	fn := CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

// ctxParamName returns the name of ft's context.Context parameter, or
// "" when there is none or it is unnamed/blank.
func ctxParamName(p *Pass, ft *ast.FuncType) string {
	if ft == nil || ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		t := p.TypeOf(field.Type)
		if t == nil || !isContextType(t) {
			continue
		}
		for _, id := range field.Names {
			if id.Name != "_" {
				return id.Name
			}
		}
	}
	return ""
}

// calleeNameIdent returns the identifier naming the callee — the plain
// ident of `New(...)`, the selector's Sel of `tiling.New(...)` or
// `s.Optimize(...)` — unwrapping parens and generic instantiations.
func calleeNameIdent(call *ast.CallExpr) *ast.Ident {
	fun := call.Fun
	for {
		switch e := fun.(type) {
		case *ast.ParenExpr:
			fun = e.X
		case *ast.IndexExpr:
			fun = e.X
		case *ast.IndexListExpr:
			fun = e.X
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}
