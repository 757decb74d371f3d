package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CallGraph is the node set of the run's static call graph: every
// function or method *declared* (with a body) in the loaded packages.
// ctxpropagation reads it to decide module membership — whether a
// callee, or its Ctx sibling, is the module's own code, wherever in the
// run it is declared. Packages loaded only as type-checked imports (no
// AST) contribute no nodes.
//
// Functions are normalized with types.Func.Origin, so a generic
// instantiation (par.MapScratch[T, S]) is a member through its single
// generic declaration.
type CallGraph struct {
	funcs map[*types.Func]bool
}

// BuildCallGraph indexes every function declared in pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{funcs: map[*types.Func]bool{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.funcs[fn] = true
				}
			}
		}
	}
	return g
}

// Declares reports whether fn (normalized through Origin) is declared
// in the analyzed packages.
func (g *CallGraph) Declares(fn *types.Func) bool {
	return fn != nil && g.funcs[fn.Origin()]
}

// CalleeOf resolves the static callee of a call expression: a named
// function, a method, or a generic instantiation of either. It returns
// nil for builtins, type conversions, and calls through function
// values.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	for {
		switch e := fun.(type) {
		case *ast.ParenExpr:
			fun = e.X
		case *ast.IndexExpr: // generic instantiation f[T](...)
			fun = e.X
		case *ast.IndexListExpr: // generic instantiation f[T, U](...)
			fun = e.X
		default:
			goto resolved
		}
	}
resolved:
	var obj types.Object
	switch e := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return nil
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// CtxParamIndex returns the index of fn's context.Context parameter, or
// -1 if it takes none.
func CtxParamIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// CtxVariant returns fn's context-accepting sibling — the function or
// method named fn.Name()+"Ctx" in the same scope (package scope for
// functions, the receiver's method set for methods) whose first
// parameter is a context.Context and which otherwise takes one more
// parameter than fn — or nil. The lookup goes through go/types, so it
// works for callees in other packages without their ASTs.
func CtxVariant(fn *types.Func) *types.Func {
	if fn == nil || fn.Pkg() == nil || strings.HasSuffix(fn.Name(), "Ctx") {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	name := fn.Name() + "Ctx"
	var cand types.Object
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, fn.Pkg(), name)
		cand = obj
	} else {
		cand = fn.Pkg().Scope().Lookup(name)
	}
	sib, ok := cand.(*types.Func)
	if !ok {
		return nil
	}
	ssig, ok := sib.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if ssig.Params().Len() != sig.Params().Len()+1 || ssig.Params().Len() == 0 {
		return nil
	}
	if !isContextType(ssig.Params().At(0).Type()) {
		return nil
	}
	return sib.Origin()
}
