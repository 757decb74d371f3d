package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagation enforces the cancellation invariant threaded through
// the compute stack: every cancellable operation has exactly one entry
// point, and it takes the caller's context. Concretely:
//
//  1. context.Background()/context.TODO() are banned outside package
//     main and _test.go files: a fresh root in library code detaches
//     the path below it from the caller's deadline. A deliberate
//     detachment carries a justified //d2t2:ignore.
//  2. A function X beside a context-accepting sibling XCtx is flagged:
//     the sibling is the one entry point, and a second one either
//     mints a root (rule 1) or duplicates logic that drifts from the
//     cancellable path.
//
// Sibling lookups go through go/types (see CtxVariant).
var CtxPropagation = &Analyzer{
	Name: "ctxpropagation",
	Doc:  "flags dropped contexts: Background()/TODO() outside main and tests, and non-ctx twins of XCtx functions",
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
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				if sib := CtxVariant(fn); sib != nil {
					p.ReportRangef(fd.Name.Pos(), fd.Name.End(),
						"%s has context-accepting sibling %s; delete it and call %s(ctx, ...) so every caller passes its context",
						fn.Name(), sib.Name(), sib.Name())
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name := rootContextFunc(p.Info, call); name != "" {
						p.ReportNodef(call,
							"context.%s() in library code detaches this path from the caller's deadline; accept a ctx parameter", name)
					}
				}
				return true
			})
		}
	}
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
// parameter is a context.Context — or nil. The sibling's other
// parameters are not compared: a twin that also drops a knob (New
// beside NewCtx(ctx, …, workers)) is still a second entry point. The
// lookup goes through go/types, so it works for functions in other
// packages without their ASTs.
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
	if ssig.Params().Len() == 0 || !isContextType(ssig.Params().At(0).Type()) {
		return nil
	}
	return sib.Origin()
}
