package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// parPkgPath is the parallelism kit whose closure contracts the
// scratchescape and reductionorder analyzers enforce.
const parPkgPath = "d2t2/internal/par"

// scratchFanouts are the par entry points whose per-item closure
// receives a worker-private scratch value as its second parameter.
var scratchFanouts = map[string]bool{
	"ForEachScratchCtx": true,
	"MapScratchCtx":     true,
}

// ScratchEscape enforces the ownership contract of
// par.ForEachScratchCtx/MapScratchCtx: the scratch value handed to the per-item closure is for capacity reuse only. A
// reference derived from it (the scratch itself, a field, an element,
// or an alias bound through a local) must not be stored to captured
// variables, returned as the item's result, or sent on a channel —
// which worker touches which item varies run to run, so a leaked
// scratch reference makes results schedule-dependent and races with the
// scratch's next item. Copies are fine: calls (formats builders,
// slices.Clone, copy) launder the taint because they materialize new
// backing. The scratch *constructor* may retain the value it creates —
// that is the registration pattern the stats collector uses for
// post-join commutative merges — so only the per-item closure is
// checked.
var ScratchEscape = &Analyzer{
	Name: "scratchescape",
	Doc:  "flags scratch values of par.ForEachScratchCtx/MapScratchCtx closures escaping via captured variables, returns, or channel sends",
	Run:  runScratchEscape,
}

func runScratchEscape(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := CalleeOf(p.Info, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != parPkgPath ||
				!scratchFanouts[callee.Name()] || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			p.checkScratchClosure(lit)
			return true
		})
	}
}

func (p *Pass) checkScratchClosure(lit *ast.FuncLit) {
	scratch := scratchParamObj(p, lit)
	if scratch == nil {
		return
	}
	taint := map[types.Object]bool{scratch: true}
	p.propagateScratchTaint(lit, taint)

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true // multi-value from a call: taint laundered
			}
			for i, lhs := range st.Lhs {
				if !p.aliasesScratch(st.Rhs[i], taint) {
					continue
				}
				root := p.rootObjOf(lhs)
				if root != nil && !withinNode(root, lit) {
					p.ReportNodef(st, "scratch-derived value stored to captured %q escapes the par closure; scratch is capacity-reuse only — copy into per-index state instead", root.Name())
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if p.aliasesScratch(res, taint) {
					p.ReportNodef(st, "returning a scratch-derived value leaks worker-private backing as the item result; copy it (the schedule decides which item reuses it next)")
				}
			}
		case *ast.SendStmt:
			if p.aliasesScratch(st.Value, taint) {
				p.ReportNodef(st, "sending a scratch-derived value on a channel leaks worker-private backing; copy it before the send")
			}
		}
		return true
	})
}

// scratchParamObj returns the object of the closure's scratch parameter
// (the second parameter of the per-item func), or nil when unnamed.
func scratchParamObj(p *Pass, lit *ast.FuncLit) types.Object {
	if lit.Type.Params == nil {
		return nil
	}
	var names []*ast.Ident
	for _, field := range lit.Type.Params.List {
		if len(field.Names) == 0 {
			names = append(names, nil)
			continue
		}
		names = append(names, field.Names...)
	}
	if len(names) < 2 || names[1] == nil || names[1].Name == "_" {
		return nil
	}
	return p.Info.Defs[names[1]]
}

// propagateScratchTaint grows the taint set to locals bound to
// scratch-derived references (x := scratch.buf; for _, v := range
// scratch.rows) until a fixpoint.
func (p *Pass) propagateScratchTaint(lit *ast.FuncLit, taint map[types.Object]bool) {
	for changed := true; changed; {
		changed = false
		mark := func(id *ast.Ident) {
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			if obj != nil && withinNode(obj, lit) && !taint[obj] {
				taint[obj] = true
				changed = true
			}
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if ok && p.aliasesScratch(st.Rhs[i], taint) {
						mark(id)
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i, id := range st.Names {
						if p.aliasesScratch(st.Values[i], taint) {
							mark(id)
						}
					}
				}
			case *ast.RangeStmt:
				if p.rootedAtTaint(st.X, taint) {
					if id, ok := st.Value.(*ast.Ident); ok && referenceLike(p.TypeOf(id)) {
						mark(id)
					}
				}
			}
			return true
		})
	}
}

// aliasesScratch reports whether evaluating e yields a value sharing
// memory with the scratch: a tainted identifier, a selector/index/slice
// chain rooted at one, an address into one, a composite literal
// embedding one, or an append whose result may keep tainted backing.
// Values of basic type never alias (they are copies), and calls other
// than append launder taint — they return freshly built values by the
// codebase's builder conventions.
func (p *Pass) aliasesScratch(e ast.Expr, taint map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return p.aliasesScratch(x.X, taint)
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		return obj != nil && taint[obj] && referenceLike(p.TypeOf(x))
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return referenceLike(p.TypeOf(e)) && p.rootedAtTaint(e, taint)
	case *ast.SliceExpr:
		return p.rootedAtTaint(x.X, taint)
	case *ast.UnaryExpr:
		return x.Op == token.AND && p.rootedAtTaint(x.X, taint)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if p.aliasesScratch(el, taint) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && p.Info.Uses[id] == nil {
			if len(x.Args) > 0 && p.aliasesScratch(x.Args[0], taint) {
				return true
			}
			for i, a := range x.Args[1:] {
				spread := x.Ellipsis.IsValid() && i == len(x.Args)-2
				if spread {
					// Spread copies the elements; it aliases only when
					// the element type itself holds references.
					if p.rootedAtTaint(a, taint) && sliceElemReferenceLike(p.TypeOf(a)) {
						return true
					}
				} else if p.aliasesScratch(a, taint) {
					return true
				}
			}
		}
		return false
	default:
		return false
	}
}

// rootedAtTaint peels selector/index/slice/star/paren/address chains to
// the base identifier and reports whether it is tainted.
func (p *Pass) rootedAtTaint(e ast.Expr, taint map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			e = x.X
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if obj == nil {
				obj = p.Info.Defs[x]
			}
			return obj != nil && taint[obj]
		default:
			return false
		}
	}
}

// rootObjOf peels an assignable expression to its base identifier's
// object: x, x.f, x[i], (*x).f[j] all root at x.
func (p *Pass) rootObjOf(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Info.Defs[x]
		default:
			return nil
		}
	}
}

// withinNode reports whether obj is declared inside n's extent.
func withinNode(obj types.Object, n ast.Node) bool {
	return obj.Pos() >= n.Pos() && obj.Pos() <= n.End()
}

// referenceLike reports whether values of t can share backing memory:
// slices, maps, pointers, channels, funcs, interfaces, and aggregates
// containing any of those. Basic values and strings are copies.
func referenceLike(t types.Type) bool {
	return refLike(t, 0)
}

func refLike(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return refLike(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// sliceElemReferenceLike reports whether t is a slice (or array) whose
// element type holds references.
func sliceElemReferenceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return referenceLike(u.Elem())
	case *types.Array:
		return referenceLike(u.Elem())
	}
	return false
}
