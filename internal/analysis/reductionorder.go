package analysis

import (
	"go/ast"
	"go/types"
)

// parFanouts are the par entry points whose per-item closure runs
// concurrently under the lowest-index-error-wins contract.
var parFanouts = map[string]bool{
	"ForEachCtx":        true,
	"ForEachScratchCtx": true,
	"MapCtx":            true,
	"MapScratchCtx":     true,
	"ForEachMissCtx":    true,
}

// ReductionOrder enforces the determinism contract of closures handed
// to par.ForEach*/Map*: because item→worker scheduling varies run to
// run, the closure may only write into per-index state — the slot of
// the item index it was claimed for (or an index derived from values
// computed inside the closure). Flagged as schedule-dependent:
//
//   - plain assignment to a captured variable (including the
//     `shared = append(shared, ...)` growth pattern — append order is
//     the schedule, and the header write races);
//   - writes to captured maps (racy, and iteration order of the result
//     depends on insertion schedule);
//   - index-assignment to a captured slice at an index computed purely
//     from captured state (no dependence on the claimed index or any
//     closure-local);
//   - field writes through captured structs.
//
// Commutative reductions belong in per-worker scratch state
// (par.ForEachScratchCtx) merged after the join — see scratchescape for
// that side of the contract.
var ReductionOrder = &Analyzer{
	Name: "reductionorder",
	Doc:  "flags schedule-dependent writes (captured scalars, maps, non-index slice slots) inside par.ForEach*/Map* closures",
	Run:  runReductionOrder,
}

func runReductionOrder(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := CalleeOf(p.Info, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != parPkgPath ||
				!parFanouts[callee.Name()] || len(call.Args) == 0 {
				return true
			}
			if lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit); ok {
				p.checkFanoutClosure(lit)
			}
			return true
		})
	}
}

func (p *Pass) checkFanoutClosure(lit *ast.FuncLit) {
	// Nested par fan-outs get their own closure visit; skip their bodies
	// here so a finding is attributed to the closure that owns it.
	nested := map[*ast.FuncLit]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := CalleeOf(p.Info, call)
		if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == parPkgPath &&
			parFanouts[callee.Name()] && len(call.Args) > 0 {
			if inner, ok := call.Args[len(call.Args)-1].(*ast.FuncLit); ok {
				nested[inner] = true
			}
		}
		return true
	})

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && nested[fl] {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				p.checkFanoutWrite(lit, lhs)
			}
		case *ast.IncDecStmt:
			p.checkFanoutWrite(lit, st.X)
		}
		return true
	})
}

// checkFanoutWrite flags lhs when it writes captured state in a way
// the par schedule can reorder.
func (p *Pass) checkFanoutWrite(lit *ast.FuncLit, lhs ast.Expr) {
	switch x := lhs.(type) {
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		if obj != nil && isCapturedVar(obj, lit) {
			p.ReportNodef(x, "assignment to captured %q inside a par closure is schedule-dependent (and races); write into the claimed index's slot and reduce after the join", x.Name)
		}
	case *ast.IndexExpr:
		root := p.rootObjOf(x.X)
		if root == nil || !isCapturedVar(root, lit) {
			return
		}
		baseType := p.TypeOf(x.X)
		if baseType == nil {
			return
		}
		if _, isMap := baseType.Underlying().(*types.Map); isMap {
			p.ReportNodef(x, "write to captured map %q inside a par closure races and its insertion order follows the schedule; collect into per-index slots and merge after the join", root.Name())
			return
		}
		if !p.indexMentionsClosureLocal(x, lit) {
			p.ReportNodef(x, "index-assignment to captured %q at an index independent of the claimed item is schedule-dependent; par's contract is one slot per claimed index", root.Name())
		}
	case *ast.SelectorExpr:
		root := p.rootObjOf(x)
		if root != nil && isCapturedVar(root, lit) {
			p.ReportNodef(x, "field write through captured %q inside a par closure races across workers; stage results per index and merge after the join", root.Name())
		}
	case *ast.StarExpr:
		root := p.rootObjOf(x)
		if root != nil && isCapturedVar(root, lit) {
			p.ReportNodef(x, "write through captured pointer %q inside a par closure races across workers; stage results per index and merge after the join", root.Name())
		}
	}
}

// isCapturedVar reports whether obj is a variable declared outside the
// closure. Package-level and parameter objects of enclosing functions
// both count; anything declared inside the closure (parameters
// included) does not.
func isCapturedVar(obj types.Object, lit *ast.FuncLit) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return !withinNode(obj, lit)
}

// indexMentionsClosureLocal reports whether any index expression in the
// chain x[i], x[i][j], ... references a variable declared inside the
// closure — the claimed-index parameter or a local derived from it. A
// chain indexed purely by captured values or constants is
// schedule-independent only by accident.
func (p *Pass) indexMentionsClosureLocal(idx *ast.IndexExpr, lit *ast.FuncLit) bool {
	found := false
	for {
		ast.Inspect(idx.Index, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil {
				obj = p.Info.Defs[id]
			}
			if obj != nil && withinNode(obj, lit) {
				if _, isVar := obj.(*types.Var); isVar {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
		inner, ok := idx.X.(*ast.IndexExpr)
		if !ok {
			return false
		}
		idx = inner
	}
}
