package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// csfOwnerFields maps the compressed-format types of internal/formats to
// the backing-array fields whose invariants (sortedness, segment/crd
// consistency, Seg[l] boundaries) only the builders may re-establish.
var csfOwnerFields = map[string]map[string]bool{
	"CSF": {"Seg": true, "Crd": true, "Vals": true, "Dims": true, "Order": true},
	"CSR": {"RowPtr": true, "ColIdx": true, "Vals": true},
}

// csfAllowedPrefixes are the packages allowed to mutate format backing
// arrays: the builders themselves and the tiler, which constructs
// per-tile CSF tries in place.
var csfAllowedPrefixes = []string{
	"d2t2/internal/formats",
	"d2t2/internal/tiling",
}

// CSFMutation flags writes to the backing slices of the compressed
// formats (CSF.Seg, CSF.Crd, CSR.RowPtr, ...) outside internal/formats
// and internal/tiling. Those arrays form a trie whose invariants every
// traversal in the system assumes; an out-of-package write (an indexed
// store, a field reassignment, or a copy into the slice) silently breaks
// footprint accounting and traffic measurement.
var CSFMutation = &Analyzer{
	Name: "csfmutation",
	Doc:  "flags writes to CSF/CSR backing arrays outside internal/formats and internal/tiling",
	Run:  runCSFMutation,
}

func runCSFMutation(p *Pass) {
	for _, prefix := range csfAllowedPrefixes {
		if p.Path == prefix || strings.HasPrefix(p.Path, prefix+"/") {
			return
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if typ, field := p.formatFieldBase(lhs); typ != "" {
						p.Reportf(lhs.Pos(), "write to %s.%s outside internal/formats and internal/tiling breaks the format invariants; rebuild via the package builders instead", typ, field)
					}
				}
			case *ast.IncDecStmt:
				if typ, field := p.formatFieldBase(st.X); typ != "" {
					p.Reportf(st.X.Pos(), "write to %s.%s outside internal/formats and internal/tiling breaks the format invariants; rebuild via the package builders instead", typ, field)
				}
			case *ast.CallExpr:
				// copy(x.Crd[l], ...) mutates the destination in place.
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
					if typ, field := p.formatFieldBase(st.Args[0]); typ != "" {
						p.Reportf(st.Args[0].Pos(), "copy into %s.%s outside internal/formats and internal/tiling breaks the format invariants", typ, field)
					}
				}
			}
			return true
		})
	}
}

// formatFieldBase reports whether expr writes through a guarded field of
// a compressed-format type, peeling index and slice expressions:
// x.Crd[l][i], x.Seg = ..., copy(x.RowPtr, ...).
func (p *Pass) formatFieldBase(expr ast.Expr) (typeName, fieldName string) {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			recv := p.TypeOf(e.X)
			if recv == nil {
				return "", ""
			}
			name := formatTypeName(recv)
			if name == "" {
				return "", ""
			}
			if csfOwnerFields[name][e.Sel.Name] {
				return name, e.Sel.Name
			}
			return "", ""
		default:
			return "", ""
		}
	}
}

// formatTypeName returns "CSF" or "CSR" when t (possibly
// behind pointers) is the corresponding type of d2t2/internal/formats.
func formatTypeName(t types.Type) string {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "d2t2/internal/formats" {
		return ""
	}
	if _, ok := csfOwnerFields[obj.Name()]; ok {
		return obj.Name()
	}
	return ""
}
