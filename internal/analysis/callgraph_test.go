package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

// TestCallGraphCrossPackage builds one graph over a fixture package and
// the real par package it imports, and checks that both packages'
// declarations are members: par.ForEach and the fixture's Bad.
func TestCallGraphCrossPackage(t *testing.T) {
	l := testLoader(t)
	fix, err := l.LoadDir(filepath.Join("testdata", "src", "reductionorder"), "d2t2/internal/fixture_graph")
	if err != nil {
		t.Fatal(err)
	}
	parPkg, err := l.Load("d2t2/internal/par")
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph([]*Package{fix, parPkg})

	forEach, ok := parPkg.Types.Scope().Lookup("ForEach").(*types.Func)
	if !ok {
		t.Fatal("par.ForEach not found")
	}
	if !g.Declares(forEach) {
		t.Fatal("graph has no node for par.ForEach")
	}

	bad, ok := fix.Types.Scope().Lookup("Bad").(*types.Func)
	if !ok {
		t.Fatal("fixture Bad not found")
	}
	if !g.Declares(bad) {
		t.Fatal("graph has no node for fixture Bad")
	}
}

// TestCtxVariant checks sibling resolution on the real par package:
// ForEach pairs with ForEachCtx, and functions already named *Ctx have
// no variant.
func TestCtxVariant(t *testing.T) {
	l := testLoader(t)
	parPkg, err := l.Load("d2t2/internal/par")
	if err != nil {
		t.Fatal(err)
	}
	forEach := parPkg.Types.Scope().Lookup("ForEach").(*types.Func)
	sib := CtxVariant(forEach)
	if sib == nil || sib.Name() != "ForEachCtx" {
		t.Fatalf("CtxVariant(ForEach) = %v, want ForEachCtx", sib)
	}
	if CtxParamIndex(sib) != 0 {
		t.Fatalf("CtxParamIndex(ForEachCtx) = %d, want 0", CtxParamIndex(sib))
	}
	if got := CtxVariant(sib); got != nil {
		t.Fatalf("CtxVariant(ForEachCtx) = %v, want nil (already a Ctx function)", got)
	}
}
