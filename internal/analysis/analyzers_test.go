package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches one loader (and its type-checked stdlib) across
// fixture subtests; source-importing the standard library dominates the
// cost of a load.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// wantRe matches one expectation inside a // want comment; several may
// follow each other: // want "first" "second"
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// collectWants scans a fixture file for // want markers, returning
// line -> expected message substrings.
func collectWants(t *testing.T, filename string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("reading fixture %s: %v", filename, err)
	}
	wants := map[int][]string{}
	for i, line := range strings.Split(string(data), "\n") {
		_, marker, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		for _, m := range wantRe.FindAllStringSubmatch(marker, -1) {
			wants[i+1] = append(wants[i+1], m[1])
		}
	}
	return wants
}

func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		name     string
		dir      string // under testdata/src
		loadAs   string // import path the fixture pretends to live at
		analyzer *Analyzer
		wantZero bool // ignore markers; expect no findings at this path
	}{
		{name: "csfmutation", dir: "csfmut", loadAs: "d2t2/internal/exec/fixture_csfmut", analyzer: CSFMutation},
		{name: "csfmutation-allowed", dir: "csfmut_allowed", loadAs: "d2t2/internal/tiling/fixture_allowed", analyzer: CSFMutation, wantZero: true},
		{name: "floatdeterminism", dir: "floatdet", loadAs: "d2t2/internal/model/fixture_floatdet", analyzer: FloatDeterminism},
		{name: "floatdeterminism-out-of-scope", dir: "floatdet", loadAs: "d2t2/internal/stats/fixture_floatdet_oos", analyzer: FloatDeterminism, wantZero: true},
		{name: "coordwidth", dir: "coordwidth", loadAs: "d2t2/internal/formats/fixture_coordwidth", analyzer: CoordWidth},
		{name: "goroutinehygiene", dir: "gohygiene", loadAs: "d2t2/internal/exec/fixture_gohygiene", analyzer: GoroutineHygiene},
		{name: "panicpolicy", dir: "panicpol", loadAs: "d2t2/internal/einsum/fixture_panicpol", analyzer: PanicPolicy},
		{name: "panicpolicy-main", dir: "panicmain", loadAs: "d2t2/cmd/fixture_panicmain", analyzer: PanicPolicy, wantZero: true},
		{name: "ctxpropagation", dir: "ctxprop", loadAs: "d2t2/internal/fixture_ctxprop", analyzer: CtxPropagation},
		{name: "ctxpropagation-suppressed", dir: "ctxprop_ok", loadAs: "d2t2/internal/fixture_ctxprop_ok", analyzer: CtxPropagation, wantZero: true},
		{name: "scratchescape", dir: "scratchescape", loadAs: "d2t2/internal/fixture_scratch", analyzer: ScratchEscape},
		{name: "scratchescape-suppressed", dir: "scratchescape_ok", loadAs: "d2t2/internal/fixture_scratch_ok", analyzer: ScratchEscape, wantZero: true},
		{name: "reductionorder", dir: "reductionorder", loadAs: "d2t2/internal/fixture_redorder", analyzer: ReductionOrder},
		{name: "reductionorder-suppressed", dir: "reductionorder_ok", loadAs: "d2t2/internal/fixture_redorder_ok", analyzer: ReductionOrder, wantZero: true},
		{name: "stdversion", dir: "stdversion", loadAs: "d2t2/internal/fixture_stdversion", analyzer: StdVersion},
		{name: "stdversion-build-constraint", dir: "stdversion_ok", loadAs: "d2t2/internal/fixture_stdversion_ok", analyzer: StdVersion, wantZero: true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := testLoader(t)
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := l.LoadDir(dir, tc.loadAs)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			diags := Run(pkg, []*Analyzer{tc.analyzer})

			if tc.wantZero {
				if len(diags) != 0 {
					t.Fatalf("want no findings at %s, got:\n%s", tc.loadAs, formatDiags(diags))
				}
				return
			}

			// Gather wants across every fixture file.
			wants := map[string]map[int][]string{}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".go") {
					abs := filepath.Join(dir, e.Name())
					wants[abs] = collectWants(t, abs)
				}
			}

			matched := map[string]map[int][]bool{}
			for _, d := range diags {
				lineWants := wants[d.Pos.Filename][d.Pos.Line]
				ok := false
				for i, w := range lineWants {
					if strings.Contains(d.Message, w) {
						if matched[d.Pos.Filename] == nil {
							matched[d.Pos.Filename] = map[int][]bool{}
						}
						if matched[d.Pos.Filename][d.Pos.Line] == nil {
							matched[d.Pos.Filename][d.Pos.Line] = make([]bool, len(lineWants))
						}
						matched[d.Pos.Filename][d.Pos.Line][i] = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for file, byLine := range wants {
				for line, subs := range byLine {
					for i, w := range subs {
						got := matched[file][line]
						if got == nil || !got[i] {
							t.Errorf("%s:%d: expected finding containing %q, got none", file, line, w)
						}
					}
				}
			}
		})
	}
}

func formatDiags(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestExpandPatterns(t *testing.T) {
	l := testLoader(t)
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"d2t2":                   false,
		"d2t2/internal/formats":  false,
		"d2t2/internal/analysis": false,
		"d2t2/cmd/d2t2vet":       false,
	}
	for _, p := range paths {
		if _, ok := want[p]; ok {
			want[p] = true
		}
		if strings.Contains(p, "testdata") {
			t.Fatalf("Expand leaked a testdata package: %s", p)
		}
	}
	for p, seen := range want {
		if !seen {
			t.Fatalf("Expand(./...) missing %s in %v", p, paths)
		}
	}

	sub, err := l.Expand([]string{"./internal/formats"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0] != "d2t2/internal/formats" {
		t.Fatalf("Expand(./internal/formats) = %v", sub)
	}

	// A typo'd named package must error, not silently match nothing.
	if _, err := l.Expand([]string{"./no/such/dir"}); err == nil {
		t.Fatal("Expand(./no/such/dir) succeeded; want error")
	}
	if _, err := l.Expand([]string{"./internal/analysis/testdata"}); err == nil {
		t.Fatal("Expand(./internal/analysis/testdata) succeeded; want error (dir exists but holds no Go files)")
	}
}

func TestLoadRealPackage(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.Load("d2t2/internal/formats")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "formats" {
		t.Fatalf("loaded package name %q", pkg.Types.Name())
	}
	if pkg.Types.Scope().Lookup("CSF") == nil {
		t.Fatal("formats.CSF not found in loaded package scope")
	}
}

func TestIgnoreParsing(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "panicpol"), "d2t2/internal/gen/fixture_ignore")
	if err != nil {
		t.Fatal(err)
	}
	// Run with suppression (the annotated panic must not appear).
	diags := Run(pkg, []*Analyzer{PanicPolicy})
	for _, d := range diags {
		if strings.Contains(d.Message, "unreachable by construction") {
			t.Fatalf("suppressed finding leaked: %s", d)
		}
	}
	if len(diags) != 2 {
		t.Fatalf("want exactly the 2 marked findings, got:\n%s", formatDiags(diags))
	}
}

// TestIgnoreExtent pins the multi-line suppression rules: an annotation
// above a statement covers the statement's full extent, but never
// reaches into a function literal's body (so an ignore above a par
// fan-out cannot blanket the closure).
func TestIgnoreExtent(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "ignoreext"), "d2t2/internal/fixture_ignoreext")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, []*Analyzer{CtxPropagation, ReductionOrder})
	var gotCtx, gotReduction int
	for _, d := range diags {
		switch d.Check {
		case "ctxpropagation":
			gotCtx++
		case "reductionorder":
			gotReduction++
		}
	}
	if gotCtx != 1 {
		t.Errorf("want 1 surviving ctxpropagation finding (covered() suppressed, uncovered() kept), got %d:\n%s",
			gotCtx, formatDiags(diags))
	}
	if gotReduction != 1 {
		t.Errorf("want 1 surviving reductionorder finding inside the closure body, got %d:\n%s",
			gotReduction, formatDiags(diags))
	}
	// The survivors must sit exactly on the marker-comment lines; any
	// other line means the suppressed twin leaked.
	src, err := os.ReadFile(filepath.Join("testdata", "src", "ignoreext", "ignoreext.go"))
	if err != nil {
		t.Fatal(err)
	}
	markers := map[string]int{}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "surviving ctxpropagation finding") {
			markers["ctxpropagation"] = i + 1
		}
		if strings.Contains(line, "surviving reductionorder finding") {
			markers["reductionorder"] = i + 1
		}
	}
	for _, d := range diags {
		if want := markers[d.Check]; want != 0 && d.Pos.Line != want {
			t.Errorf("%s finding on line %d, want marker line %d: %s", d.Check, d.Pos.Line, want, d)
		}
	}
}

// TestCtxVariant checks sibling resolution on the ctxprop fixture: a
// function and a method pair with their Ctx siblings, and functions
// already named *Ctx have no variant.
func TestCtxVariant(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "ctxprop"), "d2t2/internal/fixture_ctxvariant")
	if err != nil {
		t.Fatal(err)
	}
	slow := pkg.Types.Scope().Lookup("Slow").(*types.Func)
	sib := CtxVariant(slow)
	if sib == nil || sib.Name() != "SlowCtx" {
		t.Fatalf("CtxVariant(Slow) = %v, want SlowCtx", sib)
	}
	if got := CtxVariant(sib); got != nil {
		t.Fatalf("CtxVariant(SlowCtx) = %v, want nil (already a Ctx function)", got)
	}
	do, _, _ := types.LookupFieldOrMethod(pkg.Types.Scope().Lookup("T").Type(), true, pkg.Types, "Do")
	if sib := CtxVariant(do.(*types.Func)); sib == nil || sib.Name() != "DoCtx" {
		t.Fatalf("CtxVariant(T.Do) = %v, want DoCtx", sib)
	}
}
