// Package analysis is a domain-specific static-analysis framework for
// this repository, built against the standard library only (go/parser,
// go/ast, go/types, go/token). It exists because D2T2's correctness
// rests on invariants the Go compiler cannot see: CSF segment and
// coordinate arrays must only be mutated by the format builders, traffic
// counters must merge exactly under the parallel executor, and the
// probabilistic model must stay deterministic so reproduced tables are
// stable run-to-run.
//
// The framework loads packages from source (see Loader), runs a set of
// Analyzers over each, and reports Diagnostics. A finding can be
// suppressed with a justification comment on the same line or the line
// directly above it:
//
//	//d2t2:ignore panicpolicy invariant check, callers pass literals
//
// cmd/d2t2vet wires every analyzer in Analyzers over ./... and exits
// non-zero on findings; CI runs it next to go vet and the race detector.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer at one source position.
// End, when valid, is the end of the flagged node's extent: SARIF output
// renders it as the result region, and suppression matching uses node
// extents so an annotation above a multi-line construct covers all of
// it. Fix, when non-nil, is a mechanical rewrite d2t2vet -fix can apply.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"pos"`
	End     token.Position `json:"end,omitempty"`
	Message string         `json:"message"`
	Fix     *SuggestedFix  `json:"fix,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass carries one loaded package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Path is the import path the package was loaded under. Analyzers
	// that scope themselves to parts of the tree (csfmutation,
	// floatdeterminism) match on prefixes of this path.
	Path string
	// GoVersion is the module's go directive ("1.22"), the API level the
	// stdversion analyzer holds the package to.
	GoVersion string
	Pkg       *types.Package
	Info      *types.Info
	// Graph is the call graph's node set over every package of the
	// current run (not just this one), so membership lookups cross
	// package boundaries.
	Graph *CallGraph

	check string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, token.NoPos, nil, format, args...)
}

// ReportRangef records a finding spanning [pos, end).
func (p *Pass) ReportRangef(pos, end token.Pos, format string, args ...any) {
	p.report(pos, end, nil, format, args...)
}

// ReportNodef records a finding covering n's full extent.
func (p *Pass) ReportNodef(n ast.Node, format string, args ...any) {
	p.report(n.Pos(), n.End(), nil, format, args...)
}

// ReportFixf records a finding covering n's full extent that carries a
// suggested fix for d2t2vet -fix.
func (p *Pass) ReportFixf(n ast.Node, fix *SuggestedFix, format string, args ...any) {
	p.report(n.Pos(), n.End(), fix, format, args...)
}

func (p *Pass) report(pos, end token.Pos, fix *SuggestedFix, format string, args ...any) {
	d := Diagnostic{
		Check:   p.check,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	}
	if end.IsValid() {
		d.End = p.Fset.Position(end)
	}
	*p.diags = append(*p.diags, d)
}

// Edit builds a TextEdit replacing the source range [pos, end) with
// newText, resolving byte offsets through the pass's file set.
func (p *Pass) Edit(pos, end token.Pos, newText string) TextEdit {
	start := p.Fset.Position(pos)
	stop := p.Fset.Position(end)
	return TextEdit{Filename: start.Filename, Start: start.Offset, End: stop.Offset, NewText: newText}
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.Info.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers lists every check in the suite, sorted by name.
func Analyzers() []*Analyzer {
	as := []*Analyzer{
		CSFMutation,
		FloatDeterminism,
		CoordWidth,
		GoroutineHygiene,
		PanicPolicy,
		CtxPropagation,
		ScratchEscape,
		ReductionOrder,
		StdVersion,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Select resolves comma-separated -only/-skip analyzer lists against the
// suite. Empty only means "all"; skip is subtracted afterwards. Unknown
// names in either list are an error, so a typo fails loudly instead of
// silently vetting nothing.
func Select(only, skip string) ([]*Analyzer, error) {
	split := func(s string) ([]string, error) {
		var names []string
		for _, name := range strings.Split(s, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q (run -list for the suite)", name)
			}
			names = append(names, name)
		}
		return names, nil
	}
	onlyNames, err := split(only)
	if err != nil {
		return nil, err
	}
	skipNames, err := split(skip)
	if err != nil {
		return nil, err
	}
	skipped := map[string]bool{}
	for _, name := range skipNames {
		skipped[name] = true
	}
	var out []*Analyzer
	if len(onlyNames) == 0 {
		for _, a := range Analyzers() {
			if !skipped[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	}
	seen := map[string]bool{}
	for _, name := range onlyNames {
		if seen[name] || skipped[name] {
			continue
		}
		seen[name] = true
		out = append(out, ByName(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// JSON renders findings as an indented JSON array; an empty run renders
// as [] rather than null so consumers can always range over it.
func JSON(diags []Diagnostic) ([]byte, error) {
	if diags == nil {
		diags = []Diagnostic{}
	}
	return json.MarshalIndent(diags, "", "  ")
}

// Run applies the analyzers to a loaded package and returns the
// surviving findings: diagnostics on lines carrying (or directly below,
// or within the extent of the annotated statement/declaration) a
// matching //d2t2:ignore comment are dropped. Findings are sorted by
// position. The call graph is built over the single package; callers
// analyzing several packages should build one graph over all of them
// and use RunGraph so cross-package callee lookups resolve.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunGraph(pkg, BuildCallGraph([]*Package{pkg}), analyzers)
}

// RunGraph is Run with an externally built call graph, typically
// spanning every package of a d2t2vet invocation.
func RunGraph(pkg *Package, graph *CallGraph, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Path:      pkg.Path,
			GoVersion: pkg.GoVersion,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Graph:     graph,
			check:     a.Name,
			diags:     &diags,
		}
		a.Run(pass)
	}
	ig := collectIgnores(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !ig.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept
}
