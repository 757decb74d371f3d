// Command d2t2vet runs the repository's domain-specific static-analysis
// suite (internal/analysis) over package patterns and exits non-zero on
// findings. It is the CI gate next to go vet and the race detector:
//
//	go run ./cmd/d2t2vet ./...                  # whole module
//	go run ./cmd/d2t2vet -list                  # what the suite checks
//	go run ./cmd/d2t2vet -only ctxpropagation,goroutinehygiene ./internal/serve
//	go run ./cmd/d2t2vet -skip coordwidth ./...
//	go run ./cmd/d2t2vet -format json ./...     # machine-readable findings
//	go run ./cmd/d2t2vet -format sarif ./...    # CI annotations (upload-sarif)
//	go run ./cmd/d2t2vet -fix ./...             # apply suggested fixes
//
// All packages are loaded before any analyzer runs, and one call graph's
// node set is built over the whole set, so ctxpropagation's module
// membership check sees every function the run declares.
//
// Findings are suppressed with an annotation on the offending line or
// the line above, with a justification:
//
//	//d2t2:ignore coordwidth coords < dims, validated by tensor.New
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"d2t2/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, ""))
}

// vetConfig is the parsed command line.
type vetConfig struct {
	list     bool
	fix      bool
	format   string
	patterns []string
	checks   []*analysis.Analyzer
}

// parseArgs interprets the command line into a vetConfig. It is split
// from run so flag handling is unit-testable without loading packages.
func parseArgs(args []string, stderr io.Writer) (*vetConfig, error) {
	fs := flag.NewFlagSet("d2t2vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listFlag   = fs.Bool("list", false, "list analyzers and exit")
		jsonFlag   = fs.Bool("json", false, "emit findings as JSON (same as -format json)")
		formatFlag = fs.String("format", "text", "output format: text, json or sarif")
		onlyFlag   = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		checksFlag = fs.String("checks", "", "alias of -only (kept for older CI recipes)")
		skipFlag   = fs.String("skip", "", "comma-separated analyzer names to exclude")
		fixFlag    = fs.Bool("fix", false, "apply suggested fixes to the source, then report what remains")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	format := *formatFlag
	if *jsonFlag {
		format = "json"
	}
	switch format {
	case "text", "json", "sarif":
	default:
		return nil, fmt.Errorf("unknown -format %q (want text, json or sarif)", format)
	}
	only := *onlyFlag
	if only == "" {
		only = *checksFlag
	} else if *checksFlag != "" && *checksFlag != only {
		return nil, fmt.Errorf("-only and -checks are aliases; pass one")
	}
	checks, err := analysis.Select(only, *skipFlag)
	if err != nil {
		return nil, err
	}
	return &vetConfig{
		list:     *listFlag,
		fix:      *fixFlag,
		format:   format,
		patterns: fs.Args(),
		checks:   checks,
	}, nil
}

func run(args []string, stdout, stderr io.Writer, dir string) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "d2t2vet:", err)
		return 2
	}
	if cfg.list {
		for _, a := range cfg.checks {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	if dir == "" {
		dir, err = os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "d2t2vet:", err)
			return 2
		}
	}
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		fmt.Fprintln(stderr, "d2t2vet:", err)
		return 2
	}
	paths, err := loader.Expand(cfg.patterns)
	if err != nil {
		fmt.Fprintln(stderr, "d2t2vet:", err)
		return 2
	}

	// Load everything first so the call graph spans the whole run:
	// ctxpropagation asks whether a callee in another package, or its
	// Ctx sibling, is declared in the module.
	pkgs := make([]*analysis.Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, "d2t2vet:", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	graph := analysis.BuildCallGraph(pkgs)

	var findings []analysis.Diagnostic
	for _, pkg := range pkgs {
		findings = append(findings, analysis.RunGraph(pkg, graph, cfg.checks)...)
	}

	if cfg.fix {
		changed, applied, skippedFixes, err := analysis.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintln(stderr, "d2t2vet:", err)
			return 2
		}
		if applied > 0 {
			fmt.Fprintf(stderr, "d2t2vet: applied %d fix(es) in %d file(s)", applied, len(changed))
			if skippedFixes > 0 {
				fmt.Fprintf(stderr, ", skipped %d conflicting (re-run to apply)", skippedFixes)
			}
			fmt.Fprintln(stderr)
			for _, f := range changed {
				fmt.Fprintln(stderr, "d2t2vet: rewrote", f)
			}
		}
		// Fixed findings are resolved; keep reporting what -fix could
		// not rewrite.
		var remaining []analysis.Diagnostic
		for _, d := range findings {
			if d.Fix == nil || len(d.Fix.Edits) == 0 {
				remaining = append(remaining, d)
			}
		}
		findings = remaining
	}

	switch cfg.format {
	case "json":
		b, err := analysis.JSON(findings)
		if err != nil {
			fmt.Fprintln(stderr, "d2t2vet:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
	case "sarif":
		b, err := analysis.SARIF(findings, cfg.checks, loader.ModuleRoot)
		if err != nil {
			fmt.Fprintln(stderr, "d2t2vet:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
	default:
		for _, d := range findings {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "d2t2vet: %d finding(s) in %d package(s)\n", len(findings), len(paths))
		return 1
	}
	return 0
}
