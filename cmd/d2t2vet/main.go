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

	var findings []analysis.Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, "d2t2vet:", err)
			return 2
		}
		findings = append(findings, analysis.Run(pkg, cfg.checks)...)
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
