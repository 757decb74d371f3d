package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseArgs(t *testing.T) {
	names := func(cfg *vetConfig) []string {
		var out []string
		for _, a := range cfg.checks {
			out = append(out, a.Name)
		}
		return out
	}

	t.Run("defaults", func(t *testing.T) {
		cfg, err := parseArgs([]string{"./..."}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.list || cfg.fix || cfg.format != "text" {
			t.Fatalf("defaults wrong: %+v", cfg)
		}
		if len(cfg.checks) != 9 {
			t.Fatalf("default suite has %d analyzers, want 9: %v", len(cfg.checks), names(cfg))
		}
		if len(cfg.patterns) != 1 || cfg.patterns[0] != "./..." {
			t.Fatalf("patterns = %v", cfg.patterns)
		}
	})

	t.Run("only", func(t *testing.T) {
		cfg, err := parseArgs([]string{"-only", "ctxpropagation,coordwidth", "./..."}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		got := names(cfg)
		if len(got) != 2 || got[0] != "coordwidth" || got[1] != "ctxpropagation" {
			t.Fatalf("-only selection = %v", got)
		}
	})

	t.Run("checks alias", func(t *testing.T) {
		cfg, err := parseArgs([]string{"-checks", "scratchescape"}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if got := names(cfg); len(got) != 1 || got[0] != "scratchescape" {
			t.Fatalf("-checks selection = %v", got)
		}
	})

	t.Run("only and checks conflict", func(t *testing.T) {
		if _, err := parseArgs([]string{"-only", "stdversion", "-checks", "coordwidth"}, &bytes.Buffer{}); err == nil {
			t.Fatal("conflicting -only/-checks accepted")
		}
	})

	t.Run("skip", func(t *testing.T) {
		cfg, err := parseArgs([]string{"-skip", "coordwidth,panicpolicy"}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		got := names(cfg)
		if len(got) != 7 {
			t.Fatalf("-skip left %d analyzers, want 7: %v", len(got), got)
		}
		for _, n := range got {
			if n == "coordwidth" || n == "panicpolicy" {
				t.Fatalf("skipped analyzer %s still selected", n)
			}
		}
	})

	t.Run("skip beats only", func(t *testing.T) {
		cfg, err := parseArgs([]string{"-only", "stdversion,coordwidth", "-skip", "coordwidth"}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if got := names(cfg); len(got) != 1 || got[0] != "stdversion" {
			t.Fatalf("selection = %v", got)
		}
	})

	t.Run("unknown analyzer", func(t *testing.T) {
		if _, err := parseArgs([]string{"-only", "nosuchcheck"}, &bytes.Buffer{}); err == nil {
			t.Fatal("unknown analyzer accepted")
		}
		if _, err := parseArgs([]string{"-skip", "nosuchcheck"}, &bytes.Buffer{}); err == nil {
			t.Fatal("unknown -skip analyzer accepted")
		}
	})

	t.Run("formats", func(t *testing.T) {
		for _, f := range []string{"text", "json", "sarif"} {
			cfg, err := parseArgs([]string{"-format", f}, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			if cfg.format != f {
				t.Fatalf("format = %q, want %q", cfg.format, f)
			}
		}
		if _, err := parseArgs([]string{"-format", "xml"}, &bytes.Buffer{}); err == nil {
			t.Fatal("-format xml accepted")
		}
		cfg, err := parseArgs([]string{"-json"}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.format != "json" {
			t.Fatalf("-json did not select json format: %q", cfg.format)
		}
	})
}

func TestListOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb, ""); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errb.String())
	}
	want := []string{
		"coordwidth", "csfmutation", "ctxpropagation",
		"floatdeterminism", "goroutinehygiene", "panicpolicy",
		"reductionorder", "scratchescape", "stdversion",
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, name := range want {
		if got, _, _ := strings.Cut(lines[i], " "); got != name {
			t.Errorf("-list line %d names %q, want %s", i+1, got, name)
		}
	}
}
