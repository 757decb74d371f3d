package main

import (
	"os"
	"path/filepath"
	"testing"

	"d2t2"
)

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig("i=512, k=32,j=512")
	if err != nil {
		t.Fatal(err)
	}
	if cfg["i"] != 512 || cfg["k"] != 32 || cfg["j"] != 512 {
		t.Fatalf("cfg = %v", cfg)
	}
	for _, bad := range []string{"", "i", "i=0", "i=x", "i=1,"} {
		if _, err := parseConfig(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestInputFlags(t *testing.T) {
	f := inputFlags{}
	if err := f.Set("A=a.mtx"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("B=dataset:C:64"); err != nil {
		t.Fatal(err)
	}
	if f["A"] != "a.mtx" || f["B"] != "dataset:C:64" {
		t.Fatalf("flags = %v", f)
	}
	if err := f.Set("noequals"); err == nil {
		t.Fatal("bad flag accepted")
	}
	if f.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLoadTensorDatasetAndFile(t *testing.T) {
	// dataset: prefix path.
	d, err := loadTensor("dataset:Q:96")
	if err != nil {
		t.Fatal(err)
	}
	if d.NNZ() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := loadTensor("dataset:Q:xx"); err == nil {
		t.Fatal("bad scale accepted")
	}
	if _, err := loadTensor("/nonexistent/file.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}

	// Real file round trip through the loader.
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	m := d2t2.NewTensor(4, 4)
	m.Set([]int{1, 2}, 3)
	if err := m.ToMatrixMarket(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := loadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 1 {
		t.Fatal("file load lost data")
	}

	// tns path.
	tnsPath := filepath.Join(dir, "t.tns")
	f2, _ := os.Create(tnsPath)
	t3 := d2t2.NewTensor(3, 3, 3)
	t3.Set([]int{0, 1, 2}, 4)
	if err := t3.ToTNS(f2); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	back3, err := loadTensor(tnsPath)
	if err != nil {
		t.Fatal(err)
	}
	if back3.Order() != 3 {
		t.Fatalf("tns load order = %d", back3.Order())
	}
}

func TestCmdGenAndOptimizeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "gen.mtx")
	if err := cmdGen([]string{"-label", "Q", "-scale", "96", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-input", "A=" + out, "-tile", "32"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdOptimize([]string{
		"-input", "A=" + out, "-input", "B=dataset:Q:96", "-tile", "32",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMeasure([]string{
		"-input", "A=" + out, "-input", "B=dataset:Q:96",
		"-config", "i=32,k=32,j=32",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPredict([]string{
		"-input", "A=" + out, "-input", "B=dataset:Q:96",
		"-config", "i=64,k=16,j=64", "-tile", "32",
	}); err != nil {
		t.Fatal(err)
	}
}
