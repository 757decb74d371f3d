package experiments

import (
	"context"
	"reflect"
	"testing"
)

// TestDeterministicAcrossWorkers is the regression gate for the exact
// counter merge in internal/exec: the same experiment run with one
// worker and with four workers must produce byte-identical table rows
// and notes. Any approximate merge, map-order dependence, or unseeded
// randomness in the measurement path shows up here as a diff.
func TestDeterministicAcrossWorkers(t *testing.T) {
	experiments := []struct {
		name string
		run  func(context.Context, *Suite) (*Table, error)
		// rowsExact demands byte-identical rows and notes. Fig7 reports
		// wall-clock milliseconds, so only its structure (labels, row
		// count) can be compared across runs.
		rowsExact bool
	}{
		{"fig6a", Fig6a, true},
		{"fig6c", Fig6c, true},
		{"fig7", Fig7, false},
	}
	for _, exp := range experiments {
		t.Run(exp.name, func(t *testing.T) {
			var tables []*Table
			for _, workers := range []int{1, 4} {
				s := &Suite{Scale: 96, TileSide: 32, Labels: []string{"A", "I"}, Workers: workers}
				tbl, err := exp.run(context.Background(), s)
				if err != nil {
					t.Fatalf("%s with Workers=%d: %v", exp.name, workers, err)
				}
				if len(tbl.Rows) == 0 {
					t.Fatalf("%s with Workers=%d produced no rows", exp.name, workers)
				}
				tables = append(tables, tbl)
			}
			if !exp.rowsExact {
				if !reflect.DeepEqual(labelColumn(tables[0]), labelColumn(tables[1])) {
					t.Errorf("row labels differ between Workers=1 and Workers=4:\n1: %v\n4: %v",
						labelColumn(tables[0]), labelColumn(tables[1]))
				}
				return
			}
			if !reflect.DeepEqual(tables[0].Rows, tables[1].Rows) {
				t.Errorf("rows differ between Workers=1 and Workers=4:\n1: %v\n4: %v",
					tables[0].Rows, tables[1].Rows)
			}
			if !reflect.DeepEqual(tables[0].Notes, tables[1].Notes) {
				t.Errorf("notes differ between Workers=1 and Workers=4:\n1: %v\n4: %v",
					tables[0].Notes, tables[1].Notes)
			}
		})
	}
}

func labelColumn(tbl *Table) []string {
	out := make([]string, len(tbl.Rows))
	for i, row := range tbl.Rows {
		out[i] = row[0]
	}
	return out
}
