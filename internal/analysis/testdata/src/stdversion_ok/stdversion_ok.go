//go:build go1.23

// Package stdversion_ok is a stdversion fixture whose build constraint
// requires Go 1.23: its Go 1.23 APIs are in force and not flagged.
package stdversion_ok

import (
	"iter"
	"maps"
	"slices"
)

func keys(m map[string]int) []string {
	var seq iter.Seq[string] = maps.Keys(m)
	return slices.Collect(seq)
}
