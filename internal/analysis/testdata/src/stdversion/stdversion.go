// Package stdversion is a stdversion fixture, held to go.mod's go 1.22:
// packages, functions, methods and struct fields added after Go 1.22
// must be flagged; Go 1.22 and older APIs must not.
package stdversion

import (
	"cmp"
	"iter" // want "package iter is go1.23 API"
	"maps"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"sync"
	"weak" // want "package weak is go1.24 API"
)

func newer(m map[string]int, p *int) error {
	_ = weak.Make(p) // reported once, at the import
	var seq iter.Seq[string]
	_ = seq
	runtime.AddCleanup(p, func(int) {}, 0) // want "runtime.AddCleanup is go1.24 API"
	_ = maps.Keys(m)                       // want "maps.Keys is go1.23 API"
	var sm sync.Map
	sm.Clear()                         // want "sync.Map.Clear is go1.23 API"
	e := &net.DNSError{UnwrapErr: nil} // want "net.DNSError.UnwrapErr is go1.23 API"
	return e.UnwrapErr                 // want "net.DNSError.UnwrapErr is go1.23 API"
}

func older(m map[string]int) int {
	var sm sync.Map
	sm.Store("k", 1)
	_ = &net.DNSError{Err: "e"}
	s := slices.Concat([]int{1}, []int{rand.N(2)})
	return cmp.Or(len(m), len(s))
}

func suppressed() {
	var sm sync.Map
	//d2t2:ignore stdversion the fixture's suppression case
	sm.Clear()
}
