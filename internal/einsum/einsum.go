// Package einsum implements the tensor index notation (TIN) the paper
// uses to describe kernels: an output tensor defined by sums and products
// of input tensor accesses, together with a dataflow order over the index
// variables (the loop order of the generated nest, §2).
//
// Example inputs accepted by Parse:
//
//	C(i,j) = A(i,k) * B(k,j)            | order: i,k,j
//	D(i,j) = (A(i) + B(i)) * C(i,j)     | order: i,j
//	X(i,j,k) = C(i,j,l) * B(k,l)        | order: i,j,l,k
//
// The IR is deliberately small: references, binary Add and Mul. The
// traffic model consumes the sum-of-products normal form via Products().
package einsum

import (
	"fmt"
	"slices"
	"strings"
)

// Ref is a tensor access: a tensor name and the index variable bound to
// each axis (Indices[a] indexes axis a).
type Ref struct {
	Name    string
	Indices []string
}

func (r Ref) String() string {
	return r.Name + "(" + strings.Join(r.Indices, ",") + ")"
}

// Node is an expression-tree node: Ref, Add or Mul.
type Node interface {
	fmt.Stringer
	isNode()
}

// Add is elementwise addition (union of sparsity structures).
type Add struct{ A, B Node }

// Mul is elementwise/contraction multiplication (intersection).
type Mul struct{ A, B Node }

func (Ref) isNode() {}
func (Add) isNode() {}
func (Mul) isNode() {}

func (n Add) String() string { return "(" + n.A.String() + " + " + n.B.String() + ")" }
func (n Mul) String() string { return n.A.String() + " * " + n.B.String() }

// Expr is a full TIN statement: output access, right-hand side, and the
// dataflow order over every distinct index variable.
type Expr struct {
	Out   Ref
	RHS   Node
	Order []string
}

func (e *Expr) String() string {
	return fmt.Sprintf("%s = %s | order: %s", e.Out, e.RHS, strings.Join(e.Order, ","))
}

// Equal reports whether e and f are the same statement — for parsed
// statements, whether they print the same String — without formatting
// either: outputs, orders and right-hand sides compared field by field.
// A chain of products compares as its list of factors, whatever its
// nesting, since String prints a product unparenthesized.
func (e *Expr) Equal(f *Expr) bool {
	return e == f || sameRef(e.Out, f.Out) && slices.Equal(e.Order, f.Order) && sameNode(e.RHS, f.RHS)
}

func sameRef(a, b Ref) bool { return a.Name == b.Name && slices.Equal(a.Indices, b.Indices) }

// sameNode is Equal's comparison of two expression trees.
func sameNode(a, b Node) bool {
	switch x := a.(type) {
	case Ref:
		y, ok := b.(Ref)
		return ok && sameRef(x, y)
	case Add:
		y, ok := b.(Add)
		return ok && sameNode(x.A, y.A) && sameNode(x.B, y.B)
	case Mul:
		if _, ok := b.(Mul); !ok {
			return false
		}
		var fa, fb [8]Node
		return slices.EqualFunc(appendFactors(fa[:0], x), appendFactors(fb[:0], b), sameNode)
	}
	return a == nil && b == nil
}

// appendFactors appends the factors of the product chain under n, left
// to right: n itself when it is not a product.
func appendFactors(out []Node, n Node) []Node {
	if m, ok := n.(Mul); ok {
		return appendFactors(appendFactors(out, m.A), m.B)
	}
	return append(out, n)
}

// Inputs returns every tensor reference in the RHS in left-to-right
// order (duplicated names appear once per occurrence).
func (e *Expr) Inputs() []Ref {
	return appendRefs(make([]Ref, 0, 4), e.RHS)
}

// appendRefs appends the tensor references under n to out, left to
// right. The search asks Inputs per candidate config, so the walk is
// one allocation for the kernels it sizes, not a closure and a growing
// slice.
func appendRefs(out []Ref, n Node) []Ref {
	switch v := n.(type) {
	case Ref:
		return append(out, v)
	case Add:
		return appendRefs(appendRefs(out, v.A), v.B)
	case Mul:
		return appendRefs(appendRefs(out, v.A), v.B)
	}
	return out
}

// Input returns the first reference to the named tensor, or an error.
func (e *Expr) Input(name string) (Ref, error) {
	for _, r := range e.Inputs() {
		if r.Name == name {
			return r, nil
		}
	}
	return Ref{}, fmt.Errorf("einsum: no input tensor %q", name)
}

// Contracted returns the index variables that appear in the RHS but not
// in the output — the reduction variables.
func (e *Expr) Contracted() []string {
	outSet := make(map[string]bool)
	for _, ix := range e.Out.Indices {
		outSet[ix] = true
	}
	seen := make(map[string]bool)
	var res []string
	for _, r := range e.Inputs() {
		for _, ix := range r.Indices {
			if !outSet[ix] && !seen[ix] {
				seen[ix] = true
				res = append(res, ix)
			}
		}
	}
	return res
}

// Products returns the sum-of-products normal form of the RHS: one slice
// of references per summand. (A+B)*C normalizes to [[A,C],[B,C]].
func (e *Expr) Products() [][]Ref {
	var norm func(Node) [][]Ref
	norm = func(n Node) [][]Ref {
		switch v := n.(type) {
		case Ref:
			return [][]Ref{{v}}
		case Add:
			return append(norm(v.A), norm(v.B)...)
		case Mul:
			left, right := norm(v.A), norm(v.B)
			var out [][]Ref
			for _, l := range left {
				for _, r := range right {
					term := make([]Ref, 0, len(l)+len(r))
					term = append(term, l...)
					term = append(term, r...)
					out = append(out, term)
				}
			}
			return out
		}
		return nil
	}
	return norm(e.RHS)
}

// WithOrder returns a copy of the expression with a different dataflow
// order (validated against the expression's indices).
func (e *Expr) WithOrder(order []string) (*Expr, error) {
	out := &Expr{Out: e.Out, RHS: e.RHS, Order: append([]string(nil), order...)}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// OrderPermutations returns every permutation of the expression's index
// variables as a candidate dataflow order. The count is factorial in the
// index count; kernels have 3-4 indices in practice.
func (e *Expr) OrderPermutations() [][]string {
	base := append([]string(nil), e.Order...)
	var out [][]string
	var rec func(k int)
	rec = func(k int) {
		if k == len(base) {
			out = append(out, append([]string(nil), base...))
			return
		}
		for i := k; i < len(base); i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// ProductsIdx returns the sum-of-products normal form with each factor
// given as an occurrence index into Inputs() order, preserving occurrence
// identity for tensors shared between summands.
func (e *Expr) ProductsIdx() [][]int {
	counter := 0
	var norm func(Node) [][]int
	norm = func(n Node) [][]int {
		switch v := n.(type) {
		case Ref:
			idx := counter
			counter++
			return [][]int{{idx}}
		case Add:
			return append(norm(v.A), norm(v.B)...)
		case Mul:
			left, right := norm(v.A), norm(v.B)
			var out [][]int
			for _, l := range left {
				for _, r := range right {
					term := make([]int, 0, len(l)+len(r))
					term = append(term, l...)
					term = append(term, r...)
					out = append(out, term)
				}
			}
			return out
		}
		return nil
	}
	return norm(e.RHS)
}

// OrderPos returns the position of an index variable in the dataflow
// order, or -1.
func (e *Expr) OrderPos(ix string) int {
	for p, o := range e.Order {
		if o == ix {
			return p
		}
	}
	return -1
}

// FetchLevel returns the loop depth at which the given reference must be
// (re)fetched: the position in the dataflow order of the reference's
// innermost own index. The reference stays buffer-resident across loops
// deeper than this level.
func (e *Expr) FetchLevel(r Ref) int {
	level := -1
	for _, ix := range r.Indices {
		if p := e.OrderPos(ix); p > level {
			level = p
		}
	}
	return level
}

// FetchSpace returns the loop indices (outermost first) that drive
// re-fetches of the reference: Order[0 .. FetchLevel].
func (e *Expr) FetchSpace(r Ref) []string {
	return e.Order[:e.FetchLevel(r)+1]
}

// LevelOrder returns the axis permutation that stores the referenced
// tensor with CSF levels in dataflow order: axes sorted by the position
// of their index variable in Order. This is the "tensor storage format
// needs to match the dataflow order" requirement of §2.
func (e *Expr) LevelOrder(r Ref) []int {
	axes := make([]int, len(r.Indices))
	for a := range axes {
		axes[a] = a
	}
	for x := 1; x < len(axes); x++ {
		for y := x; y > 0 && e.OrderPos(r.Indices[axes[y]]) < e.OrderPos(r.Indices[axes[y-1]]); y-- {
			axes[y], axes[y-1] = axes[y-1], axes[y]
		}
	}
	return axes
}

// Validate checks: output indices appear in the RHS, every index has a
// position in the dataflow order, the order has no unknown or duplicate
// entries, and no reference repeats an index variable.
func (e *Expr) Validate() error {
	all := make(map[string]bool)
	for _, r := range append(e.Inputs(), e.Out) {
		seen := make(map[string]bool)
		for _, ix := range r.Indices {
			if seen[ix] {
				return fmt.Errorf("einsum: index %q repeated within %s", ix, r)
			}
			seen[ix] = true
		}
	}
	for _, r := range e.Inputs() {
		for _, ix := range r.Indices {
			all[ix] = true
		}
	}
	for _, ix := range e.Out.Indices {
		if !all[ix] {
			return fmt.Errorf("einsum: output index %q not produced by any input", ix)
		}
	}
	inOrder := make(map[string]bool)
	for _, ix := range e.Order {
		if inOrder[ix] {
			return fmt.Errorf("einsum: index %q duplicated in dataflow order", ix)
		}
		if !all[ix] {
			return fmt.Errorf("einsum: dataflow order names unknown index %q", ix)
		}
		inOrder[ix] = true
	}
	// Walk the inputs, not the set, so the error names the same index
	// on every run.
	for _, r := range e.Inputs() {
		for _, ix := range r.Indices {
			if !inOrder[ix] {
				return fmt.Errorf("einsum: index %q missing from dataflow order", ix)
			}
		}
	}
	return nil
}
