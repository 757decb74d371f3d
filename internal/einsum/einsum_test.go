package einsum

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseGustavson(t *testing.T) {
	e := MustParse("C(i,j) = A(i,k) * B(k,j) | order: i,k,j")
	if e.Out.Name != "C" || len(e.Out.Indices) != 2 {
		t.Fatalf("out = %v", e.Out)
	}
	ins := e.Inputs()
	if len(ins) != 2 || ins[0].Name != "A" || ins[1].Name != "B" {
		t.Fatalf("inputs = %v", ins)
	}
	if !reflect.DeepEqual(e.Order, []string{"i", "k", "j"}) {
		t.Fatalf("order = %v", e.Order)
	}
	if got := e.Contracted(); !reflect.DeepEqual(got, []string{"k"}) {
		t.Fatalf("contracted = %v", got)
	}
}

func TestParseDefaultOrder(t *testing.T) {
	e := MustParse("C(i,j) = A(i,k) * B(k,j)")
	if !reflect.DeepEqual(e.Order, []string{"i", "j", "k"}) {
		t.Fatalf("default order = %v", e.Order)
	}
}

func TestParseSumOfProducts(t *testing.T) {
	e := MustParse("D(i,j) = (A(i) + B(i)) * C(i,j) | order: i,j")
	prods := e.Products()
	if len(prods) != 2 {
		t.Fatalf("products = %v", prods)
	}
	if prods[0][0].Name != "A" || prods[0][1].Name != "C" {
		t.Fatalf("first product = %v", prods[0])
	}
	if prods[1][0].Name != "B" || prods[1][1].Name != "C" {
		t.Fatalf("second product = %v", prods[1])
	}
}

func TestParseNested(t *testing.T) {
	e := MustParse("E(i) = (A(i) + B(i)) * (C(i) + D(i)) | order: i")
	if got := len(e.Products()); got != 4 {
		t.Fatalf("distributed products = %d, want 4", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"C(i,j)",                                // no '='
		"C(i,j) = A(i,k * B(k,j)",               // unterminated access
		"C(i,j) = A(i,k) & B(k,j)",              // bad operator
		"C(i,j) = A(i,k) * B(k,j) | order: i,k", // j missing from order
		"C(i,j) = A(i,k) * B(k,j) | order: i,k,j,z", // unknown index
		"C(i,j) = A(i,k) * B(k,j) | order: i,i,k,j", // duplicate
		"C(i,z) = A(i,k) * B(k,j) | order: i,k,j",   // output index unused
		"C(i,j) = A(i,i) * B(i,j) | order: i,j",     // repeated index in ref
		"C(i,j) = A(i,k) * B(k,j) extra | order: i,k,j",
		"C(i,j) = (A(i,k) * B(k,j) | order: i,k,j", // missing ')'
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Fatalf("accepted invalid %q", s)
		}
	}
}

func TestFetchSpaces(t *testing.T) {
	e := SpMSpMIKJ() // order i,k,j
	a, _ := e.Input("A")
	b, _ := e.Input("B")
	// A(i,k): innermost own index is k at position 1 -> fetch space {i,k}.
	if got := e.FetchSpace(a); !reflect.DeepEqual(got, []string{"i", "k"}) {
		t.Fatalf("A fetch space = %v", got)
	}
	// B(k,j): innermost own index j at position 2 -> fetch space {i,k,j}.
	if got := e.FetchSpace(b); !reflect.DeepEqual(got, []string{"i", "k", "j"}) {
		t.Fatalf("B fetch space = %v", got)
	}
}

func TestFetchSpaceInnerProduct(t *testing.T) {
	e := SpMSpMIJK() // order i,j,k
	a, _ := e.Input("A")
	b, _ := e.Input("B")
	if got := e.FetchSpace(a); !reflect.DeepEqual(got, []string{"i", "j", "k"}) {
		t.Fatalf("A fetch space = %v", got)
	}
	if got := e.FetchSpace(b); !reflect.DeepEqual(got, []string{"i", "j", "k"}) {
		t.Fatalf("B fetch space = %v", got)
	}
}

func TestLevelOrder(t *testing.T) {
	e := SpMSpMIKJ()
	b, _ := e.Input("B")
	// B(k,j) with order i,k,j: k (pos 1) before j (pos 2): axes stay (0,1).
	if got := e.LevelOrder(b); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("B level order = %v", got)
	}
	e2 := MustParse("C(i,j) = A(i,k) * B(j,k) | order: i,k,j")
	b2, _ := e2.Input("B")
	// B(j,k): k (pos 1) sorts before j (pos 2): axis 1 first.
	if got := e2.LevelOrder(b2); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("B2 level order = %v", got)
	}
}

func TestKernels(t *testing.T) {
	for _, e := range []*Expr{SpMSpMIKJ(), SpMSpMIJK(), TTM(), MTTKRP3()} {
		if err := e.Validate(); err != nil {
			t.Fatalf("%s: %v", e, err)
		}
	}
	ttm := TTM()
	if got := ttm.Contracted(); !reflect.DeepEqual(got, []string{"l"}) {
		t.Fatalf("TTM contracted = %v", got)
	}
	mt := MTTKRP3()
	if got := mt.Contracted(); !reflect.DeepEqual(got, []string{"k", "l"}) {
		t.Fatalf("MTTKRP contracted = %v", got)
	}
	if len(mt.Products()[0]) != 3 {
		t.Fatal("MTTKRP product should have three factors")
	}
}

func TestMTTKRPFetchSpaces(t *testing.T) {
	e := MTTKRP3() // order i,k,l,j
	a, _ := e.Input("A")
	b, _ := e.Input("B")
	c, _ := e.Input("C")
	if got := e.FetchSpace(a); !reflect.DeepEqual(got, []string{"i", "k", "l"}) {
		t.Fatalf("A fetch space = %v", got)
	}
	// B(j,k): j is innermost (pos 3): refetched over everything.
	if got := e.FetchSpace(b); len(got) != 4 {
		t.Fatalf("B fetch space = %v", got)
	}
	if got := e.FetchSpace(c); len(got) != 4 {
		t.Fatalf("C fetch space = %v", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	e := MustParse("D(i,j) = (A(i) + B(i)) * C(i,j) | order: i,j")
	e2, err := Parse(e.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", e.String(), err)
	}
	if !reflect.DeepEqual(e.Products(), e2.Products()) {
		t.Fatal("string round trip changed products")
	}
}

func TestWithOrderAndPermutations(t *testing.T) {
	e := SpMSpMIKJ()
	v, err := e.WithOrder([]string{"k", "i", "j"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Order, []string{"k", "i", "j"}) {
		t.Fatalf("order = %v", v.Order)
	}
	// The original is untouched.
	if !reflect.DeepEqual(e.Order, []string{"i", "k", "j"}) {
		t.Fatal("WithOrder mutated the receiver")
	}
	// Level orders adapt: A(i,k) under k-major becomes axis order (1,0).
	a, _ := v.Input("A")
	if got := v.LevelOrder(a); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("A level order under kij = %v", got)
	}
	for _, bad := range [][]string{{"i", "k"}, {"i", "k", "z"}, {"i", "i", "k"}} {
		if _, err := e.WithOrder(bad); err == nil {
			t.Fatalf("accepted bad order %v", bad)
		}
	}
	perms := MTTKRP3().OrderPermutations()
	if len(perms) != 24 {
		t.Fatalf("4 indices should give 24 permutations, got %d", len(perms))
	}
}

func TestNodeStrings(t *testing.T) {
	e := MustParse("D(i) = (A(i) + B(i)) * C(i) | order: i")
	s := e.RHS.String()
	if !strings.Contains(s, "A(i) + B(i)") || !strings.Contains(s, "* C(i)") {
		t.Fatalf("node string = %q", s)
	}
	if _, err := e.Input("Z"); err == nil {
		t.Fatal("unknown input accepted")
	}
}

func TestProductsIdxSharedOccurrence(t *testing.T) {
	e := MustParse("D(i) = (A(i) + B(i)) * C(i) | order: i")
	idx := e.ProductsIdx()
	if len(idx) != 2 {
		t.Fatalf("products = %v", idx)
	}
	// C is occurrence 2 in both summands.
	if idx[0][1] != 2 || idx[1][1] != 2 {
		t.Fatalf("shared occurrence not preserved: %v", idx)
	}
}

// TestEqualMatchesString pins Expr.Equal to the comparison it replaces:
// two parsed statements are Equal exactly when they print the same
// String, nested products and parenthesized sums included.
func TestEqualMatchesString(t *testing.T) {
	srcs := []string{
		"C(i,j) = A(i,k) * B(k,j) | order: i,k,j",
		"C(i,j) = A(i,k) * B(k,j) | order: i,j,k",
		"C(i,j) = B(i,k) * A(k,j) | order: i,k,j",
		"C(i,j) = A(i,k) * B(k,l) * D(l,j) | order: i,k,l,j",
		"C(i,j) = A(i,k) * (B(k,l) * D(l,j)) | order: i,k,l,j",
		"C(i,j) = (A(i,k) * B(k,l)) * D(l,j) | order: i,k,l,j",
		"C(i,j) = A(i,j) + B(i,j) | order: i,j",
		"C(i,j) = (A(i,j) + B(i,j)) + D(i,j) | order: i,j",
		"C(i,j) = A(i,j) + (B(i,j) + D(i,j)) | order: i,j",
		"C(i,j) = (A(i,k) + B(i,k)) * D(k,j) | order: i,k,j",
		"C(j,i) = A(i,k) * B(k,j) | order: i,k,j",
	}
	var exprs []*Expr
	for _, s := range srcs {
		e, err := Parse(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		exprs = append(exprs, e)
	}
	for _, e := range exprs {
		for _, f := range exprs {
			if got, want := e.Equal(f), e.String() == f.String(); got != want {
				t.Errorf("%s Equal %s = %v, String equality %v", e, f, got, want)
			}
		}
	}
}
