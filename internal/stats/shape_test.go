package stats

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"d2t2/internal/checked"
	"d2t2/internal/gen"
	"d2t2/internal/radix"
	"d2t2/internal/tensor"
)

// evalShapeMap is the hash-map group-by evalShape replaced by the radix
// sort: a map from tile tuple to group, a comparison sort of the group
// tuples, and one prefix set per level. It is the reference oracle of
// TestEvalShapeMatchesMapOracle and FuzzEvalShape, and keys tiles and
// prefixes by their coordinate tuples, so it shares no code with the
// key codec it checks: it only decodes the micro keys, by its own
// arithmetic (row-major, last axis least significant).
func (s *Stats) evalShapeMap(tileDims []int) (*ShapeStats, error) {
	ms := s.micro
	n := len(ms.dims)
	factors := make([]int, n)
	for a, td := range tileDims {
		if td < 1 || td%ms.microDims[a] != 0 {
			return nil, fmt.Errorf("bad tile dim %d on axis %d", td, a)
		}
		factors[a] = td / ms.microDims[a]
	}
	out := &ShapeStats{
		TileDims:  append([]int(nil), tileDims...),
		OuterDims: make([]int, n),
		Marginal:  make([]float64, n),
		Occupied:  make([]int, n),
	}
	area := 1.0
	for a := range out.OuterDims {
		out.OuterDims[a] = (ms.dims[a] + tileDims[a] - 1) / tileDims[a]
		area *= float64(tileDims[a])
	}
	type agg struct{ nnz, fp int }
	gid := make(map[string]int)
	var aggs []agg
	var gtuples [][]int
	axisOcc := make([][]bool, n)
	for a := range axisOcc {
		axisOcc[a] = make([]bool, out.OuterDims[a])
	}
	prefixOcc := make([]map[string]struct{}, n)
	for l := range prefixOcc {
		prefixOcc[l] = make(map[string]struct{})
	}
	for idx, k := range ms.keys {
		oc := make([]int, n)
		for a := n - 1; a >= 0; a-- {
			d := uint64(ms.outerDims[a])
			oc[a] = int(k%d) / factors[a]
			k /= d
		}
		var prefix []int
		for l := 0; l < n; l++ {
			prefix = append(prefix, oc[s.Order[l]])
			prefixOcc[l][fmt.Sprint(prefix)] = struct{}{}
		}
		for a := range oc {
			axisOcc[a][oc[a]] = true
		}
		gk := fmt.Sprint(oc)
		g, ok := gid[gk]
		if !ok {
			g = len(aggs)
			gid[gk] = g
			aggs = append(aggs, agg{})
			gtuples = append(gtuples, oc)
		}
		aggs[g].nnz += int(ms.nnz[idx])
		aggs[g].fp += int(ms.footprint[idx])
	}
	out.Order = append([]int(nil), s.Order...)
	out.PrefixOccupied = make([]int, n)
	for a := 0; a < n; a++ {
		for _, b := range axisOcc[a] {
			if b {
				out.Occupied[a]++
			}
		}
	}
	for l := 0; l < n; l++ {
		out.PrefixOccupied[l] = len(prefixOcc[l])
	}
	out.NumTiles = len(aggs)
	out.FPScale = ms.fpScale
	perm := make([]int, len(gtuples))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool { return slices.Compare(gtuples[perm[x]], gtuples[perm[y]]) < 0 })
	out.GroupOuter = make([]int32, 0, n*len(aggs))
	out.GroupFP = make([]float64, 0, len(aggs))
	out.fp = make([]int, 0, len(aggs))
	totalFP, totalNNZ := 0, 0
	for _, pi := range perm {
		g := aggs[pi]
		totalFP += g.fp
		totalNNZ += g.nnz
		if g.fp > out.MaxTile {
			out.MaxTile = g.fp
		}
		for _, v := range gtuples[pi] {
			out.GroupOuter = append(out.GroupOuter, checked.Int32(v))
		}
		out.GroupFP = append(out.GroupFP, float64(g.fp))
		out.fp = append(out.fp, g.fp)
	}
	if out.NumTiles > 0 {
		out.MaxTileBound = out.MaxTile
		out.SizeTile = ms.fpScale * float64(totalFP) / float64(out.NumTiles)
		out.MaxTile = int(ms.fpScale * float64(out.MaxTile))
		out.MeanNNZ = float64(totalNNZ) / float64(out.NumTiles)
		out.Density = out.MeanNNZ / area
		for i := range out.GroupFP {
			out.GroupFP[i] *= ms.fpScale
		}
	}
	domain := 1.0
	for _, d := range out.OuterDims {
		domain *= float64(d)
	}
	if domain > 0 {
		out.PTile = float64(out.NumTiles) / domain
	}
	for a := 0; a < n; a++ {
		if out.OuterDims[a] > 0 {
			out.Marginal[a] = float64(out.Occupied[a]) / float64(out.OuterDims[a])
		}
	}
	return out, nil
}

// checkShapeOracle evaluates shape with the radix group-by and the map
// oracle and fails unless the two ShapeStats deep-equal.
func checkShapeOracle(t *testing.T, s *Stats, shape []int) {
	t.Helper()
	got, err := s.evalShape(shape)
	if err != nil {
		t.Fatalf("shape %v: %v", shape, err)
	}
	checkAgainstOracle(t, s, shape, got)
}

// checkAgainstOracle fails unless got deep-equals the map oracle's
// evaluation of shape: every exported field, and the integer footprint
// column against the oracle's member sums.
func checkAgainstOracle(t testing.TB, s *Stats, shape []int, got *ShapeStats) {
	t.Helper()
	want, err := s.evalShapeMap(shape)
	if err != nil {
		t.Fatalf("shape %v: oracle: %v", shape, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shape %v (order %v): radix group-by differs from the map oracle:\n got %+v\nwant %+v",
			shape, s.Order, got, want)
	}
}

// TestEvalShapeMatchesMapOracle pins the radix group-by to the map
// oracle, field for field, over matrices, 3- and 4-tensors, identity and
// permuted level orders, MicroDiv 1/4/8 and random micro-multiple
// shapes (including shapes past the tensor extent).
func TestEvalShapeMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tensors := []struct {
		name  string
		m     *tensor.COO
		base  []int
		order [][]int
	}{
		{"matrix", gen.PowerLawGraph(r, 300, 4000, 1.6), []int{32, 32}, [][]int{{0, 1}, {1, 0}}},
		{"rect", gen.UniformRandom(r, 70, 500, 900), []int{16, 64}, [][]int{{0, 1}, {1, 0}}},
		{"tensor3", gen.RandomTensor3(r, 48, 40, 56, 3000, [3]float64{0.5, 0, 1}), []int{8, 8, 8},
			[][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}},
		{"tensor4", random4(rand.New(rand.NewSource(4)), 20, 16, 24, 12, 2500), []int{4, 4, 4, 4},
			[][]int{{0, 1, 2, 3}, {3, 1, 0, 2}}},
	}
	for _, tc := range tensors {
		for _, order := range tc.order {
			for _, div := range []int{1, 4, 8} {
				s, _, err := CollectCtx(context.Background(), tc.m, tc.base, order, &Options{MicroDiv: div})
				if err != nil {
					t.Fatal(err)
				}
				micro := s.MicroDims()
				for trial := 0; trial < 12; trial++ {
					shape := make([]int, len(micro))
					for a, md := range micro {
						shape[a] = md * (1 + r.Intn(2*tc.m.Dims[a]/md+1))
					}
					checkShapeOracle(t, s, shape)
				}
				checkShapeOracle(t, s, micro)
			}
		}
	}
}

// TestEvalShapeDeriveConcurrent prices overlapping sets of nested and
// non-nested shapes on one bundle from many goroutines, so shapes are
// derived from whichever refining shapes happen to have landed: every
// result must deep-equal the map oracle, and some must be derived.
func TestEvalShapeDeriveConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tensors := []struct {
		m     *tensor.COO
		base  []int
		order []int
	}{
		{gen.PowerLawGraph(r, 400, 6000, 1.6), []int{32, 32}, []int{1, 0}},
		{gen.RandomTensor3(r, 48, 40, 56, 3000, [3]float64{0.5, 0, 1}), []int{8, 8, 8}, []int{2, 0, 1}},
	}
	for _, tc := range tensors {
		s, _, err := CollectCtx(context.Background(), tc.m, tc.base, tc.order, &Options{MicroDiv: 8})
		if err != nil {
			t.Fatal(err)
		}
		micro := s.MicroDims()
		var shapes [][]int
		for i := 0; i < 40; i++ {
			shape := make([]int, len(micro))
			for a, md := range micro {
				shape[a] = md * []int{1, 2, 3, 4, 6, 8, 12, 16, 64, 1 << 10}[r.Intn(10)]
			}
			shapes = append(shapes, shape)
		}
		want := make([]*ShapeStats, len(shapes))
		for i, shape := range shapes {
			if want[i], err = s.evalShapeMap(shape); err != nil {
				t.Fatal(err)
			}
		}
		var derived atomic.Int64
		s.ObserveShapeEvals(func(d bool) {
			if d {
				derived.Add(1)
			}
		})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(shapes)) {
					got, err := s.EvalShape(shapes[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("shape %v: concurrent evaluation differs from the map oracle", shapes[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if derived.Load() == 0 {
			t.Fatalf("order-%d tensor: no shape was derived from a memoized one", len(micro))
		}
	}
}

// random4 draws nnz uniform entries (duplicates summed) of a
// d0×d1×d2×d3 tensor.
func random4(r *rand.Rand, d0, d1, d2, d3, nnz int) *tensor.COO {
	m := tensor.New(d0, d1, d2, d3)
	for p := 0; p < nnz; p++ {
		m.Append([]int{r.Intn(d0), r.Intn(d1), r.Intn(d2), r.Intn(d3)}, 1)
	}
	m.Dedup()
	return m
}

// FuzzEvalShape decodes a micro summary from the fuzz bytes and checks
// the radix group-by against the map oracle, first from the micro
// summary, then derived from a memoized parent shape that refines the
// target. The first byte picks the order (2 to 4) and level order, the
// next three bytes per axis the micro grid extent, the micro dimension
// and the tile factor (its high part the parent's), one byte the
// footprint scale; each later triple is one micro tile (its coordinates
// from the first two bytes, nnz and footprint from the third). Duplicate
// micro tiles keep the first.
func FuzzEvalShape(f *testing.F) {
	f.Add([]byte{0, 4, 2, 2, 3, 1, 1, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 9, 1, 3, 7, 2, 1, 5, 4, 4, 16, 200, 17, 33, 90, 250, 11, 0, 0, 255, 128, 3})
	f.Add([]byte{3, 16, 3, 8, 1, 1, 1, 2, 2, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0]%3)
		orders := map[int][][]int{
			2: {{0, 1}, {1, 0}},
			3: {{0, 1, 2}, {2, 0, 1}, {1, 2, 0}},
			4: {{0, 1, 2, 3}, {3, 1, 0, 2}, {2, 0, 3, 1}},
		}[n]
		order := orders[int(data[0]/3)%len(orders)]
		data = data[1:]
		if len(data) < 3*n+1 {
			return
		}
		ms := &microSummary{dims: make([]int, n), microDims: make([]int, n), outerDims: make([]int, n)}
		shape := make([]int, n)
		for a := 0; a < n; a++ {
			ms.outerDims[a] = 1 + int(data[3*a])%24
			ms.microDims[a] = 1 + int(data[3*a+1])%4
			ms.dims[a] = ms.outerDims[a] * ms.microDims[a]
			shape[a] = ms.microDims[a] * (1 + int(data[3*a+2])%10)
		}
		// The tile factor byte's high part picks a parent shape that
		// refines the target: a divisor of the target's factor, or any
		// factor on an axis the target covers with one tile.
		parent := make([]int, n)
		for a := 0; a < n; a++ {
			f, pick := shape[a]/ms.microDims[a], int(data[3*a+2])/10
			if shape[a] >= ms.dims[a] {
				parent[a] = ms.microDims[a] * (1 + pick%10)
				continue
			}
			var divs []int
			for d := 1; d <= f; d++ {
				if f%d == 0 {
					divs = append(divs, d)
				}
			}
			parent[a] = ms.microDims[a] * divs[pick%len(divs)]
		}
		ms.fpScale = 0.5 + float64(data[3*n])/128
		data = data[3*n+1:]
		micro, err := radix.NewCodec(ms.outerDims)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool)
		mc := make([]int, n)
		for i := 0; i+2 < len(data); i += 3 {
			x := int(data[i]) | int(data[i+1])<<8
			for a := 0; a < n; a++ {
				mc[a] = x % ms.outerDims[a]
				x /= ms.outerDims[a]
			}
			k, _ := micro.Encode(mc)
			if seen[k] {
				continue
			}
			seen[k] = true
			ms.keys = append(ms.keys, k)
			ms.nnz = append(ms.nnz, int32(1+data[i+2]%16))
			ms.footprint = append(ms.footprint, int32(3+data[i+2]))
		}
		perm := make([]int, len(ms.keys))
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(x, y int) bool { return ms.keys[perm[x]] < ms.keys[perm[y]] })
		sorted := &microSummary{dims: ms.dims, microDims: ms.microDims, outerDims: ms.outerDims, fpScale: ms.fpScale}
		for _, p := range perm {
			sorted.keys = append(sorted.keys, ms.keys[p])
			sorted.nnz = append(sorted.nnz, ms.nnz[p])
			sorted.footprint = append(sorted.footprint, ms.footprint[p])
		}
		st := &Stats{Dims: ms.dims, Order: order, micro: sorted.withTotals()}
		checkShapeOracle(t, st, shape)

		// Price the parent, then the target from it.
		if _, err := st.EvalShape(parent); err != nil {
			t.Fatalf("parent %v: %v", parent, err)
		}
		derived := 0
		st.ObserveShapeEvals(func(d bool) {
			if d {
				derived++
			}
		})
		got, err := st.EvalShape(shape)
		if err != nil {
			t.Fatalf("shape %v from parent %v: %v", shape, parent, err)
		}
		if want := 1; !slices.Equal(parent, shape) && derived != want {
			t.Fatalf("shape %v from parent %v: %d derived evaluations, want %d", shape, parent, derived, want)
		}
		checkAgainstOracle(t, st, shape, got)
	})
}

// TestPrefixCountsMatchesTupleSets checks prefixCounts against prefix
// sets of decoded coordinate tuples, on random key sets of grids of
// order 1–4 in every level order: the natural order counts the keys as
// they arrive, the others their sorted transpose.
func TestPrefixCountsMatchesTupleSets(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%4
		dims := make([]int, n)
		for a := range dims {
			dims[a] = 1 + r.Intn(9)
		}
		g, err := radix.NewCodec(dims)
		if err != nil {
			t.Fatal(err)
		}
		var keys []uint64
		for k := uint64(0); k < g.Size(); k++ {
			if r.Intn(4) == 0 {
				keys = append(keys, k)
			}
		}
		order := r.Perm(n)
		if trial%3 == 0 {
			order = naturalLevels(n)
		}
		want := make([]int, n)
		crd := make([]int, n)
		for l := range want {
			seen := make(map[string]bool)
			for _, k := range keys {
				g.Decode(crd, k)
				prefix := make([]int, l+1)
				for j := range prefix {
					prefix[j] = crd[order[j]]
				}
				seen[fmt.Sprint(prefix)] = true
			}
			want[l] = len(seen)
		}
		if got := prefixCounts(g, order, keys); !slices.Equal(got, want) {
			t.Fatalf("dims %v order %v, %d keys: prefix counts %v, want %v", dims, order, len(keys), got, want)
		}
	}
}

// naturalLevels is the level order 0, 1, …, n−1.
func naturalLevels(n int) []int {
	order := make([]int, n)
	for l := range order {
		order[l] = l
	}
	return order
}
