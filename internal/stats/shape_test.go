package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"d2t2/internal/checked"
	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// evalShapeMap is the hash-map group-by evalShape replaced by the radix
// sort: a map from tile key to group, a permutation sort of the group
// keys, and one prefix set per middle level. It is the reference oracle
// of TestEvalShapeMatchesMapOracle and FuzzEvalShape.
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
	gid := make(map[uint64]int)
	var aggs []agg
	var gkeys []uint64
	axisOcc := make([][]bool, n)
	for a := range axisOcc {
		axisOcc[a] = make([]bool, out.OuterDims[a])
	}
	prefixOcc := make([]map[uint64]struct{}, n)
	for l := range prefixOcc {
		prefixOcc[l] = make(map[uint64]struct{})
	}
	mc := make([]int, n)
	oc := make([]int, n)
	for idx, k := range ms.keys {
		tiling.UnkeyInto(mc, k)
		for a := range oc {
			oc[a] = mc[a] / factors[a]
			axisOcc[a][oc[a]] = true
		}
		var pk uint64
		for l := 0; l < n; l++ {
			pk = pk<<21 | uint64(oc[s.Order[l]])
			prefixOcc[l][pk] = struct{}{}
		}
		gk := tiling.Key(oc)
		g, ok := gid[gk]
		if !ok {
			g = len(aggs)
			gid[gk] = g
			aggs = append(aggs, agg{})
			gkeys = append(gkeys, gk)
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
	perm := make([]int, len(gkeys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool { return gkeys[perm[x]] < gkeys[perm[y]] })
	out.GroupOuter = make([]int32, 0, n*len(aggs))
	out.GroupFP = make([]float64, 0, len(aggs))
	totalFP, totalNNZ := 0, 0
	for _, pi := range perm {
		g := aggs[pi]
		totalFP += g.fp
		totalNNZ += g.nnz
		if g.fp > out.MaxTile {
			out.MaxTile = g.fp
		}
		tiling.UnkeyInto(mc, gkeys[pi])
		for _, v := range mc {
			out.GroupOuter = append(out.GroupOuter, checked.Int32(v))
		}
		out.GroupFP = append(out.GroupFP, float64(g.fp))
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
// oracle, field for field, over matrices and 3-tensors, identity and
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
	}
	for _, tc := range tensors {
		for _, order := range tc.order {
			for _, div := range []int{1, 4, 8} {
				s, _, err := Collect(tc.m, tc.base, order, &Options{MicroDiv: div})
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

// FuzzEvalShape decodes a micro summary from the fuzz bytes and checks
// the radix group-by against the map oracle. The first byte picks the
// order (2 or 3) and level order, the next three bytes per axis the
// micro grid extent, the micro dimension and the tile factor, one byte
// the footprint scale; each later triple is one micro tile (its
// coordinates from the first two bytes, nnz and footprint from the
// third). Duplicate micro tiles keep the first.
func FuzzEvalShape(f *testing.F) {
	f.Add([]byte{0, 4, 2, 2, 3, 1, 1, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 9, 1, 3, 7, 2, 1, 5, 4, 4, 16, 200, 17, 33, 90, 250, 11, 0, 0, 255, 128, 3})
	f.Add([]byte{3, 16, 3, 8, 1, 1, 1, 2, 2, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0]&1)
		orders := [][]int{{0, 1}, {1, 0}}
		if n == 3 {
			orders = [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}
		}
		order := orders[int(data[0]>>1)%len(orders)]
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
		ms.fpScale = 0.5 + float64(data[3*n])/128
		data = data[3*n+1:]
		seen := make(map[uint64]bool)
		mc := make([]int, n)
		for i := 0; i+2 < len(data); i += 3 {
			x := int(data[i]) | int(data[i+1])<<8
			for a := 0; a < n; a++ {
				mc[a] = x % ms.outerDims[a]
				x /= ms.outerDims[a]
			}
			k := tiling.Key(mc)
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
		checkShapeOracle(t, &Stats{Dims: ms.dims, Order: order, micro: sorted}, shape)
	})
}
