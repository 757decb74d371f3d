package formats

import "d2t2/internal/checked"

// BuildSortedUniqueShared constructs a CSF directly from coordinate
// arrays that are already in level order, lexicographically sorted and
// duplicate-free, without re-sorting: the tiler's fast path for one
// inner CSF per tile. crds[l][p] is the level-l coordinate of entry p;
// dims are the per-level dimension sizes and order records which
// original axis each level stores.
//
// It keeps the tiler's allocation discipline: dims and order are
// retained by the CSF without copying — a caller building thousands of
// inner CSFs per tiling shares one dims/order slice across all of them
// and must not mutate either afterwards — and the Seg/Crd arrays are
// exactly sized by a counting pre-pass (one backing array per kind,
// subsliced per level). crds[l][:n] and vals[:n] are only read, so
// callers may reuse them as per-worker scratch between calls.
func BuildSortedUniqueShared(dims []int, order []int, crds [][]int32, vals []float64) *CSF {
	lv := len(dims)
	c := &CSF{
		Dims:  dims,
		Order: order,
		Seg:   make([][]int32, lv),
		Crd:   make([][]int32, lv),
		Vals:  append([]float64(nil), vals...),
	}
	n := len(vals)
	if n == 0 {
		seg := make([]int32, lv) // zeroed: one [0] boundary per level
		for l := 0; l < lv; l++ {
			c.Seg[l] = seg[l : l+1 : l+1]
		}
		return c
	}

	// Pass 1: count fibers per level (a fiber opens at every entry whose
	// path diverges from the previous entry's at or above that level).
	fibers := make([]int32, lv)
	for l := 0; l < lv; l++ {
		fibers[l] = 1 // the first entry opens every level
	}
	for p := 1; p < n; p++ {
		div := 0
		for div = 0; div < lv; div++ {
			if crds[div][p] != crds[div][p-1] {
				break
			}
		}
		for l := div; l < lv; l++ {
			fibers[l]++
		}
	}

	// Exact-size backing arrays: Crd[l] holds fibers[l] coordinates;
	// Seg[l] holds one start per parent node (fibers[l-1], or 1 for the
	// root) plus the closing boundary.
	crdTotal, segTotal := 0, 0
	for l := 0; l < lv; l++ {
		crdTotal += int(fibers[l])
		if l == 0 {
			segTotal += 2
		} else {
			segTotal += int(fibers[l-1]) + 1
		}
	}
	crdBack := make([]int32, crdTotal)
	segBack := make([]int32, segTotal)
	for l := 0; l < lv; l++ {
		c.Crd[l], crdBack = crdBack[:fibers[l]:fibers[l]], crdBack[fibers[l]:]
		segLen := 2
		if l > 0 {
			segLen = int(fibers[l-1]) + 1
		}
		c.Seg[l], segBack = segBack[:segLen:segLen], segBack[segLen:]
	}

	// Pass 2: fill. cur[l] is the next write position in Crd[l]; a new
	// node at level l records the current length of level l+1 as the
	// start of its child fiber.
	cur := make([]int32, lv)
	seg := make([]int32, lv) // next write position in Seg[l]
	for p := 0; p < n; p++ {
		div := 0
		if p > 0 {
			for div = 0; div < lv; div++ {
				if crds[div][p] != crds[div][p-1] {
					break
				}
			}
		}
		for l := div; l < lv; l++ {
			c.Crd[l][cur[l]] = crds[l][p]
			cur[l]++
			if l+1 < lv {
				c.Seg[l+1][seg[l+1]] = cur[l+1]
				seg[l+1]++
			}
		}
	}
	c.Seg[0][0] = 0
	for l := 0; l < lv; l++ {
		last := len(c.Seg[l]) - 1
		c.Seg[l][last] = checked.Int32(len(c.Crd[l]))
	}
	return c
}
