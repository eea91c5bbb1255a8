package fem

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// quadLocal maps a node's offset from an element's center on the half-step
// lattice, (o+1)·(1, 3, 9) for o ∈ {−1,0,1}³, to its serendipity index in
// quadSigns (−1 for the face and cell centers, which are not nodes).
var quadLocal = func() (t [27]int8) {
	for i := range t {
		t[i] = -1
	}
	for a, s := range quadSigns {
		t[int(s[0]+1)+3*int(s[1]+1)+9*int(s[2]+1)] = int8(a)
	}
	return t
}()

// quadRow is one node's row stencil: its incident non-void elements (in
// ascending element order) and the union of their nodes, listed in
// ascending node id by walking the 5×5×5 half-lattice box around the node.
type quadRow struct {
	elems  [8]int32
	local  [8]int8 // the node's serendipity index in each incident element
	nElem  int
	slotOf [125]int16 // box site → pattern slot, −1 if not in the pattern
	neigh  [125]int32 // pattern node ids, ascending
	nNeigh int
}

// pattern fills w with node n's row stencil.
func (m *QuadModel) pattern(n int, elemMat []*QuadElemMats, w *quadRow) {
	g := m.Grid
	h := m.Nodes[n]
	// Cells e along an axis contain half-site c when 2e ≤ c ≤ 2e+2.
	cells := func(c, ne int) (int, int) { return max(0, (c-1)/2), min(ne-1, c/2) }
	xlo, xhi := cells(h[0], g.NEX())
	ylo, yhi := cells(h[1], g.NEY())
	zlo, zhi := cells(h[2], g.NEZ())
	w.nElem = 0
	for s := range w.slotOf {
		w.slotOf[s] = -1
	}
	for ek := zlo; ek <= zhi; ek++ {
		for ej := ylo; ej <= yhi; ej++ {
			for ei := xlo; ei <= xhi; ei++ {
				e := g.ElemIndex(ei, ej, ek)
				if elemMat[e] == nil {
					continue
				}
				w.elems[w.nElem] = int32(e)
				w.local[w.nElem] = quadLocal[(h[0]-2*ei)+3*(h[1]-2*ej)+9*(h[2]-2*ek)]
				w.nElem++
				for _, s := range quadSigns {
					bx := 2*ei + 1 + int(s[0]) - h[0] + 2
					by := 2*ej + 1 + int(s[1]) - h[1] + 2
					bz := 2*ek + 1 + int(s[2]) - h[2] + 2
					w.slotOf[bx+5*(by+5*bz)] = 0
				}
			}
		}
	}
	w.nNeigh = 0
	for s, mark := range w.slotOf {
		if mark < 0 {
			continue
		}
		bx, by, bz := s%5, (s/5)%5, s/25
		w.slotOf[s] = int16(w.nNeigh)
		w.neigh[w.nNeigh] = m.nodeID[m.flat(h[0]+bx-2, h[1]+by-2, h[2]+bz-2)]
		w.nNeigh++
	}
}

// Assemble builds the quadratic global stiffness and thermal load (ΔT = 1)
// the way Model.Assemble does: row sizes are counted from the node stencils
// first, then each goroutine owns whole node rows and adds its incident
// elements' rows in ascending element order — the assembled matrix is
// bitwise identical at every worker count. Void elements are skipped;
// isolated nodes carry identity rows.
func (m *QuadModel) Assemble(workers int) (*Assembled, error) {
	g := m.Grid
	for e, id := range g.MatID {
		if id == mesh.VoidMaterial {
			continue
		}
		if int(id) >= len(m.Mats) {
			return nil, fmt.Errorf("fem: element %d has material id %d outside table of %d", e, id, len(m.Mats))
		}
	}
	ne := g.NumElems()
	nn := m.NumNodes()

	// Element matrix cache by (size, material).
	cache := map[elemKey]*QuadElemMats{}
	elemMat := make([]*QuadElemMats, ne)
	for e := 0; e < ne; e++ {
		id := g.MatID[e]
		if id == mesh.VoidMaterial {
			continue
		}
		hx, hy, hz := g.ElemSize(e)
		key := elemKey{quantize(hx), quantize(hy), quantize(hz), id}
		em, ok := cache[key]
		if !ok {
			em = ComputeQuadElemMats(hx, hy, hz, m.Mats[id])
			cache[key] = em
		}
		elemMat[e] = em
	}

	// Pass 1: per-DoF row sizes — 3 columns per stencil node, 1 for the
	// identity rows of inactive nodes (those in no non-void element).
	rowPtr := make([]int32, 3*nn+1)
	active := make([]bool, nn)
	parallelNodes(nn, workers, func(lo, hi int) {
		var w quadRow
		for n := lo; n < hi; n++ {
			m.pattern(n, elemMat, &w)
			sz := int32(3 * w.nNeigh)
			if w.nElem == 0 {
				sz = 1
			}
			active[n] = w.nElem > 0
			rowPtr[3*n+1], rowPtr[3*n+2], rowPtr[3*n+3] = sz, sz, sz
		}
	})
	for r := 0; r < 3*nn; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int32, rowPtr[3*nn])
	vals := make([]float64, rowPtr[3*nn])
	f := make([]float64, 3*nn)

	// Pass 2: fill rows in parallel over node ranges.
	parallelNodes(nn, workers, func(lo, hi int) {
		var w quadRow
		var block [3][3 * 125]float64
		for n := lo; n < hi; n++ {
			base := 3 * n
			m.pattern(n, elemMat, &w)
			if w.nElem == 0 {
				for c := 0; c < 3; c++ {
					p := rowPtr[base+c]
					colIdx[p] = int32(base + c)
					vals[p] = 1
				}
				continue
			}
			for c := 0; c < 3; c++ {
				clear(block[c][:3*w.nNeigh])
			}
			var fn [3]float64
			h := m.Nodes[n]
			for q := 0; q < w.nElem; q++ {
				e := int(w.elems[q])
				em := elemMat[e]
				a := int(w.local[q])
				ei, ej, ek := g.ElemIJK(e)
				for b, s := range quadSigns {
					bx := 2*ei + 1 + int(s[0]) - h[0] + 2
					by := 2*ej + 1 + int(s[1]) - h[1] + 2
					bz := 2*ek + 1 + int(s[2]) - h[2] + 2
					o := 3 * int(w.slotOf[bx+5*(by+5*bz)])
					for c := 0; c < 3; c++ {
						kr := &em.K[3*a+c]
						row := &block[c]
						row[o] += kr[3*b]
						row[o+1] += kr[3*b+1]
						row[o+2] += kr[3*b+2]
					}
				}
				for c := 0; c < 3; c++ {
					fn[c] += em.F[3*a+c]
				}
			}
			for c := 0; c < 3; c++ {
				p := rowPtr[base+c]
				for s := 0; s < w.nNeigh; s++ {
					nb := 3 * w.neigh[s]
					colIdx[p], colIdx[p+1], colIdx[p+2] = nb, nb+1, nb+2
					copy(vals[p:p+3], block[c][3*s:3*s+3])
					p += 3
				}
				f[base+c] = fn[c]
			}
		}
	})

	k := &sparse.CSR{NRows: 3 * nn, NCols: 3 * nn, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	return &Assembled{K: k, F: f, ActiveNode: active}, nil
}
