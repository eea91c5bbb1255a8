package array

import (
	"repro/internal/fem"
	"repro/internal/rom"
	"repro/internal/sparse"
)

// stencil is the symbolic half of the global assembly: everything about the
// reduced system's structure, which depends only on the lattice geometry —
// the surface-node pattern, Bx×By and the constrained-node mask — never on
// the element values. Every block is the same abstract element under a
// translated DoF map (§4.1, Eqs. 18–19), and because lattice node ids grow
// in (gz, gy, gx) order, sorting a block's surface nodes by global id gives
// the same local order in every block: one permutation per ROM. A node's
// row pattern is then the merge of the ≤4 sorted node lists of the blocks
// that share it, and filtering that merge through the monotone free/BC
// renumbering keeps both reduced patterns (A_ff, A_fb) sorted without a
// sort, a triplet, or a duplicated raw scatter.
type stencil struct {
	ns   int        // surface nodes per block
	roms []*rom.ROM // per block (by·Bx+bx): ROM or DummyROM
	// perms[b][k] is block b's k-th surface node (ROM order) in global-id
	// order; blkNodes[b·ns+k] is that node's global id (ascending in k).
	perms    [][]int32
	blkNodes []int32
	// ctrPtr/ctrBlk/ctrLoc list, per global node, the (block, local surface
	// node) pairs that contribute to its rows, in ascending block order —
	// at most 4, for nodes on the vertical edges shared by 4 blocks.
	ctrPtr         []int32
	ctrBlk, ctrLoc []int32
	// colPtr/cols list, per global node, the sorted union of its
	// contributors' node lists: the node-level pattern of its 3 rows.
	colPtr []int32
	cols   []int32
	// toFree/toBC renumber global nodes into the reduced free and boundary
	// node sets (−1 when the node is in the other set); freeNodes lists the
	// free nodes in id order.
	toFree, toBC []int32
	freeNodes    []int32
	nBC          int
}

// newStencil runs the symbolic phase for the problem's blocks on lat with
// the constrained-node mask isBCNode (one entry per global node: every
// boundary kind constrains whole nodes). The pattern merge is parallel over
// node ranges balanced by contributor count.
func newStencil(p *Problem, lat *Lattice, isBCNode []bool, workers int) *stencil {
	nb := p.Bx * p.By
	ns := p.ROM.Surf.Count()
	nn := lat.NumNodes()
	st := &stencil{ns: ns, roms: make([]*rom.ROM, nb), perms: make([][]int32, nb), blkNodes: make([]int32, nb*ns)}

	// Per-ROM surface order by lattice position: gx fastest, then gy, then
	// gz — the order NewLattice numbers nodes in.
	perms := map[*rom.ROM][]int32{p.ROM: surfaceOrder(p.ROM, lat)}
	if p.DummyROM != nil {
		perms[p.DummyROM] = surfaceOrder(p.DummyROM, lat)
	}
	for by := 0; by < p.By; by++ {
		for bx := 0; bx < p.Bx; bx++ {
			b := by*p.Bx + bx
			r := p.ROM
			if p.IsDummy != nil && p.IsDummy(bx, by) {
				r = p.DummyROM
			}
			st.roms[b], st.perms[b] = r, perms[r]
			ox, oy := bx*(lat.NxN-1), by*(lat.NyN-1)
			for k, s := range st.perms[b] {
				t := r.Surf.IJK[s]
				st.blkNodes[b*ns+k] = lat.NodeID(ox+t[0], oy+t[1], t[2])
			}
		}
	}

	// Contributors per node, filled in ascending block order.
	st.ctrPtr = make([]int32, nn+1)
	for _, g := range st.blkNodes {
		st.ctrPtr[g+1]++
	}
	for i := 0; i < nn; i++ {
		st.ctrPtr[i+1] += st.ctrPtr[i]
	}
	st.ctrBlk = make([]int32, nb*ns)
	st.ctrLoc = make([]int32, nb*ns)
	next := make([]int32, nn)
	copy(next, st.ctrPtr[:nn])
	for b := 0; b < nb; b++ {
		for k, s := range st.perms[b] {
			g := st.blkNodes[b*ns+k]
			st.ctrBlk[next[g]] = int32(b)
			st.ctrLoc[next[g]] = s
			next[g]++
		}
	}

	// Node patterns: count the merges, then fill them.
	bounds := sparse.PartitionByWork(st.ctrPtr, 0, nn, workers)
	st.colPtr = make([]int32, nn+1)
	sparse.ParallelChunks(bounds, workers, func(lo, hi int) {
		for n := lo; n < hi; n++ {
			st.colPtr[n+1] = int32(st.merge(n, nil))
		}
	})
	for i := 0; i < nn; i++ {
		st.colPtr[i+1] += st.colPtr[i]
	}
	st.cols = make([]int32, st.colPtr[nn])
	sparse.ParallelChunks(bounds, workers, func(lo, hi int) {
		for n := lo; n < hi; n++ {
			st.merge(n, st.cols[st.colPtr[n]:st.colPtr[n+1]])
		}
	})

	st.toFree = make([]int32, nn)
	st.toBC = make([]int32, nn)
	for n, bc := range isBCNode {
		if bc {
			st.toFree[n], st.toBC[n] = -1, int32(st.nBC)
			st.nBC++
		} else {
			st.toFree[n], st.toBC[n] = int32(len(st.freeNodes)), -1
			st.freeNodes = append(st.freeNodes, int32(n))
		}
	}
	return st
}

// surfaceOrder returns r's surface-node indices sorted by lattice position
// (gx fastest, then gy, then gz) by walking the block's lattice sites in
// that order — no comparison sort.
func surfaceOrder(r *rom.ROM, lat *Lattice) []int32 {
	nx, ny, nz := lat.NxN, lat.NyN, lat.NzN
	at := make([]int32, nx*ny*nz)
	for i := range at {
		at[i] = -1
	}
	for s, t := range r.Surf.IJK {
		at[t[0]+nx*(t[1]+ny*t[2])] = int32(s)
	}
	perm := make([]int32, 0, len(r.Surf.IJK))
	for _, s := range at {
		if s >= 0 {
			perm = append(perm, s)
		}
	}
	return perm
}

// merge computes the sorted union of node n's contributors' node lists,
// writing it to out when out is non-nil, and returns its length.
func (st *stencil) merge(n int, out []int32) int {
	var heads [4][]int32
	k := 0
	for q := st.ctrPtr[n]; q < st.ctrPtr[n+1]; q++ {
		b := int(st.ctrBlk[q])
		heads[k] = st.blkNodes[b*st.ns : (b+1)*st.ns]
		k++
	}
	m := 0
	for {
		g := int32(-1)
		for _, h := range heads[:k] {
			if len(h) > 0 && (g < 0 || h[0] < g) {
				g = h[0]
			}
		}
		if g < 0 {
			return m
		}
		for i := range heads[:k] {
			if len(heads[i]) > 0 && heads[i][0] == g {
				heads[i] = heads[i][1:]
			}
		}
		if out != nil {
			out[m] = g
		}
		m++
	}
}

// nnz returns the stored-entry count of the full (unreduced) matrix: 3×3
// entries for every (node, pattern node) pair.
func (st *stencil) nnz() int { return 9 * len(st.cols) }

// assemble runs the numeric phase: the reduced system (A_ff, A_fb and the
// unit thermal load b_f) written directly from the block element matrices
// (Eqs. 18–19). Each free node's three rows are owned by one goroutine,
// which adds its contributors' Aelem rows into the pattern slots in
// ascending block order, so every stored value — and b_f — is the same sum
// in the same order at every worker count: the result is bitwise
// independent of workers. Entries whose sum happens to be exactly zero stay
// stored; structure comes from the stencil alone.
func (st *stencil) assemble(workers int) *fem.Reduced {
	nf := len(st.freeNodes)
	// Per-free-node column counts, split by the column node's set.
	aff := &sparse.CSR{NRows: 3 * nf, NCols: 3 * nf, RowPtr: make([]int32, 3*nf+1)}
	afb := &sparse.CSR{NRows: 3 * nf, NCols: 3 * st.nBC, RowPtr: make([]int32, 3*nf+1)}
	work := make([]int32, nf+1)
	maxCols := 0
	for fi, n := range st.freeNodes {
		cols := st.cols[st.colPtr[n]:st.colPtr[n+1]]
		var f int32
		for _, g := range cols {
			if st.toFree[g] >= 0 {
				f++
			}
		}
		b := int32(len(cols)) - f
		for c := 0; c < 3; c++ {
			r := 3*fi + c
			aff.RowPtr[r+1] = aff.RowPtr[r] + 3*f
			afb.RowPtr[r+1] = afb.RowPtr[r] + 3*b
		}
		work[fi+1] = work[fi] + int32(len(cols))
		maxCols = max(maxCols, len(cols))
	}
	aff.ColIdx = make([]int32, aff.RowPtr[3*nf])
	aff.Vals = make([]float64, aff.RowPtr[3*nf])
	afb.ColIdx = make([]int32, afb.RowPtr[3*nf])
	afb.Vals = make([]float64, afb.RowPtr[3*nf])
	bf := make([]float64, 3*nf)

	sparse.ParallelChunks(sparse.PartitionByWork(work, 0, nf, workers), workers, func(lo, hi int) {
		// acc holds the node's three rows against its pattern nodes:
		// acc[c·3m + 3p + d] is row component c, pattern node p, column
		// component d. slot maps a contributor's sorted nodes to pattern
		// positions.
		acc := make([]float64, 9*maxCols)
		slot := make([]int32, st.ns)
		for fi := lo; fi < hi; fi++ {
			n := st.freeNodes[fi]
			cols := st.cols[st.colPtr[n]:st.colPtr[n+1]]
			m3 := 3 * len(cols)
			acc := acc[:3*m3]
			clear(acc)
			var load [3]float64
			for q := st.ctrPtr[n]; q < st.ctrPtr[n+1]; q++ {
				b := int(st.ctrBlk[q])
				r, perm := st.roms[b], st.perms[b]
				p := 0
				for k, g := range st.blkNodes[b*st.ns : (b+1)*st.ns] {
					for cols[p] != g {
						p++
					}
					slot[k] = int32(3 * p)
				}
				s := 3 * int(st.ctrLoc[q])
				for c := 0; c < 3; c++ {
					row := r.Aelem.Row(s + c)
					a := acc[c*m3 : (c+1)*m3]
					for k, l := range perm {
						o, j := slot[k], 3*l
						a[o] += row[j]
						a[o+1] += row[j+1]
						a[o+2] += row[j+2]
					}
					load[c] += r.Belem[s+c]
				}
			}
			for c := 0; c < 3; c++ {
				row := 3*fi + c
				pf, pb := aff.RowPtr[row], afb.RowPtr[row]
				a := acc[c*m3 : (c+1)*m3]
				for p, g := range cols {
					if j := st.toFree[g]; j >= 0 {
						aff.ColIdx[pf], aff.ColIdx[pf+1], aff.ColIdx[pf+2] = 3*j, 3*j+1, 3*j+2
						copy(aff.Vals[pf:pf+3], a[3*p:3*p+3])
						pf += 3
					} else {
						j := st.toBC[g]
						afb.ColIdx[pb], afb.ColIdx[pb+1], afb.ColIdx[pb+2] = 3*j, 3*j+1, 3*j+2
						copy(afb.Vals[pb:pb+3], a[3*p:3*p+3])
						pb += 3
					}
				}
				bf[row] = load[c]
			}
		}
	})

	red := &fem.Reduced{Aff: aff, Afb: afb, Bf: bf, NFull: 3 * len(st.toFree),
		FreeIdx: make([]int32, 0, 3*nf), BCIdx: make([]int32, 0, 3*st.nBC)}
	for n, j := range st.toFree {
		for c := int32(0); c < 3; c++ {
			if j >= 0 {
				red.FreeIdx = append(red.FreeIdx, 3*int32(n)+c)
			} else {
				red.BCIdx = append(red.BCIdx, 3*int32(n)+c)
			}
		}
	}
	return red
}

// assembleLoad builds the thermal load vector for the problem's per-block
// ΔT field. This is the only per-scenario assembly work left once the matrix
// comes from a shared Assembly: O(blocks·n) scalar accumulation, no matrix
// scatter. Serial, in block order — it is orders of magnitude cheaper than
// the stiffness pass.
func assembleLoad(p *Problem, lat *Lattice) []float64 {
	f := make([]float64, lat.NumDoFs())
	for by := 0; by < p.By; by++ {
		for bx := 0; bx < p.Bx; bx++ {
			r := p.ROM
			if p.IsDummy != nil && p.IsDummy(bx, by) {
				r = p.DummyROM
			}
			dmap := lat.BlockDoFMap(r, bx, by)
			dt := p.blockDeltaT(bx, by)
			for i := 0; i < r.N; i++ {
				f[dmap[i]] += dt * r.Belem[i]
			}
		}
	}
	return f
}
