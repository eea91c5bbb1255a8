package array

import (
	"math"
	"testing"

	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/sparse"
)

// sameCSR reports the first bitwise difference between two matrices:
// dimensions, pattern, or a value's bits.
func sameCSR(t *testing.T, what string, a, b *sparse.CSR) {
	t.Helper()
	if a.NRows != b.NRows || a.NCols != b.NCols || len(a.ColIdx) != len(b.ColIdx) || len(a.Vals) != len(b.Vals) {
		t.Fatalf("%s: shape %d×%d nnz %d vs %d×%d nnz %d", what, a.NRows, a.NCols, a.NNZ(), b.NRows, b.NCols, b.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] %d vs %d", what, i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			t.Fatalf("%s: ColIdx[%d] %d vs %d", what, i, a.ColIdx[i], b.ColIdx[i])
		}
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			t.Fatalf("%s: Vals[%d] %v vs %v", what, i, a.Vals[i], b.Vals[i])
		}
	}
}

// samePattern compares only the structure of two matrices.
func samePattern(t *testing.T, what string, a, b *sparse.CSR) {
	t.Helper()
	if a.NRows != b.NRows || a.NCols != b.NCols || len(a.ColIdx) != len(b.ColIdx) {
		t.Fatalf("%s: shape %d×%d nnz %d vs %d×%d nnz %d", what, a.NRows, a.NCols, a.NNZ(), b.NRows, b.NCols, b.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] %d vs %d", what, i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			t.Fatalf("%s: ColIdx[%d] %d vs %d", what, i, a.ColIdx[i], b.ColIdx[i])
		}
	}
}

// sameAssembly checks two snapshots of one lattice for bitwise equality.
func sameAssembly(t *testing.T, a, b *Assembly) {
	t.Helper()
	if a.NNZ != b.NNZ {
		t.Fatalf("NNZ %d vs %d", a.NNZ, b.NNZ)
	}
	sameCSR(t, "Aff", a.Red.Aff, b.Red.Aff)
	sameCSR(t, "Afb", a.Red.Afb, b.Red.Afb)
	if len(a.Red.Bf) != len(b.Red.Bf) {
		t.Fatalf("Bf length %d vs %d", len(a.Red.Bf), len(b.Red.Bf))
	}
	for i := range a.Red.Bf {
		if math.Float64bits(a.Red.Bf[i]) != math.Float64bits(b.Red.Bf[i]) {
			t.Fatalf("Bf[%d] %v vs %v", i, a.Red.Bf[i], b.Red.Bf[i])
		}
	}
}

// TestAssemblyBitwiseAcrossWorkers is the determinism gate of the global
// assembly: the reduced system is the same bits at every worker count and
// on every repetition, for both boundary kinds and with dummy blocks.
func TestAssemblyBitwiseAcrossWorkers(t *testing.T) {
	r := buildROM(t, 4, true)
	d := buildROM(t, 4, false)
	for _, tc := range []struct {
		name string
		p    Problem
	}{
		{"clamped", Problem{ROM: r, Bx: 5, By: 4, BC: ClampedTopBottom}},
		{"prescribed", Problem{ROM: r, Bx: 4, By: 5, BC: PrescribedBoundary,
			BoundaryDisp: func(mesh.Vec3) [3]float64 { return [3]float64{} }}},
		{"dummies", Problem{ROM: r, DummyROM: d, Bx: 5, By: 5, BC: ClampedTopBottom,
			IsDummy: func(bx, by int) bool { return bx == 0 || by == 4 || (bx+by)%3 == 0 }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := NewAssembly(&tc.p, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				for rep := 0; rep < 3; rep++ {
					got, err := NewAssembly(&tc.p, w)
					if err != nil {
						t.Fatal(err)
					}
					sameAssembly(t, ref, got)
				}
			}
		})
	}
}

// constantROM returns a shallow copy of r whose element stiffness is the
// constant v: same surface-node pattern, different values.
func constantROM(r *rom.ROM, v float64) *rom.ROM {
	c := *r
	c.Aelem = linalg.NewDense(r.N, r.N)
	for i := range c.Aelem.Data {
		c.Aelem.Data[i] = v
	}
	return &c
}

// TestAssemblyStructureFromGeometry checks that the reduced patterns come
// from the lattice alone: replacing the element values — including by all
// zeros, where every stored sum cancels to exactly 0 — leaves A_ff, A_fb
// and the full-matrix count unchanged, and the count is the one the
// compacting scatter produced at the cold-path node count.
func TestAssemblyStructureFromGeometry(t *testing.T) {
	s := rom.PaperSpec(15, mesh.CoarseResolution())
	s.Nodes = [3]int{5, 5, 5}
	r, err := rom.Build(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bx, by, nnz int
	}{
		{3, 4, 942957},
		{11, 12, 10078677},
	} {
		ref, err := NewAssembly(&Problem{ROM: r, Bx: tc.bx, By: tc.by}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ref.NNZ != tc.nnz {
			t.Errorf("%d×%d: NNZ %d, want %d", tc.bx, tc.by, ref.NNZ, tc.nnz)
		}
		for _, v := range []float64{0, 1} {
			got, err := NewAssembly(&Problem{ROM: constantROM(r, v), Bx: tc.bx, By: tc.by}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.NNZ != ref.NNZ {
				t.Errorf("%d×%d Aelem≡%g: NNZ %d, want %d", tc.bx, tc.by, v, got.NNZ, ref.NNZ)
			}
			samePattern(t, "Aff", ref.Red.Aff, got.Red.Aff)
			samePattern(t, "Afb", ref.Red.Afb, got.Red.Afb)
		}
	}
}

// TestAssemblyMatchesTripletReference compares the reduced system with the
// textbook route — every block's dense element scattered into a triplet,
// compressed, and partitioned by fem.Reduce — to roundoff. The reference
// drops exact-zero sums, so its pattern may be a subset; every stored
// entry of either side must match the other's value.
func TestAssemblyMatchesTripletReference(t *testing.T) {
	r := buildROM(t, 4, true)
	d := buildROM(t, 4, false)
	p := &Problem{ROM: r, DummyROM: d, Bx: 3, By: 2, BC: ClampedTopBottom,
		IsDummy: func(bx, by int) bool { return bx == 1 && by == 0 }}
	asm, err := NewAssembly(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	lat := asm.Lat
	n := lat.NumDoFs()
	tr := sparse.NewTriplet(n, n, p.Bx*p.By*r.N*r.N)
	f := make([]float64, n)
	for by := 0; by < p.By; by++ {
		for bx := 0; bx < p.Bx; bx++ {
			br := r
			if p.IsDummy(bx, by) {
				br = d
			}
			dmap := lat.BlockDoFMap(br, bx, by)
			for i, gi := range dmap {
				for j, gj := range dmap {
					tr.Add(int(gi), int(gj), br.Aelem.At(i, j))
				}
				f[gi] += br.Belem[i]
			}
		}
	}
	isBC := make([]bool, n)
	for _, id := range asm.BCNodes {
		isBC[3*id], isBC[3*id+1], isBC[3*id+2] = true, true, true
	}
	want, err := fem.Reduce(tr.ToCSR(), f, isBC)
	if err != nil {
		t.Fatal(err)
	}
	var scale float64
	for _, v := range want.Aff.Vals {
		scale = math.Max(scale, math.Abs(v))
	}
	cmp := func(what string, got, ref *sparse.CSR) {
		for i := 0; i < got.NRows; i++ {
			for q := got.RowPtr[i]; q < got.RowPtr[i+1]; q++ {
				if q > got.RowPtr[i] && got.ColIdx[q] <= got.ColIdx[q-1] {
					t.Fatalf("%s row %d: columns not strictly ascending", what, i)
				}
				if dv := math.Abs(got.Vals[q] - ref.At(i, int(got.ColIdx[q]))); dv > 1e-12*scale {
					t.Fatalf("%s(%d,%d): %g vs reference %g", what, i, got.ColIdx[q], got.Vals[q], ref.At(i, int(got.ColIdx[q])))
				}
			}
			for q := ref.RowPtr[i]; q < ref.RowPtr[i+1]; q++ {
				if dv := math.Abs(ref.Vals[q] - got.At(i, int(ref.ColIdx[q]))); dv > 1e-12*scale {
					t.Fatalf("%s(%d,%d): reference %g missing or differs (%g)", what, i, ref.ColIdx[q], ref.Vals[q], got.At(i, int(ref.ColIdx[q])))
				}
			}
		}
	}
	cmp("Aff", asm.Red.Aff, want.Aff)
	cmp("Afb", asm.Red.Afb, want.Afb)
	for i := range want.Bf {
		if math.Abs(asm.Red.Bf[i]-want.Bf[i]) > 1e-12*(1+math.Abs(want.Bf[i])) {
			t.Fatalf("Bf[%d] %g vs reference %g", i, asm.Red.Bf[i], want.Bf[i])
		}
	}
	for i := range want.FreeIdx {
		if asm.Red.FreeIdx[i] != want.FreeIdx[i] {
			t.Fatalf("FreeIdx[%d] %d vs %d", i, asm.Red.FreeIdx[i], want.FreeIdx[i])
		}
	}
	if len(asm.Red.BCIdx) != len(want.BCIdx) || asm.Red.NFull != want.NFull {
		t.Fatalf("BCIdx %d / NFull %d vs %d / %d", len(asm.Red.BCIdx), asm.Red.NFull, len(want.BCIdx), want.NFull)
	}
}
