package array

import (
	"testing"

	"repro/internal/mesh"
)

// TestAssemblySeedRescales: a kept seed comes back unchanged at its own ΔT
// and rescaled at another, never at ΔT = 0, and counts in MemoryBytes.
func TestAssemblySeedRescales(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	if asm.Seed(p.DeltaT) != nil {
		t.Fatal("a fresh assembly has no seed")
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	before := asm.MemoryBytes()
	asm.KeepSeed(p.DeltaT, sol.QFree)
	if got, want := asm.MemoryBytes()-before, int64(8*len(sol.QFree)); got != want {
		t.Errorf("MemoryBytes grew by %d with the seed, want %d", got, want)
	}
	same := asm.Seed(p.DeltaT)
	if len(same) != len(sol.QFree) || &same[0] != &sol.QFree[0] {
		t.Error("Seed at the kept ΔT should return the kept solution")
	}
	half := asm.Seed(p.DeltaT / 2)
	if len(half) != len(sol.QFree) {
		t.Fatalf("rescaled seed has length %d, want %d", len(half), len(sol.QFree))
	}
	for i, v := range sol.QFree {
		if half[i] != v/2 {
			t.Fatalf("rescaled seed[%d] = %g, want %g", i, half[i], v/2)
		}
	}
	if asm.Seed(0) != nil {
		t.Error("Seed at ΔT = 0 must be nil: the zero-load solution is zero")
	}
	asm.KeepSeed(0, make([]float64, len(sol.QFree)))
	if got := asm.Seed(p.DeltaT); len(got) == 0 || &got[0] != &sol.QFree[0] {
		t.Error("KeepSeed at ΔT = 0 must not replace the seed")
	}

	// The rescaled seed of a linear problem is already the solution.
	p.DeltaT /= 2
	p.X0 = half
	warm, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Warm || warm.Stats.Iterations > 1 {
		t.Errorf("rescaled seed: warm=%v after %d iterations, want warm within 1", warm.Stats.Warm, warm.Stats.Iterations)
	}
}

// TestAssemblySeedNilUnderPrescribedBoundary: lifted boundary displacements
// make the reduced RHS affine rather than linear in ΔT, so no seed applies.
func TestAssemblySeedNilUnderPrescribedBoundary(t *testing.T) {
	p := &Problem{
		ROM: buildROM(t, 3, false), Bx: 2, By: 2, DeltaT: -100,
		BC:           PrescribedBoundary,
		BoundaryDisp: func(p mesh.Vec3) [3]float64 { return [3]float64{1e-3 * p.X, 0, 0} },
	}
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if asm.NumFree() == 0 {
		t.Fatal("expected free DoFs")
	}
	asm.KeepSeed(p.DeltaT, make([]float64, asm.NumFree()))
	if asm.Seed(p.DeltaT) != nil {
		t.Error("Seed under PrescribedBoundary must be nil")
	}
}

// TestAssemblyCholeskyShared: the factor is built once per assembly, counts
// in MemoryBytes, and Direct solves on the assembly report it shared.
func TestAssemblyCholeskyShared(t *testing.T) {
	p := precondProblem(t)
	p.Solver = Direct
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	before := asm.MemoryBytes()
	first, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.PrecondShared {
		t.Error("the first Direct solve factors the matrix itself")
	}
	f, hit, err := asm.Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("Cholesky after a Direct solve should hit")
	}
	if got, want := asm.MemoryBytes()-before, f.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes grew by %d with the factor, want %d", got, want)
	}
	second, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PrecondShared {
		t.Error("the second Direct solve should reuse the assembly's factor")
	}
	for i := range first.QFree {
		if first.QFree[i] != second.QFree[i] {
			t.Fatalf("shared-factor solve differs at %d: %g vs %g", i, second.QFree[i], first.QFree[i])
		}
	}
}
