package array

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/solver"
)

func benchROM(b *testing.B) *rom.ROM {
	b.Helper()
	spec := rom.PaperSpec(15, mesh.CoarseResolution())
	r, err := rom.Build(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkNewAssembly times the assemble-once snapshot of the reduced
// global system — lattice, symbolic stencil and fixed-order numeric sums —
// at the cold-path node count (5,5,5) on the smallest and largest lattice
// shapes of the cold-lattices workload. Run with -benchmem: the allocs
// floor in BENCH_global.json pins that the build allocates no per-entry
// intermediaries.
func BenchmarkNewAssembly(b *testing.B) {
	spec := rom.PaperSpec(15, mesh.CoarseResolution())
	spec.Nodes = [3]int{5, 5, 5}
	r, err := rom.Build(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range [][2]int{{3, 4}, {11, 12}} {
		b.Run(fmt.Sprintf("%dx%d", d[0], d[1]), func(b *testing.B) {
			p := &Problem{ROM: r, Bx: d[0], By: d[1], DeltaT: -250, BC: ClampedTopBottom}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				asm, err := NewAssembly(p, 0)
				if err != nil {
					b.Fatal(err)
				}
				if asm.NNZ == 0 {
					b.Fatal("empty assembly")
				}
			}
		})
	}
}

// BenchmarkGlobalSolvers compares the three global solver paths on the same
// problem (design-choice ablation, §4.3).
func BenchmarkGlobalSolvers(b *testing.B) {
	r := benchROM(b)
	for _, kind := range []struct {
		name string
		k    SolverKind
	}{{"GMRES", GMRES}, {"CG", CG}, {"Direct", Direct}} {
		b.Run(kind.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Solve(&Problem{
					ROM: r, Bx: 8, By: 8, DeltaT: -250,
					BC: ClampedTopBottom, Solver: kind.k,
					Opt: solver.Options{Tol: 1e-9},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVMFieldReconstruction isolates the per-block reconstruction and
// mid-plane sampling (Eq. 15 post-processing).
func BenchmarkVMFieldReconstruction(b *testing.B) {
	r := benchROM(b)
	sol, err := Solve(&Problem{
		ROM: r, Bx: 6, By: 6, DeltaT: -250,
		BC: ClampedTopBottom, Opt: solver.Options{Tol: 1e-9},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sol.VMField(20, 0)
	}
}
