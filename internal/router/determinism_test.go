package router

import (
	"fmt"
	"math"
	"testing"

	morestress "repro"
	"repro/internal/mesh"
)

// TestSolveBytesAcrossWorkersAndShards extends the assembly determinism
// gate end to end: one request solved by engines at 1 and 2 workers, by 1-
// and 2-shard fronts, and as one chain of a batch gives the same von Mises
// bytes and iteration count. Journal recovery and failover re-solve on
// whichever engine owns the job and rely on exactly this.
func TestSolveBytesAcrossWorkersAndShards(t *testing.T) {
	if testing.Short() {
		t.Skip("solves real scenarios")
	}
	job := func(nodes, rows, cols, workers int) morestress.Job {
		cfg := morestress.DefaultConfig(15)
		cfg.Nodes = [3]int{nodes, nodes, nodes}
		cfg.Resolution = mesh.CoarseResolution()
		cfg.Workers = workers
		return morestress.Job{Config: cfg, Rows: rows, Cols: cols, DeltaT: -250, GridSamples: 6}
	}
	small := func(workers int) morestress.Job { return job(4, 4, 5, workers) }
	type outcome struct {
		name  string
		vm    []float64
		iters int
	}
	var runs []outcome
	record := func(name string, res *morestress.JobResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs = append(runs, outcome{name, res.Result.VM.V, res.Result.Stats.Iterations})
	}
	check := func() {
		t.Helper()
		ref := runs[0]
		for _, r := range runs[1:] {
			if r.iters != ref.iters {
				t.Errorf("%s: %d iterations, %s: %d", r.name, r.iters, ref.name, ref.iters)
			}
			if len(r.vm) != len(ref.vm) {
				t.Fatalf("%s: field length %d, want %d", r.name, len(r.vm), len(ref.vm))
			}
			for i := range ref.vm {
				if math.Float64bits(r.vm[i]) != math.Float64bits(ref.vm[i]) {
					t.Fatalf("%s: VM[%d] = %v, %s has %v", r.name, i, r.vm[i], ref.name, ref.vm[i])
				}
			}
		}
		runs = nil
	}
	for _, w := range []int{1, 2} {
		e := morestress.NewEngine(morestress.EngineOptions{Workers: w})
		res, err := e.Solve(small(w))
		record(fmt.Sprintf("engine workers=%d", w), res, err)
	}
	for _, n := range []int{1, 2} {
		res, err := NewShards(n, morestress.EngineOptions{Workers: 2}).Solve(small(0))
		record(fmt.Sprintf("shards=%d", n), res, err)
	}
	check()

	// 11×12 at (5,5,5) nodes is above solver.AutoMulticolorMinDoFs, so the
	// auto ordering may pick multicolor. The pick must depend on the lattice
	// alone, not on the worker share of the solve: a 2-job batch hands each
	// chain half the machine.
	large := func(workers int) morestress.Job { return job(5, 11, 12, workers) }
	for _, w := range []int{1, 2} {
		e := morestress.NewEngine(morestress.EngineOptions{Workers: w})
		res, err := e.Solve(large(w))
		record(fmt.Sprintf("11x12 engine workers=%d", w), res, err)
	}
	batch := morestress.NewEngine(morestress.EngineOptions{Workers: 2}).BatchSolve([]morestress.Job{large(0), small(0)})
	res := batch.Results[0]
	record("11x12 in a 2-job batch", &res, res.Err)
	check()
}
