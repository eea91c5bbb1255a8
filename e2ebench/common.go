package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	morestress "repro"
	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/romcache"
)

// unitCell is the configuration every workload solves: coarse resolution,
// (5,5,5) interpolation nodes, pitch 15 µm.
func unitCell() morestress.Config {
	cfg := morestress.DefaultConfig(15)
	cfg.Resolution = mesh.CoarseResolution()
	return cfg
}

// romSpec is the spec the engine derives from unitCell for a TSV block; the
// setup fills the ROM cache with it so timed operations only hit.
func romSpec(cfg morestress.Config) rom.Spec {
	return rom.Spec{
		Geom: cfg.Geometry, Mats: cfg.Materials, Res: cfg.Resolution,
		Nodes: cfg.Nodes, WithVia: true, Kind: cfg.Structure, Quadratic: cfg.Quadratic,
	}
}

// buildROMCache creates a fresh ROM cache and runs the local stage through
// romcache.Cache.Get, recording the call as a setup span.
func buildROMCache(tr *tracer, cfg morestress.Config) (*romcache.Cache, error) {
	cache := romcache.New(romcache.Options{})
	start := time.Now()
	_, hit, err := cache.Get(romSpec(cfg))
	tr.add(-1, rootSpan, "setup.romcache.get", start, time.Now())
	if err != nil {
		return nil, fmt.Errorf("local stage: %w", err)
	}
	if hit {
		return nil, fmt.Errorf("local stage: fresh ROM cache reported a hit")
	}
	return cache, nil
}

// statsDelta is after − before for the counters the per-layer report uses.
func statsDelta(after, before morestress.EngineStats) morestress.EngineStats {
	return morestress.EngineStats{
		Assemblies:         after.Assemblies - before.Assemblies,
		AssemblyHits:       after.AssemblyHits - before.AssemblyHits,
		IterativeSolves:    after.IterativeSolves - before.IterativeSolves,
		WarmStarts:         after.WarmStarts - before.WarmStarts,
		Iterations:         after.Iterations - before.Iterations,
		PrecondBuilds:      after.PrecondBuilds - before.PrecondBuilds,
		PrecondHits:        after.PrecondHits - before.PrecondHits,
		Refinements:        after.Refinements - before.Refinements,
		PrecisionFallbacks: after.PrecisionFallbacks - before.PrecisionFallbacks,
	}
}

// counterLayers fills the per-layer metrics that come from engine and ROM
// cache counters over a phase.
func counterLayers(d morestress.EngineStats, cache romcache.Stats, into map[string]float64) {
	into["rom.build_ms"] = ms(cache.BuildTime)
	into["romcache.misses"] = float64(cache.Misses)
	into["engine.assembly_hit_rate"] = frac64(d.AssemblyHits, d.AssemblyHits+d.Assemblies)
	into["engine.warm_start_rate"] = frac64(d.WarmStarts, d.IterativeSolves)
	into["array.precond.builds"] = float64(d.PrecondBuilds)
	into["array.precond.hits"] = float64(d.PrecondHits)
	into["solver.iterations"] = frac64(d.Iterations, d.IterativeSolves)
	into["solver.refinements"] = float64(d.Refinements)
	into["solver.precision_fallbacks"] = float64(d.PrecisionFallbacks)
}

func frac64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// matrixStats accumulates, per scenario solve, the assembled matrix size and
// the computed bytes one solver iteration moves.
type matrixStats struct {
	mu           sync.Mutex
	n            int     // guarded by mu
	nnz, bytesIt float64 // guarded by mu
}

func (m *matrixStats) observe(res *morestress.JobResult) {
	if res == nil || res.Result == nil || res.Result.Solution == nil {
		return
	}
	sol := res.Result.Solution
	b := bytesPerIter(sol.MatrixNNZ, len(sol.QFree), sol.Stats.Precond, sol.Precision)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	m.nnz += float64(sol.MatrixNNZ)
	m.bytesIt += b
}

func (m *matrixStats) layers(into map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return
	}
	into["array.assembly.nnz"] = m.nnz / float64(m.n)
	into["sparse.bytes_per_iter"] = m.bytesIt / float64(m.n)
}

// bytesPerIter is the computed (not measured) memory traffic of one
// preconditioned iteration: one mat-vec over the stored matrix plus the
// preconditioner's reads. The matrix is counted at the full assembled nnz (an
// upper bound on the reduced free-DoF block) in 3×3 tiles of nine float64
// values and one int32 column index; an IC0 factor holds the lower triangle,
// (nnz+n)/2 entries, read once forward and once backward in its storage
// precision; block-Jacobi-3 reads one 3×3 block per node.
func bytesPerIter(nnz, n int, pc morestress.Precond, prec morestress.Precision) float64 {
	z, nf := float64(nnz), float64(n)
	b := z*8 + z/9*4 + (nf/3+1)*4
	switch pc {
	case morestress.PrecondIC0:
		vb := 8.0
		if prec == morestress.PrecisionFloat32 {
			vb = 4
		}
		l := (z + nf) / 2
		b += 2 * (l*vb + l/9*4)
	case morestress.PrecondBlockJacobi3:
		b += nf * 3 * 8
	case morestress.PrecondJacobi:
		b += nf * 8
	}
	return b
}

// closedLoop runs do(k) for k = 0, 1, … on callers goroutines until dur has
// passed. The deadline is checked only when k is a multiple of unit, so a
// single caller always finishes whole units. It returns each completed
// operation's latency and the elapsed time from start to the last end.
func closedLoop(callers, unit int, dur time.Duration, do func(k int64)) ([]time.Duration, time.Duration) {
	var next atomic.Int64
	lats := make([][]time.Duration, callers)
	ends := make([]time.Time, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k%int64(unit) == 0 && time.Since(start) >= dur {
					return
				}
				t := time.Now()
				do(k)
				ends[c] = time.Now()
				lats[c] = append(lats[c], ends[c].Sub(t))
			}
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	last := start
	for c := range lats {
		all = append(all, lats[c]...)
		if ends[c].After(last) {
			last = ends[c]
		}
	}
	return all, last.Sub(start)
}

// fieldError is the largest absolute difference between two fields relative
// to the largest magnitude of the reference; +Inf when the shapes differ or a
// value is not finite.
func fieldError(got, ref []float64) float64 {
	if len(got) != len(ref) || len(ref) == 0 {
		return math.Inf(1)
	}
	var diff, scale float64
	for i, r := range ref {
		g := got[i]
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return math.Inf(1)
		}
		diff = math.Max(diff, math.Abs(g-r))
		scale = math.Max(scale, math.Abs(r))
	}
	if scale == 0 {
		return math.Inf(1)
	}
	return diff / scale
}

// solveOK is the cheap per-operation check: no error, a converged solve and
// a finite, positive von Mises field.
func solveOK(res *morestress.JobResult, err error) bool {
	if err != nil || res == nil || res.Err != nil || res.Result == nil || !res.Result.Stats.Converged || res.Result.VM == nil {
		return false
	}
	m := res.Result.VM.Max()
	return m > 0 && !math.IsInf(m, 0) && !math.IsNaN(m)
}

// sampled reports whether operation k of a seeded run is in the oracle's
// sample: every `every`-th operation, from a seeded offset below `every`.
func sampled(seed uint64, k int64, every int) bool {
	return (uint64(k)+mix(seed, 0x5a4d, 0))%uint64(every) == 0
}

// fieldAnswer is a sampled operation's von Mises field, kept for the oracle.
type fieldAnswer struct {
	k  int64
	vm []float64
}

// checkFields re-solves each sampled operation with the direct solver on a
// separate engine that shares only the ROM cache, and counts the answers
// whose von Mises field differs from the reference by more than tol.
func checkFields(cache *romcache.Cache, answers []any, job func(k int64) morestress.Job, tol float64) (int, int, error) {
	ref := morestress.NewEngine(morestress.EngineOptions{SharedCache: cache})
	wrong := 0
	for _, a := range answers {
		ans := a.(fieldAnswer)
		j := job(ans.k)
		j.Solver = morestress.SolveDirect
		res, err := ref.Solve(j)
		if !solveOK(res, err) {
			return 0, 0, fmt.Errorf("direct reference for operation %d: %v", ans.k, err)
		}
		if e := fieldError(ans.vm, res.Result.VM.V); !(e <= tol) {
			fmt.Printf("oracle: operation %d von Mises field differs from the direct solve by %.3g (tolerance %.3g)\n", ans.k, e, tol)
			wrong++
		}
	}
	return len(answers), wrong, nil
}
