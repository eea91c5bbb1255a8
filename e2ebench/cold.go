package main

import (
	"time"

	morestress "repro"
	"repro/internal/romcache"
)

// coldBench is cold-lattices: 1 closed-loop caller solves each seeded lattice
// on a fresh Engine that shares only the setup's ROM cache, so every
// operation pays global assembly, preconditioner build, solve and field
// reconstruction. The phase runs whole passes over coldShapes, so every run
// measures the same mix of sizes.
type coldBench struct {
	seed uint64
	dur  time.Duration
	cfg  config
	cell morestress.Config

	cache *romcache.Cache
}

func newCold(seed uint64, dur time.Duration, cfg config) *coldBench {
	return &coldBench{seed: seed, dur: dur, cfg: cfg, cell: unitCell()}
}

func (b *coldBench) job(sc coldScenario) morestress.Job {
	return morestress.Job{Config: b.cell, Rows: sc.Rows, Cols: sc.Cols, DeltaT: sc.DeltaT, GridSamples: 8}
}

// setup builds the ROM; nothing else is kept between operations.
func (b *coldBench) setup(tr *tracer) (time.Duration, error) {
	start := time.Now()
	cache, err := buildROMCache(tr, b.cell)
	if err != nil {
		return 0, err
	}
	b.cache = cache
	return time.Since(start), nil
}

func (b *coldBench) phase(tr *tracer) (*phaseResult, error) {
	var total morestress.EngineStats
	var mats matrixStats
	var answers []any
	failed := 0
	lat, elapsed := closedLoop(1, len(coldShapes), b.dur, func(k int64) {
		job := b.job(coldInput(b.seed, k))
		start := time.Now()
		eng := morestress.NewEngine(morestress.EngineOptions{SharedCache: b.cache})
		res, err := eng.Solve(job)
		end := time.Now()
		root := tr.add(k, rootSpan, "op", start, end)
		tr.addEngine(k, tr.add(k, root, "engine.solve", start, end), end, res)
		st := eng.Stats()
		st.Cache = romcache.Stats{}
		total.Merge(st)
		mats.observe(res)
		if !solveOK(res, err) {
			failed++
			return
		}
		if len(answers) < b.cfg.OracleSamples && sampled(b.seed, k, 5) {
			answers = append(answers, fieldAnswer{k: k, vm: res.Result.VM.V})
		}
	})
	p := &phaseResult{
		lat: lat, scenarios: len(lat) - failed, elapsed: elapsed,
		attempted: len(lat), failed: failed, answers: answers,
		layers: map[string]float64{},
	}
	counterLayers(total, b.cache.Stats(), p.layers)
	mats.layers(p.layers)
	if tr != nil {
		engineLayers(tr.analyze(), p.layers)
	}
	return p, nil
}

func (b *coldBench) check(p *phaseResult) (int, int, error) {
	return checkFields(b.cache, p.answers, func(k int64) morestress.Job { return b.job(coldInput(b.seed, k)) }, b.cfg.FieldRelTol)
}

func (b *coldBench) close() {}
