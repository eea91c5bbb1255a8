package main

import (
	"fmt"
	"sync"
	"time"

	morestress "repro"
	"repro/internal/romcache"
)

// hotspotBench is hotspot-sweep: 2 closed-loop callers run Engine.Solve on
// one 12×12 lattice whose assembly and preconditioner were built in setup.
// Every scenario has its own per-block ΔT field, which the warm-start seed
// cache does not serve, so each operation is a full iterative solve.
type hotspotBench struct {
	seed uint64
	dur  time.Duration
	cfg  config
	cell morestress.Config

	cache  *romcache.Cache
	engine *morestress.Engine
}

func newHotspot(seed uint64, dur time.Duration, cfg config) *hotspotBench {
	return &hotspotBench{seed: seed, dur: dur, cfg: cfg, cell: unitCell()}
}

func (b *hotspotBench) job(sc hotspotScenario) morestress.Job {
	return morestress.Job{
		Config: b.cell, Rows: hotspotSize, Cols: hotspotSize,
		DeltaT: -250, DeltaTMap: sc.deltaT, GridSamples: 8,
	}
}

// setup builds the ROM, then warms the lattice's assembly and
// preconditioner with one uniform-field solve given as a per-block map.
func (b *hotspotBench) setup(tr *tracer) (time.Duration, error) {
	start := time.Now()
	cache, err := buildROMCache(tr, b.cell)
	if err != nil {
		return 0, err
	}
	b.cache = cache
	b.engine = morestress.NewEngine(morestress.EngineOptions{SharedCache: cache})
	if res, err := b.engine.Solve(b.job(hotspotScenario{})); !solveOK(res, err) {
		return 0, fmt.Errorf("warm-up solve failed: %v", err)
	}
	return time.Since(start), nil
}

func (b *hotspotBench) phase(tr *tracer) (*phaseResult, error) {
	before := b.engine.Stats()
	var mats matrixStats
	var mu sync.Mutex
	var answers []any
	failed := 0
	lat, elapsed := closedLoop(2, 1, b.dur, func(k int64) {
		job := b.job(hotspotInput(b.seed, k))
		start := time.Now()
		res, err := b.engine.Solve(job)
		end := time.Now()
		root := tr.add(k, rootSpan, "op", start, end)
		tr.addEngine(k, tr.add(k, root, "engine.solve", start, end), end, res)
		mats.observe(res)
		ok := solveOK(res, err)
		mu.Lock()
		defer mu.Unlock()
		if !ok {
			failed++
			return
		}
		if len(answers) < b.cfg.OracleSamples && sampled(b.seed, k, 8) {
			answers = append(answers, fieldAnswer{k: k, vm: res.Result.VM.V})
		}
	})
	p := &phaseResult{
		lat: lat, scenarios: len(lat) - failed, elapsed: elapsed,
		attempted: len(lat), failed: failed, answers: answers,
		layers: map[string]float64{},
	}
	counterLayers(statsDelta(b.engine.Stats(), before), b.cache.Stats(), p.layers)
	mats.layers(p.layers)
	if tr != nil {
		engineLayers(tr.analyze(), p.layers)
	}
	return p, nil
}

func (b *hotspotBench) check(p *phaseResult) (int, int, error) {
	return checkFields(b.cache, p.answers, func(k int64) morestress.Job { return b.job(hotspotInput(b.seed, k)) }, b.cfg.FieldRelTol)
}

func (b *hotspotBench) close() {}
