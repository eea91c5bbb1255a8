package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/serveapi"
)

var workloads = []string{"hotspot-sweep", "cold-lattices", "serve-mixed"}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := inputBytes(w, 7, 60)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inputBytes(w, 7, 60)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different input sequences", w)
		}
		c, err := inputBytes(w, 8, 60)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input sequence", w)
		}
	}
}

func TestColdPassesCoverEveryShape(t *testing.T) {
	for pass := int64(0); pass < 4; pass++ {
		area := map[int]int{}
		for i := int64(0); i < int64(len(coldShapes)); i++ {
			sc := coldInput(3, pass*int64(len(coldShapes))+i)
			area[sc.Rows*sc.Cols]++
		}
		for _, s := range coldShapes {
			if area[s[0]*s[1]] != 1 {
				t.Fatalf("pass %d does not solve %dx%d exactly once: %v", pass, s[0], s[1], area)
			}
		}
	}
}

func TestServeBlocksAreBalanced(t *testing.T) {
	for block := int64(0); block < 3; block++ {
		kinds := map[string]int{}
		sizes := map[string]map[int]int{}
		fields := 0
		for i := int64(0); i < serveBlock; i++ {
			op := serveInput(11, block*serveBlock+i)
			kinds[op.Kind]++
			if sizes[op.Kind] == nil {
				sizes[op.Kind] = map[int]int{}
			}
			for _, j := range op.Jobs {
				sizes[op.Kind][j.Rows]++
			}
			if op.Jobs[0].IncludeField {
				fields++
			}
		}
		want := map[string]int{"solve": 48, "batch": 12, "job": 20}
		for kind, n := range want {
			if kinds[kind] != n {
				t.Errorf("block %d: %d %s operations, want %d", block, kinds[kind], kind, n)
			}
			per := n
			if kind == "batch" {
				per *= serveBatchSize
			}
			for _, size := range serveLattices {
				if got := sizes[kind][size]; got != per/len(serveLattices) {
					t.Errorf("block %d: %s has %d scenarios on %dx%d, want %d", block, kind, got, size, size, per/len(serveLattices))
				}
			}
		}
		if fields != serveWithFields {
			t.Errorf("block %d: %d operations ask for the field, want %d", block, fields, serveWithFields)
		}
	}
}

func TestOracleRejectsPerturbedField(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	ref := []float64{120, 250.5, 310.25, 99}
	same := append([]float64(nil), ref...)
	if e := fieldError(same, ref); !(e <= cfg.FieldRelTol) {
		t.Fatalf("identical field rejected: error %g", e)
	}
	perturbed := make([]float64, len(ref))
	for i, v := range ref {
		perturbed[i] = v * (1 + 1e-3)
	}
	if e := fieldError(perturbed, ref); e <= cfg.FieldRelTol {
		t.Fatalf("field scaled by 1+1e-3 accepted: error %g, tolerance %g", e, cfg.FieldRelTol)
	}
	perturbed[0] = math.NaN()
	if e := fieldError(perturbed, ref); e <= cfg.FieldRelTol {
		t.Fatal("field with NaN accepted")
	}
}

func TestOracleRejectsWrongResponses(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	dt := -200.0
	req := serveapi.JobRequest{Rows: 4, Cols: 4, DeltaT: &dt, GridSamples: 2, IncludeField: true}
	ref := serveRef{dofs: 1000, maxVM: 500, field: []float64{100, 500, 250, 300}}
	scale := 200.0 / 250
	good := func() serveapi.JobResponse {
		f := make([]float64, len(ref.field))
		for i, v := range ref.field {
			f[i] = v * scale
		}
		return serveapi.JobResponse{
			Converged: true, GlobalDoFs: ref.dofs, MaxVonMises: ref.maxVM * scale,
			Field: &serveapi.FieldResponse{NX: 2, NY: 2, V: f},
		}
	}
	refs := map[int]serveRef{4: ref}
	if err := checkServeAnswer(serveAnswer{op: serveOp{Kind: "solve", Jobs: []serveapi.JobRequest{req}}, results: []serveapi.JobResponse{good()}}, refs, cfg.FieldRelTol); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	cases := map[string]func(*serveapi.JobResponse){
		"converged false":  func(r *serveapi.JobResponse) { r.Converged = false },
		"error":            func(r *serveapi.JobResponse) { r.Error = "boom" },
		"globalDoFs":       func(r *serveapi.JobResponse) { r.GlobalDoFs++ },
		"maxVonMises":      func(r *serveapi.JobResponse) { r.MaxVonMises *= 1 + 1e-3 },
		"field perturbed":  func(r *serveapi.JobResponse) { r.Field.V[1] *= 1 + 1e-3 },
		"field missing":    func(r *serveapi.JobResponse) { r.Field = nil },
		"unscaled maximum": func(r *serveapi.JobResponse) { r.MaxVonMises = ref.maxVM },
	}
	for name, mutate := range cases {
		r := good()
		mutate(&r)
		ans := serveAnswer{op: serveOp{Kind: "solve", Jobs: []serveapi.JobRequest{req}}, results: []serveapi.JobResponse{r}}
		if checkServeAnswer(ans, refs, cfg.FieldRelTol) == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}
	missing := serveAnswer{op: serveOp{Kind: "batch", Jobs: []serveapi.JobRequest{req, req}}, results: []serveapi.JobResponse{good()}}
	if checkServeAnswer(missing, refs, cfg.FieldRelTol) == nil {
		t.Error("batch with a missing result accepted")
	}
}

// benchmarkFile mirrors the metric lists of ../BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(want), len(got))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: program prints %v, BENCHMARK.json lists %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := newWorkload(w.Name, 1, time.Second, cfg); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, m := range perLayer {
		if _, ok := cfg.LayerMetricMap[m.Name]; !ok {
			t.Errorf("config.json layer_metric_map has no entry for %s", m.Name)
		}
	}
	if len(cfg.LayerMetricMap) != len(perLayer) {
		t.Errorf("config.json maps %d layer metrics, the program prints %d", len(cfg.LayerMetricMap), len(perLayer))
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	got := covered(0, 100, [][2]int64{{10, 30}, {20, 40}, {90, 120}, {-5, 2}})
	if want := int64(2 + 30 + 10); got != want {
		t.Fatalf("covered = %d, want %d", got, want)
	}
}
