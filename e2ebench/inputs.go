package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/serveapi"
)

// Every input of operation k is drawn from its own PCG stream keyed by
// (seed, workload stream, k), so the sequence does not depend on which
// caller takes which operation.
const (
	streamHotspot   = 1
	streamCold      = 2
	streamServe     = 3
	streamServeLoad = 4
)

func rngFor(seed uint64, stream, k uint64) *rand.Rand {
	return rand.New(rand.NewPCG(mix(seed, stream, 0x9e3779b97f4a7c15), k))
}

// mix is a splitmix64-style hash of three words.
func mix(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// hotspotSize is the fixed lattice of hotspot-sweep.
const hotspotSize = 12

// hotspot is one Gaussian hot spot on the block lattice.
type hotspot struct {
	Row, Col float64 // centre, in blocks
	Amp      float64 // °C above the −250 °C base
	Sigma    float64 // width, in blocks
}

// hotspotScenario is one hotspot-sweep operation: −250 °C plus 1–3 hot spots.
type hotspotScenario struct {
	Spots []hotspot
}

func hotspotInput(seed uint64, k int64) hotspotScenario {
	r := rngFor(seed, streamHotspot, uint64(k))
	spots := make([]hotspot, 1+r.IntN(3))
	for i := range spots {
		spots[i] = hotspot{
			Row:   r.Float64() * hotspotSize,
			Col:   r.Float64() * hotspotSize,
			Amp:   30 + 90*r.Float64(),
			Sigma: 1 + 2.5*r.Float64(),
		}
	}
	return hotspotScenario{Spots: spots}
}

// deltaT is the scenario's per-block load, indexed (row, col).
func (s hotspotScenario) deltaT(row, col int) float64 {
	dt := -250.0
	for _, h := range s.Spots {
		dr, dc := float64(row)+0.5-h.Row, float64(col)+0.5-h.Col
		dt += h.Amp * math.Exp(-(dr*dr+dc*dc)/(2*h.Sigma*h.Sigma))
	}
	return dt
}

// coldShapes are the lattice shapes of one cold-lattices pass. Every pass
// solves each shape once, in a seeded order and orientation, so every seed
// solves the same mix of sizes (3..12 blocks a side) and only the order,
// orientation and load differ.
var coldShapes = [][2]int{{3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}}

// coldScenario is one cold-lattices operation: a uniform load on a lattice.
type coldScenario struct {
	Rows, Cols int
	DeltaT     float64
}

func coldInput(seed uint64, k int64) coldScenario {
	pass, i := uint64(k)/uint64(len(coldShapes)), int(uint64(k)%uint64(len(coldShapes)))
	r := rngFor(seed, streamCold, pass)
	order := r.Perm(len(coldShapes))
	flips := r.Uint64()
	loads := make([]float64, len(coldShapes))
	for j := range loads {
		loads[j] = -150 - 100*r.Float64()
	}
	shape := coldShapes[order[i]]
	if flips>>i&1 == 1 {
		shape[0], shape[1] = shape[1], shape[0]
	}
	return coldScenario{Rows: shape[0], Cols: shape[1], DeltaT: loads[i]}
}

// Serve-mixed traffic: four hot lattices, coarse resolution.
var serveLattices = []int{3, 4, 5, 6}

const (
	serveGridSamples = 10
	serveBatchSize   = 4
	// serveBlock operations make one balanced block of traffic: 48 /solve
	// (60%, 12 per lattice), 12 /batch (15%, one scenario per lattice
	// each), 20 /jobs (25%, 5 per lattice), and 8 of the 80 (10%) ask for
	// the field. The seed orders each block and draws the loads, so every
	// seed sends the same mix.
	serveBlock      = 80
	serveSolves     = 48
	serveBatches    = 12
	serveWithFields = 8
)

// serveOp is one serve-mixed operation: a /solve, a /batch of four, or a
// one-scenario journaled /jobs submission followed to its terminal state.
type serveOp struct {
	Kind string                `json:"kind"` // "solve", "batch" or "job"
	Jobs []serveapi.JobRequest `json:"jobs"`
}

func serveInput(seed uint64, k int64) serveOp {
	block := rngFor(seed, streamServe, uint64(k)/serveBlock)
	i := int(uint64(k) % serveBlock)
	slot := block.Perm(serveBlock)[i]
	field := block.Perm(serveBlock)[slot] < serveWithFields
	op := serveOp{Kind: "job"}
	sizes := []int{serveLattices[slot%len(serveLattices)]}
	switch {
	case slot < serveSolves:
		op.Kind = "solve"
	case slot < serveSolves+serveBatches:
		op.Kind, sizes = "batch", serveLattices
	}
	r := rngFor(seed, streamServeLoad, uint64(k))
	op.Jobs = make([]serveapi.JobRequest, len(sizes))
	for j, n := range sizes {
		dt := -150 - 100*r.Float64()
		op.Jobs[j] = serveapi.JobRequest{
			Pitch: 15, Nodes: 5, Resolution: "coarse",
			Rows: n, Cols: n, DeltaT: &dt,
			GridSamples: serveGridSamples, IncludeField: field,
		}
	}
	return op
}

// inputBytes serializes the first n inputs of a workload's seeded sequence;
// equal seeds must give equal bytes.
func inputBytes(workload string, seed uint64, n int) ([]byte, error) {
	ops := make([]any, n)
	for k := range ops {
		switch workload {
		case "hotspot-sweep":
			ops[k] = hotspotInput(seed, int64(k))
		case "cold-lattices":
			ops[k] = coldInput(seed, int64(k))
		case "serve-mixed":
			ops[k] = serveInput(seed, int64(k))
		default:
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
	}
	return json.Marshal(ops)
}
