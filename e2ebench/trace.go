package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	morestress "repro"
)

// Span parents: a span either names its parent's index, is a root, or is
// recorded where the caller cannot know its parent (a server-side span of a
// client request) and is attached at analysis to the smallest span of the
// same operation that contains it and whose name allowedParents lists.
const (
	rootSpan      = -1
	containedSpan = -2
)

// allowedParents lists, for each span recorded with containedSpan, the span
// names it may nest under.
var allowedParents = map[string][]string{
	"serveapi.handler": {"http.request"},
	"serveapi.status":  {"http.request"},
	"jobqueue.submit":  {"http.request"},
	"jobqueue.events":  {"http.request"},
	"router.solve":     {"serveapi.handler", "jobqueue.run", "op"},
}

// spanSlack absorbs the skew between the monotonic clock of measured spans
// and the wall-clock timestamps the job status reports.
const spanSlack = 200 * time.Microsecond

type span struct {
	Op     int64  `json:"op"` // operation index; -1 for setup
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pay only the nil checks.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a time to the tracer clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// add records a span and returns its index (-1 on a nil tracer).
func (t *tracer) add(op int64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	return t.addNS(op, parent, name, t.at(start), t.at(end))
}

func (t *tracer) addNS(op int64, parent int, name string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// addEngine lays the durations one Engine.Solve result already carries out
// as child spans of parent, which ends at end: the ROM lookup (LocalWait),
// the engine's assembly-cache step (Total − LocalWait − GlobalTime), and the
// global stage, itself split into RHS build, preconditioner build, the
// iterative solve (with the preconditioner applications inside it) and field
// reconstruction. Children are placed back to back, ending where the
// parent's result was returned.
func (t *tracer) addEngine(op int64, parent int, end time.Time, res *morestress.JobResult) {
	if t == nil || res == nil {
		return
	}
	e := t.at(end)
	a := e - int64(res.Total)
	child := func(p int, name string, start int64, d time.Duration) int {
		if d <= 0 {
			return -1
		}
		return t.addNS(op, p, name, start, start+int64(d))
	}
	child(parent, "romcache.get", a, res.LocalWait)
	a += int64(res.LocalWait)
	if res.Result == nil {
		return
	}
	r := res.Result
	sol := r.Solution
	child(parent, "engine.assemble", a, res.Total-res.LocalWait-r.GlobalTime)
	a = e - int64(r.GlobalTime)
	g := child(parent, "array.global", a, r.GlobalTime)
	if g < 0 {
		return
	}
	child(g, "array.rhs", a, sol.AssembleTime)
	a += int64(sol.AssembleTime)
	child(g, "array.precond.build", a, sol.Stats.PrecondBuild)
	a += int64(sol.Stats.PrecondBuild)
	iter := sol.SolveTime - sol.Stats.PrecondBuild
	if s := child(g, "solver.solve", a, iter); s >= 0 {
		child(s, "solver.precond_apply", a, sol.Stats.PrecondApply)
	}
	a += int64(iter)
	child(g, "array.field", a, time.Duration(e-a))
}

// layerTimes is one span name's aggregate: count, summed duration, and
// summed self time (duration minus the part its children cover).
type layerTimes struct {
	n           int
	total, self time.Duration
}

// analyze resolves contained parents and returns the per-name aggregates.
func (t *tracer) analyze() map[string]*layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	byOp := make(map[int64][]int)
	for i, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != containedSpan {
			continue
		}
		s.Parent = rootSpan
		best := int64(-1)
		for _, j := range byOp[s.Op] {
			p := spans[j]
			if j == i || !nameIn(p.Name, allowedParents[s.Name]) {
				continue
			}
			if p.Start-int64(spanSlack) <= s.Start && s.End <= p.End+int64(spanSlack) {
				if d := p.End - p.Start; best < 0 || d < best {
					best, s.Parent = d, j
				}
			}
		}
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTimes)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.n++
		lt.total += d
		lt.self += d - time.Duration(covered(s.Start, s.End, children[i]))
	}
	return out
}

func nameIn(name string, names []string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// covered is the length of [start, end] covered by the union of ivs.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// printSelfTimes prints, per span name, the count, mean duration, mean self
// time and the share of all self time it holds.
func (t *tracer) printSelfTimes() {
	agg := t.analyze()
	names := make([]string, 0, len(agg))
	var all time.Duration
	for n, lt := range agg {
		names = append(names, n)
		all += lt.self
	}
	sort.Strings(names)
	fmt.Println("self time by span (traced phase):")
	fmt.Printf("  %-22s %7s %12s %12s %7s\n", "span", "n", "mean_ms", "self_ms", "share")
	for _, n := range names {
		lt := agg[n]
		fmt.Printf("  %-22s %7d %12.3f %12.3f %6.1f%%\n", n, lt.n,
			ms(lt.total)/float64(lt.n), ms(lt.self)/float64(lt.n), 100*float64(lt.self)/float64(all))
	}
}

// write stores the spans as JSON lines under .bench_build/traces/.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// engineLayers turns the aggregates of the engine-side spans into per-layer
// metrics, as means per scenario solve.
func engineLayers(agg map[string]*layerTimes, into map[string]float64) {
	solves := agg["engine.solve"]
	if solves == nil || solves.n == 0 {
		return
	}
	n := float64(solves.n)
	total := func(name string) float64 {
		if lt := agg[name]; lt != nil {
			return ms(lt.total) / n
		}
		return 0
	}
	self := func(name string) float64 {
		if lt := agg[name]; lt != nil {
			return ms(lt.self) / n
		}
		return 0
	}
	into["engine.solve_ms"] = total("engine.solve")
	into["engine.self_ms"] = self("engine.solve")
	into["engine.assemble_ms"] = total("engine.assemble")
	into["array.precond.build_ms"] = total("array.precond.build")
	into["array.rhs_ms"] = total("array.rhs")
	into["array.field_ms"] = total("array.field")
	into["solver.solve_ms"] = total("solver.solve")
	into["solver.precond_apply_ms"] = total("solver.precond_apply")
	into["solver.other_ms"] = self("solver.solve")
}

// meanMS is the mean duration of the named spans (0 when none).
func meanMS(agg map[string]*layerTimes, name string, selfTime bool) float64 {
	lt := agg[name]
	if lt == nil || lt.n == 0 {
		return 0
	}
	if selfTime {
		return ms(lt.self) / float64(lt.n)
	}
	return ms(lt.total) / float64(lt.n)
}
