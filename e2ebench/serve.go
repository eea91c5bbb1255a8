package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	morestress "repro"
	"repro/internal/jobqueue"
	"repro/internal/romcache"
	"repro/internal/router"
	"repro/internal/serveapi"
	"repro/internal/solver/tuning"
	"repro/internal/wal"
)

// Serving stack settings, as cmd/serve defaults them apart from the shard
// count and the journal, which serve-mixed turns on.
const (
	serveShards     = 2
	serveQueueDepth = 64
	serveJobTTL     = 10 * time.Minute
	serveClients    = 2
	// opHeader carries the operation index from the client to the handler
	// wrapper, so server-side spans join the operation's trace.
	opHeader = "X-Bench-Op"
)

// serveBench is serve-mixed: an open loop of /solve, /batch and /jobs
// requests over loopback HTTP to an in-process serveapi.Server over
// router.Shards, with a WAL-journaled job queue.
type serveBench struct {
	seed uint64
	dur  time.Duration
	rate float64 // operations per second; 0 runs closed-loop (capacity)
	cfg  config
	cell morestress.Config

	cache   *romcache.Cache
	shards  *router.Shards
	solver  *tracedSolver
	queue   *jobqueue.Queue
	journal *wal.Log
	srv     *serveapi.Server
	httpSrv *http.Server
	served  chan error
	dir     string
	base    string
	clients []*http.Client

	refs map[int]serveRef // per lattice size, built by check
}

func newServe(seed uint64, dur time.Duration, cfg config) *serveBench {
	// cmd/serve derives its solver thresholds from the embedded host
	// profiles at startup; do the same so the measured path is the served
	// one. A snapshot that does not load keeps the hand-set defaults.
	if _, err := tuning.Startup(""); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: tuning snapshot unusable, keeping defaults:", err)
	}
	b := &serveBench{seed: seed, dur: dur, rate: cfg.ServeRate, cfg: cfg, cell: unitCell()}
	for i := 0; i < serveClients; i++ {
		b.clients = append(b.clients, &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	return b
}

// setup starts a fresh serving stack — ROM cache, shards, journal, queue,
// server, listener — and warms each hot lattice with one /solve.
func (b *serveBench) setup(tr *tracer) (time.Duration, error) {
	b.close()
	start := time.Now()
	cache, err := buildROMCache(tr, b.cell)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(".bench_build", "journal-")
	if err != nil {
		return 0, err
	}
	b.dir, b.cache = dir, cache
	if b.journal, err = wal.Open(dir, wal.Options{}); err != nil {
		return 0, fmt.Errorf("open journal: %w", err)
	}
	b.shards = router.NewShards(serveShards, morestress.EngineOptions{SharedCache: cache, AssemblyBytes: 1 << 30})
	b.solver = &tracedSolver{sh: b.shards}
	if b.queue, err = serveapi.NewQueue(b.solver, serveQueueDepth, 1, serveJobTTL, serveapi.DefaultJobFieldBudget, b.journal); err != nil {
		return 0, fmt.Errorf("job queue: %w", err)
	}
	b.srv = serveapi.New(b.solver, b.queue)
	b.srv.Journal = b.journal
	b.srv.PerShard = b.shards.PerShard
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b.base = "http://" + ln.Addr().String()
	b.httpSrv = &http.Server{Handler: b.solver.wrap(b.srv.Routes()), ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.httpSrv.Serve(ln) }()
	for _, n := range serveLattices {
		dt := -250.0
		req := serveapi.JobRequest{Pitch: 15, Nodes: 5, Resolution: "coarse", Rows: n, Cols: n, DeltaT: &dt, GridSamples: serveGridSamples}
		body, _ := json.Marshal(req) // a struct of plain fields always encodes
		status, _, err := post(b.clients[0], b.base+"/solve", -1, body)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("warm-up /solve %dx%d: status %d, %v", n, n, status, err)
		}
	}
	return time.Since(start), nil
}

// close shuts the serving stack down and removes the journal directory.
func (b *serveBench) close() {
	if b.httpSrv != nil {
		b.srv.BeginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = b.httpSrv.Shutdown(ctx) // a timeout leaves only idle loopback connections behind
		cancel()
		<-b.served
		b.httpSrv = nil
	}
	if b.queue != nil {
		b.queue.Close()
		b.queue = nil
	}
	if b.journal != nil {
		_ = b.journal.Close() // the journal directory is removed next
		b.journal = nil
	}
	if b.dir != "" {
		_ = os.RemoveAll(b.dir) // best effort: the directory lives under .bench_build
		b.dir = ""
	}
}

// serveAnswer is one operation's outcome, kept for the oracle.
type serveAnswer struct {
	op      serveOp
	results []serveapi.JobResponse
}

// serveOutcome is what the client saw for one operation.
type serveOutcome struct {
	answer  serveAnswer
	err     error
	done    time.Time // when the answer (or a job's terminal state) arrived
	spans   []clientSpan
	isJob   bool
	waitRun [2][2]time.Time // a job's [submitted, started], [started, finished]
}

type clientSpan struct {
	name       string
	start, end time.Time
}

func (b *serveBench) phase(tr *tracer) (*phaseResult, error) {
	var ph *servePhase
	if tr != nil {
		ph = &servePhase{tr: tr, shardOps: make([]atomic.Int64, b.shards.Len())}
	}
	b.solver.phase.Store(ph)
	defer b.solver.phase.Store(nil)
	before := b.shards.Stats()
	appendsBefore := b.journal.Stats().Appends

	var n int64 = math.MaxInt64
	var interval time.Duration
	if b.rate > 0 {
		n = int64(b.dur.Seconds() * b.rate)
		interval = time.Duration(float64(time.Second) / b.rate)
	}
	var (
		next              atomic.Int64
		mu                sync.Mutex
		lat, lags, jobLat []time.Duration
		answers           []any
		failed, scenarios int
		last              time.Time
		wg                sync.WaitGroup
		firstFailure      error
		start             = time.Now().Add(5 * time.Millisecond)
		deadline          = start.Add(b.dur)
	)
	for c := range b.clients {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= n || (b.rate <= 0 && time.Now().After(deadline)) {
					return
				}
				due := time.Now()
				if b.rate > 0 {
					due = start.Add(time.Duration(k) * interval)
					time.Sleep(time.Until(due))
				}
				op := serveInput(b.seed, k)
				sent := time.Now()
				if ph != nil {
					ph.register(op, k)
				}
				out := b.do(hc, k, op)
				if ph != nil {
					root := tr.add(k, rootSpan, "op", due, out.done)
					tr.add(k, root, "client.lag", due, sent)
					for _, s := range out.spans {
						tr.add(k, root, s.name, s.start, s.end)
					}
					if out.isJob && out.err == nil {
						tr.add(k, root, "jobqueue.wait", out.waitRun[0][0], out.waitRun[0][1])
						tr.add(k, root, "jobqueue.run", out.waitRun[1][0], out.waitRun[1][1])
					}
				}
				mu.Lock()
				lat = append(lat, out.done.Sub(due))
				lags = append(lags, sent.Sub(due))
				if out.isJob {
					jobLat = append(jobLat, out.done.Sub(due))
				}
				if out.done.After(last) {
					last = out.done
				}
				if out.err != nil {
					failed++
					if firstFailure == nil {
						firstFailure = fmt.Errorf("operation %d (%s): %w", k, op.Kind, out.err)
					}
				} else {
					scenarios += len(op.Jobs)
					answers = append(answers, out.answer)
				}
				mu.Unlock()
			}
		}(b.clients[c])
	}
	wg.Wait()
	if firstFailure != nil {
		fmt.Println("first failed operation:", firstFailure)
	}
	p := &phaseResult{
		lat: lat, scenarios: scenarios, elapsed: last.Sub(start),
		attempted: len(lat), failed: failed, answers: answers,
		layers: map[string]float64{},
	}
	lagP90, jobP90 := ms(quantile(lags, 0.90)), ms(quantile(jobLat, 0.90))
	p.notes = []reportLine{
		{"generator_lag_p50_ms", ms(quantile(lags, 0.50)), "ms", len(lags)},
		{"generator_lag_p90_ms", lagP90, "ms", len(lags)},
		{"job_p90_ms", jobP90, "ms", len(jobLat)},
	}
	if b.rate > 0 && lagP90 > b.cfg.MaxLagP90MS {
		p.invalid = fmt.Sprintf("generator lag p90 %.1f ms exceeds the %.0f ms bound: the open loop did not hold its schedule", lagP90, b.cfg.MaxLagP90MS)
	}
	counterLayers(statsDelta(b.shards.Stats(), before), b.cache.Stats(), p.layers)
	ws := b.journal.Stats()
	p.layers["wal.appends"] = float64(ws.Appends - appendsBefore)
	// The journal's size after the phase: once it passes the queue's
	// compaction threshold (4 MiB by default), every append rewrites the
	// live set.
	p.layers["wal.bytes"] = float64(ws.Bytes)
	p.layers["jobqueue.job_p90_ms"] = jobP90
	if ph != nil {
		agg := tr.analyze()
		engineLayers(agg, p.layers)
		ph.mats.layers(p.layers)
		p.layers["serveapi.handler_ms"] = meanMS(agg, "serveapi.handler", false)
		p.layers["serveapi.self_ms"] = meanMS(agg, "serveapi.handler", true)
		p.layers["http.transport_ms"] = meanMS(agg, "http.request", true)
		p.layers["router.solver_ms"] = meanMS(agg, "router.solve", false)
		p.layers["jobqueue.submit_ms"] = meanMS(agg, "jobqueue.submit", false)
		p.layers["jobqueue.wait_ms"] = meanMS(agg, "jobqueue.wait", false)
		p.layers["jobqueue.run_ms"] = meanMS(agg, "jobqueue.run", false)
		if n := ph.respCount.Load(); n > 0 {
			p.layers["serveapi.response_kb"] = float64(ph.respBytes.Load()) / float64(n) / 1024
		}
		p.layers["router.shard_skew"] = ph.skew()
	}
	return p, nil
}

// do runs one operation and reports what the client saw.
func (b *serveBench) do(hc *http.Client, k int64, op serveOp) serveOutcome {
	out := serveOutcome{answer: serveAnswer{op: op}, isJob: op.Kind == "job"}
	request := func(method, path string, body []byte) (int, []byte, error) {
		s := time.Now()
		var status int
		var data []byte
		var err error
		if method == http.MethodPost {
			status, data, err = post(hc, b.base+path, k, body)
		} else {
			status, data, err = get(hc, b.base+path, k)
		}
		out.spans = append(out.spans, clientSpan{"http.request", s, time.Now()})
		return status, data, err
	}
	fail := func(err error) serveOutcome {
		out.err = err
		out.done = time.Now()
		return out
	}
	switch op.Kind {
	case "solve":
		body, _ := json.Marshal(op.Jobs[0]) // plain fields always encode
		status, data, err := request(http.MethodPost, "/solve", body)
		if err = expect(status, http.StatusOK, data, err); err != nil {
			return fail(err)
		}
		var r serveapi.JobResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return fail(err)
		}
		out.answer.results = []serveapi.JobResponse{r}
	case "batch":
		body, _ := json.Marshal(serveapi.BatchRequest{Jobs: op.Jobs})
		status, data, err := request(http.MethodPost, "/batch", body)
		if err = expect(status, http.StatusOK, data, err); err != nil {
			return fail(err)
		}
		var r serveapi.BatchResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return fail(err)
		}
		out.answer.results = r.Results
	case "job":
		body, _ := json.Marshal(serveapi.BatchRequest{Jobs: op.Jobs})
		status, data, err := request(http.MethodPost, "/jobs", body)
		if err = expect(status, http.StatusAccepted, data, err); err != nil {
			return fail(err)
		}
		var sub serveapi.SubmitResponse
		if err := json.Unmarshal(data, &sub); err != nil {
			return fail(err)
		}
		s := time.Now()
		state, err := followEvents(hc, b.base+sub.Events, k)
		out.done = time.Now()
		out.spans = append(out.spans, clientSpan{"http.request", s, out.done})
		if err != nil {
			return fail(err)
		}
		if state != "done" {
			return fail(fmt.Errorf("job %s ended %s", sub.ID, state))
		}
		done := out.done
		status, data, err = request(http.MethodGet, sub.Poll, nil)
		if err = expect(status, http.StatusOK, data, err); err != nil {
			return fail(err)
		}
		var js serveapi.JobStatusResponse
		if err := json.Unmarshal(data, &js); err != nil {
			return fail(err)
		}
		var ts [3]time.Time
		for i, v := range []string{js.SubmittedAt, js.StartedAt, js.FinishedAt} {
			if ts[i], err = time.Parse(time.RFC3339Nano, v); err != nil {
				return fail(fmt.Errorf("job %s timestamps: %w", sub.ID, err))
			}
		}
		out.waitRun = [2][2]time.Time{{ts[0], ts[1]}, {ts[1], ts[2]}}
		out.answer.results = js.Results
		out.done = done
		return out
	}
	out.done = time.Now()
	return out
}

func expect(status, want int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("status %d, want %d: %s", status, want, bytes.TrimSpace(body))
	}
	return nil
}

func post(hc *http.Client, url string, op int64, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return send(hc, req, op)
}

func get(hc *http.Client, url string, op int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return send(hc, req, op)
}

func send(hc *http.Client, req *http.Request, op int64) (int, []byte, error) {
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// followEvents reads a job's Server-Sent Events stream until the terminal
// state event and returns that state.
func followEvents(hc *http.Client, url string, op int64) (string, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if ev.Type == "state" && (ev.State == "done" || ev.State == "failed" || ev.State == "cancelled") {
			// Drain the rest so the connection can be reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return "", errors.New("events: stream ended before a terminal state")
}

// serveRef is the library reference for one hot lattice at ΔT = −250 °C.
type serveRef struct {
	dofs  int
	maxVM float64
	field []float64
}

// check verifies every answer against a per-lattice reference solved with
// the direct solver; stress is linear in a uniform ΔT, so the reference is
// scaled by |ΔT|/250.
func (b *serveBench) check(p *phaseResult) (int, int, error) {
	if b.refs == nil {
		b.refs = make(map[int]serveRef)
		ref := morestress.NewEngine(morestress.EngineOptions{SharedCache: b.cache})
		for _, n := range serveLattices {
			job := morestress.Job{Config: b.cell, Rows: n, Cols: n, DeltaT: -250, GridSamples: serveGridSamples, Solver: morestress.SolveDirect}
			res, err := ref.Solve(job)
			if !solveOK(res, err) {
				return 0, 0, fmt.Errorf("direct reference %dx%d: %v", n, n, err)
			}
			b.refs[n] = serveRef{dofs: res.Result.GlobalDoFs, maxVM: res.Result.VM.Max(), field: res.Result.VM.V}
		}
	}
	checked, wrong := 0, 0
	for _, a := range p.answers {
		ans := a.(serveAnswer)
		checked++
		if err := checkServeAnswer(ans, b.refs, b.cfg.FieldRelTol); err != nil {
			if wrong == 0 {
				fmt.Println("oracle: first wrong answer:", err)
			}
			wrong++
		}
	}
	return checked, wrong, nil
}

// checkServeAnswer compares every scenario of an operation with its
// lattice's reference.
func checkServeAnswer(ans serveAnswer, refs map[int]serveRef, tol float64) error {
	if len(ans.results) != len(ans.op.Jobs) {
		return fmt.Errorf("%s: %d results for %d scenarios", ans.op.Kind, len(ans.results), len(ans.op.Jobs))
	}
	for i, req := range ans.op.Jobs {
		if err := checkResponse(ans.results[i], req, refs[req.Rows], tol); err != nil {
			return fmt.Errorf("%s scenario %d (%dx%d, ΔT %.3f): %w", ans.op.Kind, i, req.Rows, req.Cols, *req.DeltaT, err)
		}
	}
	return nil
}

// checkResponse checks one scenario's response against the lattice's
// reference scaled to the request's ΔT.
func checkResponse(r serveapi.JobResponse, req serveapi.JobRequest, ref serveRef, tol float64) error {
	if r.Error != "" {
		return fmt.Errorf("error %q", r.Error)
	}
	if !r.Converged {
		return errors.New("not converged")
	}
	if r.GlobalDoFs != ref.dofs {
		return fmt.Errorf("globalDoFs %d, reference %d", r.GlobalDoFs, ref.dofs)
	}
	scale := math.Abs(*req.DeltaT) / 250
	want := ref.maxVM * scale
	if e := math.Abs(r.MaxVonMises-want) / want; !(e <= tol) {
		return fmt.Errorf("maxVonMises %.9g, reference %.9g (relative error %.3g, tolerance %.3g)", r.MaxVonMises, want, e, tol)
	}
	if req.IncludeField {
		if r.Field == nil {
			return errors.New("field requested but missing")
		}
		scaled := make([]float64, len(ref.field))
		for i, v := range ref.field {
			scaled[i] = v * scale
		}
		if e := fieldError(r.Field.V, scaled); !(e <= tol) {
			return fmt.Errorf("field differs from the reference by %.3g (tolerance %.3g)", e, tol)
		}
	}
	return nil
}

// servePhase is the traced phase's bookkeeping shared by the client, the
// handler wrapper and the solver decorator.
type servePhase struct {
	tr       *tracer
	ops      sync.Map // math.Float64bits(ΔT) → operation index
	shardOps []atomic.Int64
	mats     matrixStats

	respBytes, respCount atomic.Int64
}

// register maps each scenario's ΔT to the operation, so the solver decorator
// — which sees only the morestress.Job — can join the operation's trace.
// Seeded ΔTs are continuous draws, so distinct scenarios do not collide.
func (ph *servePhase) register(op serveOp, k int64) {
	for _, j := range op.Jobs {
		ph.ops.Store(math.Float64bits(*j.DeltaT), k)
	}
}

func (ph *servePhase) opFor(job morestress.Job) int64 {
	if k, ok := ph.ops.Load(math.Float64bits(job.DeltaT)); ok {
		return k.(int64)
	}
	return -1
}

// skew is the busiest shard's scenario count over the mean.
func (ph *servePhase) skew() float64 {
	var sum, most int64
	for i := range ph.shardOps {
		n := ph.shardOps[i].Load()
		sum += n
		most = max(most, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(ph.shardOps)) / float64(sum)
}

// tracedSolver is a morestress.Solver decorator around router.Shards: during
// a traced phase it records a router.solve span per call, the engine's
// child spans from each JobResult, and the shard each scenario went to.
type tracedSolver struct {
	sh    *router.Shards
	phase atomic.Pointer[servePhase]
}

func (d *tracedSolver) Solve(job morestress.Job) (*morestress.JobResult, error) {
	ph := d.phase.Load()
	start := time.Now()
	res, err := d.sh.Solve(job)
	if ph != nil {
		end := time.Now()
		op := ph.opFor(job)
		rs := ph.tr.add(op, containedSpan, "router.solve", start, end)
		ph.scenario(d.sh, job, op, rs, end, res)
	}
	return res, err
}

func (d *tracedSolver) BatchSolve(jobs []morestress.Job) *morestress.BatchResult {
	ph := d.phase.Load()
	start := time.Now()
	br := d.sh.BatchSolve(jobs)
	if ph != nil && len(jobs) > 0 {
		end := time.Now()
		op := ph.opFor(jobs[0])
		rs := ph.tr.add(op, containedSpan, "router.solve", start, end)
		for i := range br.Results {
			ph.scenario(d.sh, jobs[i], op, rs, end, &br.Results[i])
		}
	}
	return br
}

func (d *tracedSolver) Stats() morestress.EngineStats { return d.sh.Stats() }

// scenario records one scenario's shard, matrix size and engine spans under
// the router span rs. Within a batch the scenarios' engine spans all end at
// the batch's end; the self-time union accounts for their overlap.
func (ph *servePhase) scenario(sh *router.Shards, job morestress.Job, op int64, rs int, end time.Time, res *morestress.JobResult) {
	ph.shardOps[sh.ShardFor(job)].Add(1)
	ph.mats.observe(res)
	if res == nil {
		return
	}
	e := ph.tr.at(end)
	es := ph.tr.addNS(op, rs, "engine.solve", e-int64(res.Total), e)
	ph.tr.addEngine(op, es, end, res)
}

// wrap records a span per request around the server's handler during a
// traced phase, named by the layer the route belongs to, and counts the
// response bytes of /solve and /batch.
func (d *tracedSolver) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ph := d.phase.Load()
		if ph == nil {
			h.ServeHTTP(w, r)
			return
		}
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			op = -1
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		name := routeSpan(r)
		ph.tr.add(op, containedSpan, name, start, time.Now())
		if name == "serveapi.handler" {
			ph.respBytes.Add(cw.n)
			ph.respCount.Add(1)
		}
	})
}

// routeSpan names the span of a request by the layer that serves it.
func routeSpan(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		return "jobqueue.submit"
	case strings.HasSuffix(r.URL.Path, "/events"):
		return "jobqueue.events"
	case strings.HasPrefix(r.URL.Path, "/jobs/"):
		return "serveapi.status"
	}
	return "serveapi.handler"
}

// countingWriter counts response bytes and keeps http.Flusher working for
// the job event stream.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
